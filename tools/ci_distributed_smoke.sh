#!/usr/bin/env bash
# Distributed-executor smoke (.github/workflows/ci.yml, distributed-smoke):
# three faas-sched worker processes share one cache root with a 24-cell
# queue-executor sweep; one worker is SIGKILLed mid-sweep.  The sweep must
# still complete (the dead worker's lease expires and its cell is stolen)
# with all 24 cells counted as computed, a re-run must be served 100% from
# cache, and cache verify must be clean.
set -euo pipefail

cache="${1:-.cache-distributed}"
rm -rf "${cache}"
mkdir -p "${cache}"

# Short TTL so the killed worker's orphaned lease is stolen within
# seconds instead of the default 60.
export REPRO_LEASE_TTL=5

grid_args=(
  --cores 4 --intensities 10 20 30
  --strategies FIFO SEPT
  --seeds 1 2 3 4
  --cache-dir "${cache}" --no-progress
)

pids=()
for i in 1 2 3; do
  faas-sched worker --cache-dir "${cache}" \
    --idle-timeout 10 --poll 0.1 --no-progress &
  pids+=($!)
done
echo "workers: ${pids[*]}"

# SIGKILL the second worker mid-sweep — no cleanup, no lease release.
(
  sleep 2
  echo "killing worker ${pids[1]} (SIGKILL)"
  kill -9 "${pids[1]}" 2>/dev/null || true
) &
killer=$!

faas-sched grid --executor queue "${grid_args[@]}" | tee distributed_sweep.out
# Every cell was a miss when the sweep started, so every cell counts as
# computed, whichever worker computed it.
grep -q "engine: 24 runs (24 computed, 0 from cache" distributed_sweep.out
grep -q "executor=queue" distributed_sweep.out

wait "${killer}" 2>/dev/null || true
for pid in "${pids[@]}"; do
  wait "${pid}" 2>/dev/null || true
done

# Resume semantics: the re-run computes nothing.
faas-sched grid --executor queue "${grid_args[@]}" | tee distributed_rerun.out
grep -q "engine: 24 runs (0 computed, 24 from cache" distributed_rerun.out

# No entry may be corrupt or stale despite the mid-sweep SIGKILL.
faas-sched cache verify --cache-dir "${cache}" | tee distributed_verify.out
grep -q "corrupt: 0  stale: 0" distributed_verify.out

faas-sched cache stats --cache-dir "${cache}"

if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
  {
    echo "### Distributed smoke"
    echo '```'
    grep "^engine:" distributed_sweep.out distributed_rerun.out
    grep "^scanned:" distributed_verify.out
    echo '```'
  } >> "${GITHUB_STEP_SUMMARY}"
fi
echo "distributed smoke OK"
