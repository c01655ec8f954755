#!/usr/bin/env bash
# One named smoke scenario of the CI smoke matrix (.github/workflows/ci.yml).
#
# Usage: tools/ci_smoke.sh <engine|scenario|policy|cluster|compare|chaos|adaptive|examples>
#
# Each smoke is self-contained (its own cache root), so the matrix can run
# them on independent runners.  When $GITHUB_STEP_SUMMARY is set, the wall
# time of the smoke is appended to the job summary.
set -euo pipefail

smoke="${1:?usage: ci_smoke.sh <engine|scenario|policy|cluster|compare|chaos|adaptive|examples>}"
cache=".cache-smoke-${smoke}"
rm -rf "${cache}"
started=$(date +%s)

case "${smoke}" in
  engine)
    # Parallel engine through the grid CLI, cached re-run.  Six cells on
    # two workers, so each worker computes and stores several cells.
    faas-sched grid --jobs 2 --cores 4 --intensities 10 \
      --strategies FIFO SEPT --seeds 1 2 3 --cache-dir "${cache}" --no-progress \
      | tee engine_cold_smoke.out
    grep -q "6 computed, 0 from cache" engine_cold_smoke.out
    faas-sched grid --jobs 2 --cores 4 --intensities 10 \
      --strategies FIFO SEPT --seeds 1 2 3 --cache-dir "${cache}" --no-progress \
      | tee engine_smoke.out
    grep -q "0 computed, 6 from cache" engine_smoke.out
    ;;
  scenario)
    # Non-default scenario through the engine.
    faas-sched scenarios
    faas-sched grid --jobs 2 --cores 4 --intensities 10 \
      --strategies FIFO --seeds 1 --scenario poisson \
      --scenario-param zipf_exponent=1.1 --cache-dir "${cache}" --no-progress
    ;;
  policy)
    # Parameterized policy through the cache, hit asserted.
    faas-sched policies
    faas-sched grid --jobs 2 --cores 4 --intensities 10 \
      --strategies SEPT SEPT-EMA --seeds 1 \
      --policy-param window=3 \
      --cache-dir "${cache}" --no-progress
    faas-sched grid --jobs 2 --cores 4 --intensities 10 \
      --strategies SEPT SEPT-EMA --seeds 1 \
      --policy-param window=3 \
      --cache-dir "${cache}" --no-progress | tee policy_smoke.out
    grep -q "0 computed, 2 from cache" policy_smoke.out
    ;;
  cluster)
    # Cluster dimension through the engine, cached re-run.
    faas-sched grid --jobs 2 --cores 4 --intensities 10 \
      --strategies FC --seeds 1 --nodes 3 --balancer power-of-d \
      --cache-dir "${cache}" --no-progress
    faas-sched grid --jobs 2 --cores 4 --intensities 10 \
      --strategies FC --seeds 1 --nodes 3 --balancer power-of-d \
      --cache-dir "${cache}" --no-progress | tee cluster_smoke.out
    grep -q "0 computed, 1 from cache" cluster_smoke.out
    faas-sched simulate --cores 4 --intensity 10 --policy FC \
      --nodes 3 --balancer locality
    ;;
  compare)
    # The compare verb, retained and streaming modes over a shared cache.
    faas-sched compare FC SEPT --cores 4 --intensity 10 \
      --num-seeds 5 --resamples 300 --jobs 2 \
      --cache-dir "${cache}" --no-progress
    faas-sched compare FC SEPT --cores 4 --intensity 10 \
      --num-seeds 5 --resamples 300 --jobs 2 --streaming \
      --cache-dir "${cache}" --no-progress
    ;;
  chaos)
    # A failure-injection grid runs through the cache twice — the failure
    # regime is part of the fingerprint, so the re-run must be served
    # entirely from cache — plus a compare under a shared failure regime
    # and a cache-verify pass.
    faas-sched grid --jobs 2 --cores 4 --intensities 10 \
      --strategies FIFO FC --seeds 1 --nodes 2 \
      --failure-param node_crash_rate=0.01 \
      --failure-param timeout_s=20 \
      --cache-dir "${cache}" --no-progress
    faas-sched grid --jobs 2 --cores 4 --intensities 10 \
      --strategies FIFO FC --seeds 1 --nodes 2 \
      --failure-param node_crash_rate=0.01 \
      --failure-param timeout_s=20 \
      --cache-dir "${cache}" --no-progress | tee chaos_smoke.out
    grep -q "0 computed, 2 from cache" chaos_smoke.out
    faas-sched compare baseline FC --cores 4 --intensity 10 \
      --num-seeds 3 --resamples 300 --jobs 2 --nodes 2 \
      --failure-param node_crash_rate=0.005 \
      --cache-dir "${cache}" --no-progress | tee chaos_compare.out
    grep -q "retries" chaos_compare.out
    faas-sched cache verify --cache-dir "${cache}"
    ;;
  adaptive)
    # FC vs FIFO at intensity 30 separates on mean stretch at the first
    # 5-seed batch (deterministic given seeds), so the adaptive allocator
    # must stop there and report the exact runs saved over the fixed
    # 20-seed protocol.
    faas-sched compare FC FIFO --cores 4 --intensity 30 \
      --num-seeds 5 --adaptive --max-seeds 20 --batch 5 \
      --resamples 300 --jobs 2 --cache-dir "${cache}" --no-progress \
      | tee adaptive_smoke.out
    grep -q "converged after 5 seeds (10/40 runs, 30 saved)" \
      adaptive_smoke.out
    ;;
  examples)
    # Every example script runs to completion; any non-zero exit fails.
    for example in examples/*.py; do
      echo "== ${example}"
      python "${example}"
    done
    ;;
  *)
    echo "unknown smoke '${smoke}'" >&2
    exit 2
    ;;
esac

elapsed=$(( $(date +%s) - started ))
echo "smoke ${smoke}: ${elapsed}s"
if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
  echo "| ${smoke} | ${elapsed}s |" >> "${GITHUB_STEP_SUMMARY}"
fi
