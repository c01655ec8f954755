#!/usr/bin/env bash
# Every quick artifact report, plus override and refusal probes, as the
# source tree given as the argument prints them: one section per
# `faas-sched run` invocation with its stdout, stderr and exit code.  The
# `engine:` summary lines carry wall time and are dropped, so the output
# of two trees can be diffed (.github/workflows/ci.yml does, against the
# pull request's base commit).
#
# Usage: tools/ci_artifact_reports.sh TREE > reports.txt
#
# TREE is a checkout of this repository; its src/ is put first on
# PYTHONPATH, whatever copy of the package is installed.
set -u

tree="${1:?usage: ci_artifact_reports.sh TREE}"
src="$(cd "${tree}" && pwd)/src"
out="$(mktemp)"
err="$(mktemp)"
trap 'rm -f "${out}" "${err}"' EXIT

probes=(
  "table1"
  "fig2"
  "fig3"
  "fig4"
  "table2"
  "table3"
  "table4"
  "fig5"
  "fig6"
  "ablations"
  "table4 --scenario poisson --scenario-param zipf_exponent=0.5"
  "table4 --nodes 1 2 --balancer least-loaded power-of-d --balancer-param d=3"
  "table4 --policies FIFO SEPT-EMA --policy-param window=5"
  "fig6 --balancer power-of-d"
  "fig6 --nodes 2"
  "ablations --failure-param bogus=1"
)

for probe in "${probes[@]}"; do
  # shellcheck disable=SC2086  # each probe is a list of words
  PYTHONPATH="${src}" python -m repro.cli run ${probe} --no-progress >"${out}" 2>"${err}"
  code=$?
  echo "### faas-sched run ${probe} --no-progress (exit ${code})"
  echo "--- stdout"
  grep -v '^engine: ' "${out}"
  echo "--- stderr"
  grep -v '^engine: ' "${err}"
done
exit 0
