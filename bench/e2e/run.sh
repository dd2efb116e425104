#!/usr/bin/env bash
# End-to-end CBCD benchmark. Builds the s3vcd_e2e program as its own CMake
# project in build-e2e/ at the repository root, then runs each selected
# workload in its own process and exits non-zero if any run fails a
# correctness check.
#
#   bench/e2e/run.sh [--workload NAME]... [--seed N] [--seconds S]
#                    [--trace 0|1 | --traced] [--smoke]
#
# Without --workload every workload runs. --traced (= --trace 1) prints the
# per-layer metrics of a traced pass and writes its Chrome trace to
# build-e2e/traces/; otherwise the end-to-end metrics are printed. --smoke
# runs all four workloads traced at about 1/50 scale. The last line of a
# run's output is its result object; see README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-e2e"

all_workloads=(monitor_400k monitor_20k serve_1m ingest_monitor)
workloads=()
seed=1
seconds=12
trace=0
smoke=0

usage() {
  sed -n '2,14p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) [[ $# -ge 2 ]] || usage; workloads+=("$2"); shift 2 ;;
    --seed) [[ $# -ge 2 ]] || usage; seed="$2"; shift 2 ;;
    --seconds) [[ $# -ge 2 ]] || usage; seconds="$2"; shift 2 ;;
    --trace) [[ $# -ge 2 ]] || usage; trace="$2"; shift 2 ;;
    --traced) trace=1; shift ;;
    --smoke) smoke=1; trace=1; seconds=0.25; shift ;;
    *) usage ;;
  esac
done
[[ ${#workloads[@]} -gt 0 ]] || workloads=("${all_workloads[@]}")

# Everything the build and the runs write stays under build-e2e/.
mkdir -p "$build/tmp" "$build/run" "$build/traces"
export TMPDIR="$build/tmp"
log="$build/build.log"
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  if ! cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >"$log" 2>&1; then
    tail -n 30 "$log" >&2
    echo "run.sh: configuring the benchmark failed (see $log)" >&2
    exit 1
  fi
fi
if ! cmake --build "$build" --target s3vcd_e2e -j"$(nproc)" >>"$log" 2>&1; then
  tail -n 30 "$log" >&2
  echo "run.sh: building the benchmark failed (see $log)" >&2
  exit 1
fi

commit=unknown
if [[ -e "$root/.git" ]]; then
  commit="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
fi
status=0
for workload in "${workloads[@]}"; do
  args=(--workload "$workload" --seed "$seed" --seconds "$seconds"
        --trace "$trace" --work-dir "$build/run" --commit "$commit"
        --trace-out "$build/traces/$workload-$seed.json")
  [[ $smoke -eq 1 ]] && args+=(--smoke)
  "$build/s3vcd_e2e" "${args[@]}" || status=1
done
exit $status
