#!/usr/bin/env bash
# Builds the concurrency-sensitive tests under ThreadSanitizer and runs
# them. The obs metrics/trace layer, the thread pool and the sharded query
# service (admission queue, worker fan-out, selection cache) are the code
# most exposed to data races; this is the gate described in
# docs/observability.md. The descriptor-codec and scan-kernel tests ride
# along so the quantized decode kernels run under the gate too.
#
# A second leg rebuilds the kernel/codec/store tests under
# UndefinedBehaviorSanitizer (-DS3VCD_SANITIZE=undefined): the fused
# decode kernels lean on unsigned wraparound and per-function ISA targets,
# exactly the code UBSan is good at auditing. The service tests join this
# leg too — the hedging/cancellation machinery (first-wins claims, token
# buckets, quantile arithmetic) runs under both sanitizers — as does the
# backend parity suite, whose vamana legs drive the gather kernels and the
# graph blob reader (bounds arithmetic on untrusted header fields) under
# both sanitizers. Skip it with S3VCD_SKIP_UBSAN=1.
#
# Usage: tools/run_tsan_tests.sh [tsan-build-dir [ubsan-build-dir]]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build-tsan}"
ubsan_dir="${2:-${repo_root}/build-ubsan}"

cmake -S "${repo_root}" -B "${build_dir}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DS3VCD_SANITIZE=thread
cmake --build "${build_dir}" --target obs_test parallel_test service_test \
  backend_parity_test scan_kernel_test filter_table_test store_test \
  segment_parity_test descriptor_codec_test -j"$(nproc)"

(
  cd "${build_dir}"
  TSAN_OPTIONS="halt_on_error=1" \
    ctest --output-on-failure \
    -R '^(obs_test|parallel_test|service_test|backend_parity_test|scan_kernel_test|scan_kernel_test_retired_avx512|scan_kernel_test_forced_scalar|filter_table_test|store_test|segment_parity_test|descriptor_codec_test)$'
)
echo "TSan run passed."

if [[ -n "${S3VCD_SKIP_UBSAN:-}" ]]; then
  echo "Skipping UBSan leg (S3VCD_SKIP_UBSAN set)."
  exit 0
fi

cmake -S "${repo_root}" -B "${ubsan_dir}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DS3VCD_SANITIZE=undefined
cmake --build "${ubsan_dir}" --target scan_kernel_test store_test \
  segment_parity_test descriptor_codec_test service_test \
  backend_parity_test -j"$(nproc)"

(
  cd "${ubsan_dir}"
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ctest --output-on-failure \
    -R '^(scan_kernel_test|scan_kernel_test_retired_avx512|scan_kernel_test_forced_scalar|store_test|segment_parity_test|descriptor_codec_test|service_test|backend_parity_test)$'
)
echo "UBSan run passed."
