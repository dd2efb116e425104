#!/usr/bin/env bash
# Builds the concurrency-sensitive tests under ThreadSanitizer and runs
# them. The obs metrics/trace layer, the thread pool and the sharded query
# service (admission queue, worker fan-out, selection cache, concurrent
# producers completing batches) are the code most exposed to data races;
# this is the gate described in docs/observability.md. The scan-kernel
# tests ride along so the dispatched kernels run under the gate too. So do
# the extraction tests (extractor and extraction
# parity): FingerprintExtractor::Extract runs on several threads at once
# (the benchmark extracts its catalogue that way) and reuses its Harris
# working memory across key-frames, which must stay private to each call;
# ConcurrentExtractMatchesSerial drives four threads through one extractor.
#
# A second leg rebuilds the byte-reader, kernel, memtable and service tests
# under AddressSanitizer (-DS3VCD_SANITIZE=address) with leak detection:
# the segment store reader parses untrusted lengths and offsets,
# the memtable merges runs in place, and the service hands batches between
# producer and worker threads through shared tickets. The voting, detector,
# stream-monitor and detection-quality tests join this leg and the UBSan
# one: the offset sweep indexes its pairs with a two-pointer window and
# per-candidate scratch arrays, and the detection-quality stream drives the
# whole pipeline, copy radius included. So do the extraction tests (filters, Harris, descriptor,
# extractor and their bit-parity suite): the blur reads padded rows and
# clamped row pointers, and the jet samples clamped pixel neighbourhoods.
# The block-selection tests (filter, filter_table with its differential,
# query_property, block_tree and zorder with the orthant facts) join both
# legs: the closed-form enumerator packs flip sets and sign patterns into
# bit masks and indexes per-axis arrays with them. The index test and
# sorted_run_test join both legs as well: code-range lookups read a run's
# prefix table at bucket b and b + 1 and binary-search the codes between
# them, and sorted_run_test drives that lookup over every store, including
# a segment's code column read as u32 straight off the mapping (UBSan
# checks that pointer's alignment).
# The readers and writers of the formats join both legs too: db_fuzz_test
# feeds the database loader adversarial bytes, format_mutation_test feeds
# seeded flips, truncations and resealed field rewrites to the .s3db,
# .s3seg and MANIFEST readers, external_builder_test drives the
# run-merging builder, and pseudo_disk_test reads curve sections into the
# resident buffer the refinement kernel scans. obs_test joins both legs:
# its query-metrics parity test drives pooled sharded batches, whose scan
# tasks write per-(query, shard) slots the merge reads after the pool
# drains.
#
# A third leg rebuilds the kernel/store tests under
# UndefinedBehaviorSanitizer (-DS3VCD_SANITIZE=undefined): the scan
# kernels lean on per-function ISA targets and unaligned column loads,
# exactly the code UBSan is good at auditing. The service tests join this
# leg too (deadline arithmetic), as does the backend parity suite, whose
# vamana legs drive the gather kernels and the graph blob reader (bounds
# arithmetic on untrusted header fields). Skip it with S3VCD_SKIP_UBSAN=1.
#
# Usage: tools/run_tsan_tests.sh [tsan-build-dir [ubsan-build-dir
#                                 [asan-build-dir]]]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build-tsan}"
ubsan_dir="${2:-${repo_root}/build-ubsan}"
asan_dir="${3:-${repo_root}/build-asan}"

cmake -S "${repo_root}" -B "${build_dir}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DS3VCD_SANITIZE=thread
cmake --build "${build_dir}" --target obs_test parallel_test service_test \
  backend_parity_test scan_kernel_test filter_table_test store_test \
  segment_parity_test memtable_test extractor_test \
  extraction_parity_test -j"$(nproc)"

(
  cd "${build_dir}"
  TSAN_OPTIONS="halt_on_error=1" \
    ctest --output-on-failure \
    -R '^(obs_test|parallel_test|service_test|backend_parity_test|scan_kernel_test|scan_kernel_test_retired_avx512|scan_kernel_test_forced_scalar|filter_table_test|store_test|segment_parity_test|memtable_test|extractor_test|extraction_parity_test)$'
)
echo "TSan run passed."

cmake -S "${repo_root}" -B "${asan_dir}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DS3VCD_SANITIZE=address
cmake --build "${asan_dir}" --target obs_test service_test store_test \
  segment_parity_test memtable_test backend_parity_test \
  scan_kernel_test voting_test cbcd_test \
  stream_monitor_test detection_quality_test harris_test descriptor_test \
  media_filters_test extractor_test extraction_parity_test filter_test \
  filter_table_test query_property_test block_tree_test zorder_test \
  index_test sorted_run_test format_mutation_test pseudo_disk_test \
  db_fuzz_test external_builder_test -j"$(nproc)"

(
  cd "${asan_dir}"
  ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
    ctest --output-on-failure \
    -R '^(obs_test|service_test|store_test|segment_parity_test|memtable_test|backend_parity_test|scan_kernel_test|scan_kernel_test_retired_avx512|scan_kernel_test_forced_scalar|voting_test|cbcd_test|stream_monitor_test|detection_quality_test|harris_test|descriptor_test|media_filters_test|extractor_test|extraction_parity_test|filter_test|filter_table_test|query_property_test|block_tree_test|zorder_test|index_test|sorted_run_test|format_mutation_test|pseudo_disk_test|db_fuzz_test|external_builder_test)$'
)
echo "ASan run passed."

if [[ -n "${S3VCD_SKIP_UBSAN:-}" ]]; then
  echo "Skipping UBSan leg (S3VCD_SKIP_UBSAN set)."
  exit 0
fi

cmake -S "${repo_root}" -B "${ubsan_dir}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DS3VCD_SANITIZE=undefined
cmake --build "${ubsan_dir}" --target obs_test scan_kernel_test store_test \
  segment_parity_test memtable_test service_test \
  backend_parity_test voting_test cbcd_test stream_monitor_test \
  detection_quality_test harris_test descriptor_test media_filters_test extractor_test \
  extraction_parity_test filter_test filter_table_test query_property_test \
  block_tree_test zorder_test index_test sorted_run_test \
  format_mutation_test pseudo_disk_test db_fuzz_test external_builder_test \
  -j"$(nproc)"

(
  cd "${ubsan_dir}"
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ctest --output-on-failure \
    -R '^(obs_test|scan_kernel_test|scan_kernel_test_retired_avx512|scan_kernel_test_forced_scalar|store_test|segment_parity_test|memtable_test|service_test|backend_parity_test|voting_test|cbcd_test|stream_monitor_test|detection_quality_test|harris_test|descriptor_test|media_filters_test|extractor_test|extraction_parity_test|filter_test|filter_table_test|query_property_test|block_tree_test|zorder_test|index_test|sorted_run_test|format_mutation_test|pseudo_disk_test|db_fuzz_test|external_builder_test)$'
)
echo "UBSan run passed."
