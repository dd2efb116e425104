#!/usr/bin/env bash
# Runs the refine-kernel micro benchmark (BM_RefineScan: a full seqscan
# sweep of the shared 200k-record corpus per iteration) and distills the
# result into a machine-readable BENCH_scan.json: records/sec per scan
# kernel (scalar / sse2 / avx2) plus the SIMD-over-scalar speedup. The
# scalar leg is a genuinely scalar loop (its TU is built with
# auto-vectorization off), so the speedup is kernel work, not compiler
# luck. The gather stanza (BM_BatchedDistance) adds the graph-traversal
# distance path: one GatherScorer::Score call over 32 gathered candidates
# per kernel vs the naive one-record-at-a-time loop — the
# batched-over-looped speedup is the perf claim behind the vamana beam
# search.
#
# Also runs the block-selection micro benchmarks (BM_SelectStatistical /
# BM_SelectRange over the same corpus's filter) and writes BENCH_filter.json:
# closed-form statistical selection microseconds per query at depths 8-20,
# and the geometric range-filter timings.
#
# Also runs the segment-store scan benchmark (BM_SegmentScan: the same
# full-corpus refine sweep served off an on-disk .s3seg segment, mapped
# and resident, on the default kernel) and writes BENCH_store.json:
# records/sec per read mode, each mode's ratio to the in-memory sweep of
# the same kernel from the scan run above, and the mmap-over-resident
# ratio.
#
# Also runs the extraction micro benchmarks (BM_GaussianBlur at sigma 1,
# 1.5 and 2, BM_DetectInterestPoints, BM_ExtractClip over a 250-frame 96x80
# synthetic clip) with repetitions and writes BENCH_extract.json: per row
# the median over the repetitions and their spread (min, quartiles, max,
# interquartile range over median), in microseconds per blur, per
# detection and per key-frame.
#
# Every BENCH_*.json carries a "host" object: the CPU model, the CPUs
# this process may run on, the x86 SIMD capability flags (from
# /proc/cpuinfo) and the scan kernel the library dispatched to in that
# run (honouring S3VCD_SCAN_KERNEL), so archived numbers are attributable
# to the hardware and kernel that produced them.
#
# Also runs the equal-recall ANN harness (bench/ann_equal_recall: the
# vamana graph backend's beam width swept until it matches the exact S3
# range query's match set at recall 0.95 / 0.99 / 1.0 on the same
# 200k-record corpus) and writes BENCH_ann.json:
# the full sweep plus the matched-recall operating points with latency,
# throughput and the speedup over the exact baseline.
#
# The query service's latency and capacity are measured by the serve_1m
# workload of bench/e2e (bench/e2e/run.sh), not here.
#
# Usage: tools/run_benchmarks.sh [build-dir [scan-json [filter-json [store-json [ann-json [extract-json]]]]]]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
out_json="${2:-${repo_root}/BENCH_scan.json}"
filter_json="${3:-${repo_root}/BENCH_filter.json}"
store_json="${4:-${repo_root}/BENCH_store.json}"
ann_json="${5:-${repo_root}/BENCH_ann.json}"
extract_json="${6:-${repo_root}/BENCH_extract.json}"

if [[ ! -x "${build_dir}/bench/micro_benchmarks" ]]; then
  cmake -S "${repo_root}" -B "${build_dir}" -DCMAKE_BUILD_TYPE=Release
  cmake --build "${build_dir}" --target micro_benchmarks -j"$(nproc)"
fi

# Host fingerprint shared by every BENCH file. The scan kernel is not
# derived here: each stanza reads the one the library dispatched to from
# its own run (the micro benchmarks' "scan_kernel" context, the ANN
# harness's host block).
S3VCD_BENCH_HOST="$(python3 - <<'PY'
import json
import os

model, flags = "unknown", set()
try:
    with open("/proc/cpuinfo") as f:
        for line in f:
            key, _, value = line.partition(":")
            if key.strip() == "model name" and model == "unknown":
                model = value.strip()
            elif key.strip() == "flags" and not flags:
                flags = set(value.split())
except OSError:
    pass
print(json.dumps({
    "cpu_model": model,
    "nproc": len(os.sched_getaffinity(0)),
    "isa_flags": [f for f in ("sse2", "ssse3", "sse4_1", "sse4_2", "avx",
                              "avx2") if f in flags],
}))
PY
)"
export S3VCD_BENCH_HOST
echo "host: ${S3VCD_BENCH_HOST}" >&2

raw_json="$(mktemp)"
trap 'rm -f "${raw_json}"' EXIT

"${build_dir}/bench/micro_benchmarks" \
  --benchmark_filter='^BM_RefineScan|^BM_BatchedDistance' \
  --benchmark_format=json \
  --benchmark_out="${raw_json}" \
  --benchmark_out_format=json >&2

python3 - "${raw_json}" "${out_json}" <<'PY'
import json
import os
import sys

raw_path, out_path = sys.argv[1], sys.argv[2]
with open(raw_path) as f:
    raw = json.load(f)

host = dict(json.loads(os.environ["S3VCD_BENCH_HOST"]),
            selected_scan_kernel=raw.get("context", {}).get("scan_kernel"))

kernels = {}
gather = {"looped": None, "batched": {}}
for b in raw.get("benchmarks", []):
    if b.get("run_type") != "iteration" or "error_occurred" in b:
        continue
    label = b.get("label", "")
    if not label:
        continue
    if label.startswith("gather:"):
        # "gather:batched:<kernel>" / "gather:looped" from
        # BM_BatchedDistance (32 gathered candidates per call).
        parts = label.split(":")
        row = {
            "candidates_per_second": b.get("items_per_second", 0.0),
            "ns_per_batch": b.get("real_time", 0.0),
        }
        if parts[1] == "looped":
            gather["looped"] = row
        else:
            gather["batched"][parts[2]] = row
    else:
        kernels[label] = {
            "records_per_second": b.get("items_per_second", 0.0),
            "ns_per_sweep": b.get("real_time", 0.0),
        }

scalar = kernels.get("scalar", {}).get("records_per_second", 0.0)
best_simd_name = None
best_simd = 0.0
for name, entry in kernels.items():
    if name != "scalar" and entry["records_per_second"] > best_simd:
        best_simd = entry["records_per_second"]
        best_simd_name = name

best_name, best_rps = None, 0.0
for name, row in gather["batched"].items():
    if row["candidates_per_second"] > best_rps:
        best_rps = row["candidates_per_second"]
        best_name = name
looped = (gather["looped"] or {}).get("candidates_per_second", 0.0)
gather["best_batched_kernel"] = best_name
gather["batched_over_looped"] = best_rps / looped if looped > 0 else None

result = {
    "benchmark": "BM_RefineScan / BM_BatchedDistance",
    "description": ("seqscan refine sweep over 200000 records, "
                    "kRadiusFilter mode, records/sec per scan kernel; "
                    "'gather' is the graph-traversal distance path "
                    "(BM_BatchedDistance): one GatherScorer::Score call "
                    "over 32 gathered candidates per kernel vs the "
                    "one-record-at-a-time loop"),
    "backend": "seqscan",
    "sweep_records": 200000,
    "host": host,
    "kernels": kernels,
    "best_simd_kernel": best_simd_name,
    "simd_speedup_over_scalar":
        (best_simd / scalar) if scalar > 0 else None,
    "gather": gather,
    "context": raw.get("context", {}),
}
with open(out_path, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")
print(json.dumps(result["kernels"], indent=2))
speedup = result["simd_speedup_over_scalar"]
if speedup is not None:
    print(f"SIMD speedup over scalar: {speedup:.2f}x ({best_simd_name})")
ratio = gather["batched_over_looped"]
if ratio is not None:
    print(f"gather: batched ({best_name}) {ratio:.2f}x over looped")
PY

echo "Wrote ${out_json}"

filter_raw="$(mktemp)"
trap 'rm -f "${raw_json}" "${filter_raw}"' EXIT

"${build_dir}/bench/micro_benchmarks" \
  --benchmark_filter='^BM_Select' \
  --benchmark_format=json \
  --benchmark_out="${filter_raw}" \
  --benchmark_out_format=json >&2

python3 - "${filter_raw}" "${filter_json}" <<'PY'
import json
import os
import sys

raw_path, out_path = sys.argv[1], sys.argv[2]
with open(raw_path) as f:
    raw = json.load(f)

host = dict(json.loads(os.environ["S3VCD_BENCH_HOST"]),
            selected_scan_kernel=raw.get("context", {}).get("scan_kernel"))

# Labels: "stat:d12" / "range:d12".
statistical = {}
geometric = {}
for b in raw.get("benchmarks", []):
    if b.get("run_type") != "iteration" or "error_occurred" in b:
        continue
    parts = b.get("label", "").split(":")
    if len(parts) != 2 or parts[0] not in ("stat", "range"):
        continue
    entry = {"us_per_query": b.get("real_time", 0.0) * 1e-3}  # reported in ns
    depth = int(parts[1].lstrip("d"))
    (statistical if parts[0] == "stat" else geometric)[depth] = entry

result = {
    "benchmark": "BM_SelectStatistical / BM_SelectRange",
    "description": ("block selection over the shared 200k-record corpus "
                    "(sigma 18 Gaussian model, alpha 0.8 / epsilon 90), "
                    "microseconds per query by partition depth, closed-form "
                    "orthant selection"),
    "host": host,
    "statistical_by_depth":
        {str(d): statistical[d] for d in sorted(statistical)},
    "range_by_depth": {str(d): geometric[d] for d in sorted(geometric)},
    "context": raw.get("context", {}),
}
with open(out_path, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")
for depth in sorted(statistical):
    print(f"depth {depth:2d}: statistical "
          f"{statistical[depth]['us_per_query']:8.1f} us  range "
          f"{geometric.get(depth, {}).get('us_per_query', 0.0):8.1f} us")
PY

echo "Wrote ${filter_json}"

store_raw="$(mktemp)"
trap 'rm -f "${raw_json}" "${filter_raw}" "${store_raw}"' EXIT

"${build_dir}/bench/micro_benchmarks" \
  --benchmark_filter='^BM_SegmentScan' \
  --benchmark_format=json \
  --benchmark_out="${store_raw}" \
  --benchmark_out_format=json >&2

python3 - "${store_raw}" "${out_json}" "${store_json}" <<'PY'
import json
import os
import sys

raw_path, scan_path, out_path = sys.argv[1], sys.argv[2], sys.argv[3]
with open(raw_path) as f:
    raw = json.load(f)

host = dict(json.loads(os.environ["S3VCD_BENCH_HOST"]),
            selected_scan_kernel=raw.get("context", {}).get("scan_kernel"))

# Labels: "segment:<mode>:<kernel>".
modes = {}
for b in raw.get("benchmarks", []):
    if b.get("run_type") != "iteration" or "error_occurred" in b:
        continue
    label = b.get("label", "")
    if not label.startswith("segment:"):
        continue
    _, mode, kernel = label.split(":")
    modes[mode] = {
        "kernel": kernel,
        "records_per_second": b.get("items_per_second", 0.0),
        "ns_per_sweep": b.get("real_time", 0.0),
    }

# Ratio to the in-memory sweep of the same corpus on the same kernel
# (BM_RefineScan, written just before this stanza), so the ratio is the
# cost of serving from the store alone.
try:
    with open(scan_path) as f:
        scan = json.load(f)
except (OSError, json.JSONDecodeError):
    scan = {}


def memory_rps(kernel):
    return (scan.get("kernels", {}).get(kernel, {})
            .get("records_per_second", 0.0))


for entry in modes.values():
    rps = memory_rps(entry["kernel"])
    entry["fraction_of_memory_sweep"] = (
        entry["records_per_second"] / rps if rps > 0 else None)
mmap_rps = modes.get("mmap", {}).get("records_per_second", 0.0)
resident_rps = modes.get("resident", {}).get("records_per_second", 0.0)

result = {
    "benchmark": "BM_SegmentScan",
    "description": ("refine sweep over a 200000-record on-disk .s3seg "
                    "segment, kRadiusFilter mode, records/sec per read "
                    "mode (mmap vs resident copy) on the default kernel; "
                    "fraction_of_memory_sweep compares against the "
                    "in-memory sweep of the same kernel"),
    "sweep_records": 200000,
    "host": host,
    "modes": modes,
    "memory_sweep_records_per_second":
        memory_rps(host["selected_scan_kernel"]) or None,
    "mmap_over_resident":
        (mmap_rps / resident_rps) if resident_rps > 0 else None,
    "context": raw.get("context", {}),
}
with open(out_path, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")
print(json.dumps(result["modes"], indent=2))
ratio = result["mmap_over_resident"]
if ratio is not None:
    print(f"mmap over resident: {ratio:.2f}x")
PY

echo "Wrote ${store_json}"

extract_raw="$(mktemp)"
trap 'rm -f "${raw_json}" "${filter_raw}" "${store_raw}" "${extract_raw}"' EXIT

extract_reps=5
"${build_dir}/bench/micro_benchmarks" \
  --benchmark_filter='^BM_GaussianBlur|^BM_DetectInterestPoints|^BM_ExtractClip' \
  --benchmark_repetitions="${extract_reps}" \
  --benchmark_format=json \
  --benchmark_out="${extract_raw}" \
  --benchmark_out_format=json >&2

python3 - "${extract_raw}" "${extract_json}" "${extract_reps}" <<'PY'
import json
import os
import statistics
import sys

raw_path, out_path, reps = sys.argv[1], sys.argv[2], int(sys.argv[3])
with open(raw_path) as f:
    raw = json.load(f)

host = dict(json.loads(os.environ["S3VCD_BENCH_HOST"]),
            selected_scan_kernel=raw.get("context", {}).get("scan_kernel"))

TO_US = {"ns": 1e-3, "us": 1.0, "ms": 1e3, "s": 1e6}
samples = {}
for b in raw.get("benchmarks", []):
    if b.get("run_type") != "iteration" or "error_occurred" in b:
        continue
    name = b["run_name"]
    if name.startswith("BM_ExtractClip"):
        value = b["us_per_kf"]
    else:
        value = b["real_time"] * TO_US[b.get("time_unit", "ns")]
    samples.setdefault(name, []).append(value)


def summary(values):
    values = sorted(values)
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {
        "median": median,
        "spread": {"min": values[0], "q1": q1, "q3": q3, "max": values[-1],
                   "iqr_over_median": (q3 - q1) / median if median else None},
        "repetitions": len(values),
    }


blur = {}
rows = {}
for name, values in samples.items():
    if name.startswith("BM_GaussianBlur/"):
        sigma = int(name.split("/")[1]) / 2
        blur[f"{sigma:g}"] = summary(values)
    elif name.startswith("BM_DetectInterestPoints"):
        rows["detect_interest_points_us"] = summary(values)
    elif name.startswith("BM_ExtractClip"):
        rows["extract_us_per_keyframe"] = summary(values)

result = {
    "benchmark": "BM_GaussianBlur / BM_DetectInterestPoints / BM_ExtractClip",
    "description": ("extraction kernels on a 96x80 synthetic frame: one "
                    "separable Gaussian blur per sigma (microseconds, "
                    "working memory reused), Harris response, non-maximum "
                    "suppression and point selection (microseconds, "
                    "detector reused), and FingerprintExtractor::Extract "
                    "over a 250-frame clip (microseconds per key-frame, "
                    "key-frame detection included); median and spread "
                    "over the repetitions"),
    "frame": "96x80",
    "repetitions": reps,
    "host": host,
    "blur_us_by_sigma": blur,
    **rows,
    "context": raw.get("context", {}),
}
with open(out_path, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")
for sigma, entry in blur.items():
    print(f"blur sigma {sigma}: {entry['median']:.1f} us")
for key, entry in rows.items():
    print(f"{key}: {entry['median']:.1f} "
          f"(iqr/median {entry['spread']['iqr_over_median']:.3f})")
PY

echo "Wrote ${extract_json}"

# Equal-recall ANN harness: the vamana graph backend and the p-stable LSH
# baseline against the exact S3 range query on the same 200k-record
# corpus, the beam width swept until each target recall is matched and
# LSH over a grid of (tables, hashes, bucket width). The binary writes the JSON itself (sweep
# + operating points, with the scan kernel it ran on); the host
# fingerprint is merged into its "host" block afterwards.
if [[ ! -x "${build_dir}/bench/ann_equal_recall" ]]; then
  cmake --build "${build_dir}" --target ann_equal_recall -j"$(nproc)"
fi
"${build_dir}/bench/ann_equal_recall" --out "${ann_json}" >&2
python3 - "${ann_json}" <<'PY'
import json
import os
import sys

with open(sys.argv[1]) as f:
    ann = json.load(f)
ann["host"] = dict(json.loads(os.environ["S3VCD_BENCH_HOST"]), **ann["host"])
with open(sys.argv[1], "w") as f:
    json.dump(ann, f, indent=2)
    f.write("\n")
PY

echo "Wrote ${ann_json}"
