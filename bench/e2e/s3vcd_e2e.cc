// End-to-end CBCD benchmark program. Runs one workload, checks its outputs
// against the library's own reference paths, and prints every metric by
// name and unit. The last line of standard output is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 1 it holds the per-layer metrics of the traced pass,
// otherwise the end-to-end metrics of the untraced pass. See README.md.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "core/searcher.h"
#include "e2e.h"

namespace s3vcd::e2e {
namespace {

constexpr const char kWorkloads[] =
    "monitor_400k, monitor_20k, serve_1m, ingest_monitor";

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

std::string FirstLineValue(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const size_t begin = line.find_first_not_of(" \t", colon + 1);
        return begin == std::string::npos ? "" : line.substr(begin);
      }
    }
  }
  return "";
}

std::string IsaFlags() {
  std::istringstream flags(FirstLineValue("/proc/cpuinfo", "flags"));
  const std::string wanted[] = {"sse2",    "sse4_2",   "avx",
                                "avx2",    "fma",      "avx512f",
                                "avx512bw", "avx512_vnni"};
  std::string present;
  std::string flag;
  while (flags >> flag) {
    for (const std::string& w : wanted) {
      if (flag == w) {
        present += (present.empty() ? "" : " ") + flag;
      }
    }
  }
  return present;
}

std::string Governor() {
  std::ifstream in("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
  std::string governor;
  return (in >> governor) ? governor : "unreadable";
}

void PrintProvenance(const RunOptions& options, const std::string& commit) {
  std::printf(
      "# provenance {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"smoke\": %s, \"nproc\": %u, \"cpu_model\": %s, "
      "\"isa\": %s, \"scan_kernel\": %s, \"governor\": %s, \"commit\": %s, "
      "\"build_type\": %s}\n",
      JsonString(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds,
      options.traced ? 1 : 0, options.smoke ? "true" : "false",
      std::thread::hardware_concurrency(),
      JsonString(FirstLineValue("/proc/cpuinfo", "model name")).c_str(),
      JsonString(IsaFlags()).c_str(),
      JsonString(core::ActiveScanKernelName()).c_str(),
      JsonString(Governor()).c_str(), JsonString(commit).c_str(),
      JsonString(S3VCD_E2E_BUILD_TYPE).c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: s3vcd_e2e --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--smoke] [--work-dir DIR] [--trace-out FILE] "
               "[--commit ID]\nworkloads: %s\n",
               kWorkloads);
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions options;
  options.work_dir = ".";
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--smoke") {
      options.smoke = true;
    } else if (!has_value) {
      return Usage();
    } else if (flag == "--workload") {
      options.workload = argv[++i];
    } else if (flag == "--seed") {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(argv[++i]);
    } else if (flag == "--trace") {
      options.traced = std::string(argv[++i]) == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = argv[++i];
    } else if (flag == "--trace-out") {
      options.trace_out = argv[++i];
    } else if (flag == "--commit") {
      commit = argv[++i];
    } else {
      return Usage();
    }
  }
  if (!(options.seconds > 0)) {
    return Usage();
  }
  RunReport report;
  if (options.workload == "serve_1m") {
    report = RunServeWorkload(options);
  } else if (options.workload == "monitor_400k" ||
             options.workload == "monitor_20k" ||
             options.workload == "ingest_monitor") {
    report = RunMonitorWorkload(options);
  } else {
    return Usage();
  }

  const std::vector<Metric>& metrics =
      options.traced ? report.per_layer : report.end_to_end;
  for (const std::vector<Metric>* list : {&report.end_to_end, &report.per_layer}) {
    for (const Metric& m : *list) {
      report.Check(std::isfinite(m.value), m.name + " is not finite");
      std::printf("%-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  for (const std::string& v : report.violations) {
    std::printf("CHECK FAILED: %s\n", v.c_str());
  }
  PrintProvenance(options, commit);
  const bool correct = report.violations.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s%s: {\"value\": %.17g, \"unit\": %s}", i == 0 ? "" : ", ",
                JsonString(metrics[i].name).c_str(),
                std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                JsonString(metrics[i].unit).c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace s3vcd::e2e

int main(int argc, char** argv) { return s3vcd::e2e::Main(argc, argv); }
