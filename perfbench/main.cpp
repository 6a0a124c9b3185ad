// swc_perfbench: runs one benchmark workload at one seed and prints every
// metric by name with its unit. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status is 0 only when every output check passed.
//
//   swc_perfbench --workload <serve_tiles|batch_large_window|hw_sim>
//                 --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"
#include "simd/batch_kernels.hpp"
#include "workloads.hpp"

namespace {

struct Named {
  const char* name;
  const char* unit;
};

// The end-to-end metrics every untraced run reports (BENCHMARK.json).
// Workloads also measure latency_p99_ms; it is printed but not reported,
// because serve_tiles' tail on a VM follows the host's stalls (see
// README.md).
constexpr Named kEndToEnd[] = {
    {"max_rate_fps", "frames/s"}, {"latency_p50_ms", "ms"}, {"mpx_per_s", "Mpx/s"},
    {"cpu_s_per_mpx", "s/Mpx"},   {"setup_s", "s"},         {"peak_rss_mb", "MB"},
    {"bram_saving_pct", "%"},     {"mse", "gray2"},         {"sim_cycles_per_px", "cycles/px"},
};

// The per-layer metrics every traced run reports; a layer a workload does
// not exercise reads 0 there.
constexpr Named kPerLayer[] = {
    {"serve.wire_ms.p50", "ms"},
    {"serve.wire_ms.p99", "ms"},
    {"serve.server_ms.p50", "ms"},
    {"serve.server_ms.p99", "ms"},
    {"serve.hello_ms", "ms"},
    {"serve.read_pauses", "count"},
    {"serve.parked_frames_max", "frames"},
    {"serve.rejected_busy", "frames"},
    {"serve.gen_late_ms.p99", "ms"},
    {"runtime.queue_wait_ms.p50", "ms"},
    {"runtime.queue_wait_ms.p99", "ms"},
    {"runtime.worker_util", "ratio"},
    {"runtime.steals", "count"},
    {"runtime.parks", "count"},
    {"runtime.arena_reuse_ratio", "ratio"},
    {"core.frame_ms.p50", "ms"},
    {"core.self_ms.p50", "ms"},
    {"codec.haar.ns_per_column", "ns"},
    {"codec.legall53.ns_per_column", "ns"},
    {"codec.microshift.ns_per_column", "ns"},
    {"codec.share", "ratio"},
    {"codec.columns", "count"},
    {"codec.payload_bits", "bits"},
    {"codec.management_bits", "bits"},
    {"wavelet.decompose_ms", "ms"},
    {"bitpack.encode_ms", "ms"},
    {"bitpack.decode_ms", "ms"},
    {"wavelet.recompose_ms", "ms"},
    {"hw.ns_per_cycle", "ns"},
    {"hw.frame_ms.p50", "ms"},
    {"hw.cycles", "cycles"},
    {"hw.windows", "count"},
    {"hw.peak_buffer_bits", "bits"},
    {"hw.mem.port_writes", "count"},
    {"hw.mem.port_reads", "count"},
    {"hw.fifo_overflow_events", "count"},
    {"hw.fifo_underflow_events", "count"},
    {"hw.threshold_changes", "count"},
    {"bram.proposed_18k", "count"},
    {"bram.traditional_18k", "count"},
    {"telemetry.trace_overhead_pct", "%"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "swc_perfbench: %s\nusage: swc_perfbench --workload <serve_tiles|"
               "batch_large_window|hw_sim> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>] [--meta <k=v;...>]\n",
               why);
  std::exit(2);
}

// Timings from unoptimized or instrumented code are refused outright.
const char* build_refusal() {
#ifndef NDEBUG
  return "assertions are enabled (Debug build)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "a sanitizer is compiled in";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer) || __has_feature(memory_sanitizer)
  return "a sanitizer is compiled in";
#endif
#endif
  return nullptr;
}

std::string cpu_model() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  char line[512];
  std::string model = "unknown";
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "model name", 10) == 0) {
      const char* colon = std::strchr(line, ':');
      if (colon != nullptr) {
        model = colon + 1;
        while (!model.empty() && (model.front() == ' ')) model.erase(model.begin());
        while (!model.empty() && (model.back() == '\n' || model.back() == ' ')) model.pop_back();
      }
      break;
    }
  }
  std::fclose(f);
  return model;
}

void print_table(const char* title, const perfbench::Result& result) {
  std::printf("%s\n", title);
  for (const auto& [name, metric] : result.metrics) {
    std::printf("  %-32s %16.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  std::string meta;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
      have_seconds = true;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      opts.trace = value == "1";
      have_trace = true;
    } else if (arg == "--trace-out") {
      opts.trace_path = value;
    } else if (arg == "--meta") {
      meta = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace || opts.workload.empty()) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (!(opts.seconds >= 1.0 && opts.seconds <= 120.0)) usage("--seconds must be in [1, 120]");
  if (const char* why = build_refusal()) {
    std::fprintf(stderr, "swc_perfbench: refusing to report: %s\n", why);
    return 3;
  }

#if defined(__clang__)
  const char* compiler = "clang";
#elif defined(__GNUC__)
  const char* compiler = "gcc";
#else
  const char* compiler = "unknown";
#endif
  std::printf("meta: workload=%s seed=%llu seconds=%g trace=%d nproc=%u cpu=\"%s\" "
              "compiler=\"%s %s\" build=%s simd=%s %s\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? 1 : 0, std::thread::hardware_concurrency(), cpu_model().c_str(),
              compiler, __VERSION__, PERFBENCH_BUILD_TYPE, swc::simd::active_name(),
              meta.c_str());
  std::fflush(stdout);

  perfbench::Result result;
  try {
    if (opts.workload == "serve_tiles") {
      perfbench::run_serve_tiles(opts, result);
    } else if (opts.workload == "batch_large_window") {
      perfbench::run_batch_large_window(opts, result);
    } else if (opts.workload == "hw_sim") {
      perfbench::run_hw_sim(opts, result);
    } else {
      usage(("unknown workload " + opts.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "swc_perfbench: %s failed: %s\n", opts.workload.c_str(), e.what());
    return 1;
  }

  // Every run reports exactly the metric set of its mode.
  perfbench::Result report;
  report.correct = result.correct;
  report.attempted = result.attempted;
  report.failed = result.failed;
  if (opts.trace) {
    for (const auto& m : kPerLayer) {
      const auto it = result.metrics.find(m.name);
      report.set(m.name, it == result.metrics.end() ? 0.0 : it->second.value, m.unit);
    }
  } else {
    for (const auto& m : kEndToEnd) {
      const auto it = result.metrics.find(m.name);
      if (it == result.metrics.end()) {
        std::fprintf(stderr, "swc_perfbench: %s did not measure %s\n", opts.workload.c_str(),
                     m.name);
        return 1;
      }
      report.set(m.name, it->second.value, m.unit);
    }
  }
  for (const auto& [name, metric] : report.metrics) {
    if (!std::isfinite(metric.value)) {
      std::fprintf(stderr, "swc_perfbench: %s is not finite\n", name.c_str());
      return 1;
    }
  }

  print_table(opts.trace ? "per-layer metrics (traced run)" : "end-to-end metrics", report);
  for (const auto& [name, metric] : result.metrics) {
    if (report.metrics.count(name) == 0) {
      std::printf("  %-32s %16.6g %s (printed, not reported)\n", name.c_str(), metric.value,
                  metric.unit.c_str());
    }
  }
  const double failed_frac = result.attempted == 0
                                 ? 1.0
                                 : static_cast<double>(result.failed) /
                                       static_cast<double>(result.attempted);
  std::printf("  %-32s %16.6g fraction (%llu of %llu frames)\n", "failed_frac", failed_frac,
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  for (const auto& e : result.errors) std::printf("CHECK FAILED: %s\n", e.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", name.c_str(),
                metric.value, metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return report.correct && result.attempted > 0 ? 0 : 1;
}
