#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <optional>
#include <string_view>

#include "bram/allocator.hpp"
#include "core/streaming_engine.hpp"
#include "hw/compressed_pipeline.hpp"
#include "hw/hw_metrics.hpp"
#include "hw/traditional_pipeline.hpp"
#include "image/rng.hpp"
#include "image/synthetic.hpp"
#include "trace.hpp"

namespace perfbench {

void FixedUnit::add_stream(const swc::core::SlidingWindowSpec& spec,
                           std::size_t worst_stream_bits) {
  proposed_brams += swc::bram::allocate_proposed(spec, worst_stream_bits).total_brams();
  traditional_brams += swc::bram::allocate_traditional(spec).total_brams;
}

void FixedUnit::report(Result& result, bool per_layer) const {
  if (per_layer) {
    result.set("codec.columns", static_cast<double>(columns), "count");
    result.set("codec.payload_bits", static_cast<double>(payload_bits), "bits");
    result.set("codec.management_bits", static_cast<double>(management_bits), "bits");
    result.set("bram.proposed_18k", static_cast<double>(proposed_brams), "count");
    result.set("bram.traditional_18k", static_cast<double>(traditional_brams), "count");
    return;
  }
  result.set("bram_saving_pct",
             100.0 * (1.0 - static_cast<double>(proposed_brams) /
                                static_cast<double>(traditional_brams)),
             "%");
  result.set("mse", mean(lossy_mse), "gray2");
}

void report_runtime_stats(const swc::runtime::RuntimeStatsSnapshot& stats, Result& result) {
  const auto& ids = swc::runtime::RuntimeMetricIds::get();
  const auto allocs = static_cast<double>(stats.metrics.sum(ids.arena_allocs));
  const auto reuses = static_cast<double>(stats.metrics.sum(ids.arena_reuses));
  result.set("runtime.worker_util", stats.mean_worker_utilization(), "ratio");
  result.set("runtime.steals", static_cast<double>(stats.total_steals()), "count");
  result.set("runtime.parks", static_cast<double>(stats.total_parks()), "count");
  result.set("runtime.arena_reuse_ratio",
             allocs + reuses > 0.0 ? reuses / (allocs + reuses) : 0.0, "ratio");
}

void report_stage_split(const swc::telemetry::Snapshot& metrics, std::size_t frames,
                        Result& result) {
  const auto& ids = swc::core::EngineMetricIds::get();
  const auto per_frame_ms = [&](swc::telemetry::MetricId id) {
    return frames == 0 ? 0.0
                       : static_cast<double>(metrics.sum(id)) / 1e6 / static_cast<double>(frames);
  };
  result.set("wavelet.decompose_ms", per_frame_ms(ids.stage_decompose), "ms");
  result.set("bitpack.encode_ms", per_frame_ms(ids.stage_encode), "ms");
  result.set("bitpack.decode_ms", per_frame_ms(ids.stage_decode), "ms");
  result.set("wavelet.recompose_ms", per_frame_ms(ids.stage_recompose), "ms");
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// VmHWM, not getrusage's ru_maxrss: the latter survives execve, so under a
// launcher it would report the launcher's peak when that is larger.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

HostTicks host_ticks() {
  HostTicks ticks;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return ticks;
  // cpu  user nice system idle iowait irq softirq steal ...
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2], &v[3],
                  &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (const unsigned long long x : v) ticks.total += x;
    ticks.steal = v[7];
  }
  std::fclose(f);
  return ticks;
}

double steal_share(const HostTicks& before, const HostTicks& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

std::vector<swc::image::ImageU8> make_sequence(std::size_t width, std::size_t height,
                                               std::size_t frames, std::uint64_t seed,
                                               int grain, std::size_t max_step) {
  using swc::image::ImageU8;
  swc::image::SplitMix64 rng(seed * 0x9E3779B97F4A7C15ull + 0x5EEDull);
  // Pan velocity in whole pixels per frame, max_step/2..max_step on each
  // axis with a random sign.
  const std::size_t min_step = std::max<std::size_t>(1, max_step / 2);
  const auto velocity = [&rng, min_step, max_step] {
    const auto v = static_cast<std::ptrdiff_t>(min_step + rng.next_below(max_step - min_step + 1));
    return (rng.next() & 1u) != 0 ? v : -v;
  };
  const std::ptrdiff_t vx = velocity();
  const std::ptrdiff_t vy = velocity();
  const std::size_t margin = max_step * frames + 1;
  const ImageU8 scene = swc::image::make_natural_image(width + 2 * margin, height + 2 * margin,
                                                       {.seed = rng.next()});
  std::vector<ImageU8> out;
  out.reserve(frames);
  for (std::size_t f = 0; f < frames; ++f) {
    const auto step = static_cast<std::ptrdiff_t>(f);
    const auto x0 = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(margin) + vx * step);
    const auto y0 = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(margin) + vy * step);
    ImageU8 frame(width, height);
    for (std::size_t y = 0; y < height; ++y) {
      for (std::size_t x = 0; x < width; ++x) {
        int v = scene.at(x0 + x, y0 + y);
        if (grain > 0) {
          v += static_cast<int>(rng.next_below(static_cast<std::uint64_t>(2 * grain + 1))) - grain;
        }
        frame.at(x, y) = static_cast<std::uint8_t>(std::clamp(v, 0, 255));
      }
    }
    out.push_back(std::move(frame));
  }
  return out;
}

std::size_t simulate_cycles(const swc::image::ImageU8& img, const swc::core::EngineConfig& config,
                            Result& result) {
  const std::size_t n = config.spec.window;
  swc::hw::CompressedPipeline pipe(config);
  std::optional<swc::hw::TraditionalPipeline> reference;
  if (config.codec.threshold == 0) reference.emplace(config.spec);
  bool match = true;
  for (const std::uint8_t px : img.pixels()) {
    const bool valid = pipe.step(px);
    if (!reference) continue;
    if (reference->step(px) != valid) {
      match = false;
    } else if (valid) {
      for (std::size_t wy = 0; wy < n; ++wy) {
        match = match && std::memcmp(pipe.window().row(wy), reference->window().row(wy), n) == 0;
      }
    }
  }
  result.check(match, "cycle model diverged from the traditional pipeline at threshold 0");
  result.check(pipe.cycles() == img.size(), "cycle model took other than one cycle per pixel");
  result.check(pipe.memory().underflow_events() == 0, "cycle model FIFO underflow");
  return pipe.cycles();
}

HwFrame step_pipeline(const swc::image::ImageU8& img, const swc::core::EngineConfig& config,
                      std::size_t capacity_bits, std::uint32_t track, std::uint64_t frame) {
  swc::hw::CompressedPipeline pipe(config, capacity_bits);
  const std::uint64_t frame_begin = now_ns();
  for (std::size_t y = 0; y < img.height(); ++y) {
    const std::uint64_t begin = now_ns();
    for (const std::uint8_t px : img.row(y)) (void)pipe.step(px);
    trace::record("hw.row_step", track, frame, begin, now_ns(), true);
  }
  trace::record("hw.pipeline_frame", track, frame, frame_begin, now_ns(), false);
  return {pipe.telemetry(), pipe.peak_buffer_bits()};
}

void report_hw_layer(const std::vector<HwFrame>& frames, const std::vector<trace::Span>& spans,
                     std::uint64_t threshold_changes, Result& result) {
  const auto& ids = swc::hw::HwMetricIds::get();
  swc::telemetry::Snapshot total;
  std::size_t peak = 0;
  for (const HwFrame& f : frames) {
    total.merge(f.telemetry);
    peak = std::max(peak, f.peak_buffer_bits);
  }
  std::uint64_t row_ns = 0;
  std::vector<double> frame_ms;
  for (const trace::Span& s : spans) {
    const std::string_view name = s.name;
    if (name == "hw.row_step") row_ns += s.end_ns - s.begin_ns;
    if (name == "hw.pipeline_frame") frame_ms.push_back(static_cast<double>(s.end_ns - s.begin_ns) / 1e6);
  }
  const auto cycles = static_cast<double>(total.sum(ids.cycles));
  result.set("hw.ns_per_cycle", cycles > 0.0 ? static_cast<double>(row_ns) / cycles : 0.0, "ns");
  result.set("hw.frame_ms.p50", median(frame_ms), "ms");
  result.set("hw.cycles", cycles, "cycles");
  result.set("hw.windows", static_cast<double>(total.sum(ids.windows)), "count");
  result.set("hw.peak_buffer_bits", static_cast<double>(peak), "bits");
  result.set("hw.mem.port_writes", static_cast<double>(total.sum(ids.port_writes)), "count");
  result.set("hw.mem.port_reads", static_cast<double>(total.sum(ids.port_reads)), "count");
  result.set("hw.fifo_overflow_events", static_cast<double>(total.sum(ids.fifo_overflows)),
             "count");
  result.set("hw.fifo_underflow_events", static_cast<double>(total.sum(ids.fifo_underflows)),
             "count");
  result.set("hw.threshold_changes", static_cast<double>(threshold_changes), "count");
}

}  // namespace perfbench
