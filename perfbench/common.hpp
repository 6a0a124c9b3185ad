#pragma once
// Shared pieces of the end-to-end benchmark: run options, the result record
// every workload fills, clocks and resource probes, order statistics, and
// the seeded synthetic video the workloads feed to the program.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "image/image.hpp"
#include "runtime/stats.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {

namespace trace {
struct Span;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  // Chrome trace-event JSON written by traced runs
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

// What one run reports. `failed` counts frames failed, rejected, unanswered
// or failing an output check; `correct` is false on any output-check
// failure (the process then exits non-zero).
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> errors;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      errors.push_back(what);
    }
  }
};

// A workload's deterministic metrics, over its fixed unit of work: every
// distinct (stream, frame) pair exactly once, so they repeat exactly at a
// seed whatever the host's speed.
struct FixedUnit {
  std::uint64_t columns = 0;
  std::uint64_t payload_bits = 0;
  std::uint64_t management_bits = 0;
  std::size_t proposed_brams = 0;
  std::size_t traditional_brams = 0;
  std::vector<double> lossy_mse;  // MSE(output, input) of each lossy frame

  bool operator==(const FixedUnit&) const = default;

  // Provisions one stream's BRAM18K for both architectures, the proposed
  // one at the stream's observed worst packed stream bits (Eq. 5).
  void add_stream(const swc::core::SlidingWindowSpec& spec, std::size_t worst_stream_bits);
  // Untraced runs: bram_saving_pct and mse. Traced runs: the codec.* counts
  // and bram.* allocations.
  void report(Result& result, bool per_layer) const;
};

// Per-layer reports shared by the workloads that run the functional engine:
// the runtime's FrameServer::stats() (runtime.*), and the per-frame stage
// split of the engine.stage.* timers folded over `frames` frames
// (wavelet.*, bitpack.*).
void report_runtime_stats(const swc::runtime::RuntimeStatsSnapshot& stats, Result& result);
void report_stage_split(const swc::telemetry::Snapshot& metrics, std::size_t frames,
                        Result& result);

// Set-up is repeated this many times per run and reported as the median.
inline constexpr int kSetupRepeats = 5;

[[nodiscard]] std::uint64_t now_ns();
// CPU time (user + sys) of the whole process / of the calling thread.
[[nodiscard]] double process_cpu_s();
[[nodiscard]] double thread_cpu_s();
[[nodiscard]] double peak_rss_mb();

// Whole-machine CPU ticks from /proc/stat, for the share the hypervisor
// stole between two readings (0 where the file is unavailable).
struct HostTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
[[nodiscard]] HostTicks host_ticks();
[[nodiscard]] double steal_share(const HostTicks& before, const HostTicks& after);

// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
// Arithmetic mean; 0 for an empty sample.
[[nodiscard]] double mean(const std::vector<double>& values);

// A seeded natural-image video: a `width` x `height` view panning across a
// larger value-noise scene at a seed-chosen velocity of 1..`max_step`
// pixels per frame on each axis, with seeded per-frame sensor grain of
// +-`grain` gray levels. Same seed, same frames.
[[nodiscard]] std::vector<swc::image::ImageU8> make_sequence(std::size_t width,
                                                             std::size_t height,
                                                             std::size_t frames,
                                                             std::uint64_t seed, int grain,
                                                             std::size_t max_step);

// Steps the cycle-accurate hw::CompressedPipeline over `img` (geometry from
// `config`) and returns the cycles it took. Checks one cycle per pixel, no
// FIFO underflow, and, when the threshold is 0, that every window equals
// the traditional line-buffer pipeline's.
std::size_t simulate_cycles(const swc::image::ImageU8& img, const swc::core::EngineConfig& config,
                            Result& result);

// One frame through a bare hw::CompressedPipeline (payload FIFOs of
// `capacity_bits` per stream, 0 = unbounded), stepped row by row: a
// "hw.row_step" span per image row under a "hw.pipeline_frame" span on
// (`track`, `frame`) when tracing is on. Returns the pipeline's hw.*
// telemetry and its peak buffered bits.
struct HwFrame {
  swc::telemetry::Snapshot telemetry;
  std::size_t peak_buffer_bits = 0;
};
HwFrame step_pipeline(const swc::image::ImageU8& img, const swc::core::EngineConfig& config,
                      std::size_t capacity_bits, std::uint32_t track, std::uint64_t frame);

// The hw.* per-layer metrics over a set of step_pipeline frames and the
// spans they recorded: host ns per simulated cycle, median frame time, and
// the exact counts. `threshold_changes` comes from the caller.
void report_hw_layer(const std::vector<HwFrame>& frames, const std::vector<trace::Span>& spans,
                     std::uint64_t threshold_changes, Result& result);

}  // namespace perfbench
