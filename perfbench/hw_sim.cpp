// hw_sim: the cycle-accurate hw::VideoPipeline over a seeded 256x256 video
// at window 32. The hw model has its own IWT, bitpack and memory units, so
// this workload exercises the hw layer alone: the functional codec, runtime
// and serve layers do no work here.
//
// The per-stream FIFO capacity is provisioned below what the sequence's
// random ("bad") frames need at threshold 0, so the adaptive threshold and
// the overflow paths run beside steady natural frames. One pass processes
// the whole sequence through a fresh VideoPipeline; every pass must report
// identically.
//
// One simulation runs per CPU, each on its own thread. A single simulation
// thread's speed on the machine the benchmark was written on switched
// between two levels about 1.5x apart for seconds to minutes at a time, on
// identical code; independent simulations on every CPU average those states
// the way the multi-worker batch workload does.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <thread>

#include "common.hpp"
#include "core/adaptive_threshold.hpp"
#include "hw/compressed_pipeline.hpp"
#include "hw/traditional_pipeline.hpp"
#include "hw/video_pipeline.hpp"
#include "image/metrics.hpp"
#include "image/synthetic.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using swc::image::ImageU8;

constexpr std::size_t kWidth = 256;
constexpr std::size_t kHeight = 256;
constexpr std::size_t kWindow = 32;
constexpr std::size_t kFrames = 10;
constexpr double kPixelsPerPass = static_cast<double>(kFrames * kWidth * kHeight);
// Frames replaced by uniform random pixels, the paper's "bad frame" case.
constexpr std::size_t kBadFrames[] = {4, 5};
// Per-stream payload FIFO capacity: above what the natural frames need at
// threshold 0 (about 1580 bits), below what the random frames need (2048)
// and below the design-time lossless bound, (256 - 32) columns x 8 bits.
constexpr std::size_t kCapacityBitsPerStream = 1664;
// Span track of the traced per-row replay (simulation threads use 0..n-1).
constexpr std::uint32_t kReplayTrack = 1000;

swc::core::EngineConfig base_config() {
  swc::core::EngineConfig config;
  config.spec = {kWidth, kHeight, kWindow};
  config.codec.threshold = 0;
  return config;
}

swc::core::AdaptiveThresholdConfig adaptive_config() {
  swc::core::AdaptiveThresholdConfig adaptive;
  // The controller steers on peak total buffered bits (payload plus
  // management); its budget is the provisioned payload capacity of all
  // window-row streams plus the management tables.
  adaptive.budget_bits = kCapacityBitsPerStream * kWindow + base_config().spec.management_bits();
  adaptive.max_threshold = 32;
  return adaptive;
}

std::vector<ImageU8> make_inputs(std::uint64_t seed) {
  auto seq = make_sequence(kWidth, kHeight, kFrames, seed, 2, 3);
  for (const std::size_t f : kBadFrames) {
    seq[f] = swc::image::make_random_image(kWidth, kHeight, seed * 1000 + f);
  }
  return seq;
}

struct Pass {
  std::vector<swc::hw::FrameReport> reports;
  std::vector<double> frame_ms;
};

// One simulation thread's passes.
struct Sim {
  std::vector<Pass> passes;
  double seconds = 0.0;

  [[nodiscard]] double frames_per_s() const {
    return static_cast<double>(passes.size() * kFrames) / seconds;
  }
};

bool same_reports(const std::vector<swc::hw::FrameReport>& a,
                  const std::vector<swc::hw::FrameReport>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].threshold != b[i].threshold || a[i].peak_buffer_bits != b[i].peak_buffer_bits ||
        a[i].fifo_overflow_events != b[i].fifo_overflow_events ||
        a[i].fifo_underflow_events != b[i].fifo_underflow_events ||
        a[i].windows != b[i].windows || a[i].cycles != b[i].cycles) {
      return false;
    }
  }
  return true;
}

// Passes through fresh VideoPipelines until `seconds` have elapsed (at
// least two), timing each process_frame call.
Sim simulate(const std::vector<ImageU8>& seq, double seconds, std::uint32_t track) {
  Sim sim;
  std::uint64_t ordinal = 0;
  const std::uint64_t start = now_ns();
  const std::uint64_t deadline = start + static_cast<std::uint64_t>(seconds * 1e9);
  while (sim.passes.size() < 2 || now_ns() < deadline) {
    Pass pass;
    swc::hw::VideoPipeline video(base_config(), adaptive_config(), kCapacityBitsPerStream);
    for (const ImageU8& frame : seq) {
      const std::uint64_t begin = now_ns();
      pass.reports.push_back(video.process_frame(frame));
      const std::uint64_t end = now_ns();
      trace::record("hw.process_frame", track, ordinal++, begin, end, false);
      pass.frame_ms.push_back(static_cast<double>(end - begin) / 1e6);
    }
    sim.passes.push_back(std::move(pass));
  }
  sim.seconds = static_cast<double>(now_ns() - start) / 1e9;
  return sim;
}

std::size_t simulation_threads() { return std::max(1u, std::thread::hardware_concurrency()); }

// One simulation per CPU, in parallel.
std::vector<Sim> simulate_all(const std::vector<ImageU8>& seq, double seconds) {
  std::vector<Sim> sims(simulation_threads());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < sims.size(); ++t) {
    threads.emplace_back([&sims, &seq, seconds, t] {
      sims[t] = simulate(seq, seconds, static_cast<std::uint32_t>(t));
    });
  }
  for (auto& th : threads) th.join();
  return sims;
}

// Simulated pixels per host second, summed over the simulation threads.
double mpx_per_s(const std::vector<Sim>& sims) {
  double rate = 0.0;
  for (const Sim& s : sims) rate += s.frames_per_s() * kPixelsPerPass / kFrames / 1e6;
  return rate;
}

// Re-simulates one frame on a bare CompressedPipeline at the threshold the
// VideoPipeline chose, assembling the output image from the window's top
// row (each image row's final value as it leaves the buffer). At threshold
// 0 a TraditionalPipeline steps in lockstep and every window must match.
struct Replay {
  ImageU8 output;
  std::size_t cycles = 0;
  std::size_t peak_buffer_bits = 0;
  std::size_t overflow_events = 0;
  std::size_t underflow_events = 0;
  std::size_t stream_high_water_bits = 0;
  bool windows_match = true;
};

Replay replay_frame(const ImageU8& frame, int threshold) {
  swc::core::EngineConfig config = base_config();
  config.codec.threshold = threshold;
  swc::hw::CompressedPipeline pipe(config, kCapacityBitsPerStream);
  std::optional<swc::hw::TraditionalPipeline> reference;
  if (threshold == 0) reference.emplace(config.spec);
  Replay out;
  out.output = ImageU8(kWidth, kHeight);
  for (const std::uint8_t px : frame.pixels()) {
    const bool valid = pipe.step(px);
    if (reference) {
      const bool ref_valid = reference->step(px);
      if (ref_valid != valid) {
        out.windows_match = false;
      } else if (valid) {
        for (std::size_t wy = 0; wy < kWindow; ++wy) {
          if (std::memcmp(pipe.window().row(wy), reference->window().row(wy), kWindow) != 0) {
            out.windows_match = false;
          }
        }
      }
    }
    if (!valid) continue;
    const std::size_t r = pipe.out_row();
    const std::size_t c = pipe.out_col();
    const std::size_t last_rows = r + kWindow == kHeight ? kWindow : 1;
    for (std::size_t wy = 0; wy < last_rows; ++wy) {
      const std::uint8_t* row = pipe.window().row(wy);
      if (c == 0) {
        std::copy(row, row + kWindow, out.output.row(r + wy).begin());
      } else {
        out.output.at(c + kWindow - 1, r + wy) = row[kWindow - 1];
      }
    }
  }
  out.cycles = pipe.cycles();
  out.peak_buffer_bits = pipe.peak_buffer_bits();
  out.overflow_events = pipe.memory().overflow_events();
  out.underflow_events = pipe.memory().underflow_events();
  out.stream_high_water_bits = pipe.memory().max_stream_high_water_bits();
  return out;
}

void check_passes(const std::vector<Sim>& sims, const std::vector<swc::hw::FrameReport>& reference,
                  Result& result) {
  for (const Sim& s : sims) {
    for (const Pass& p : s.passes) {
      result.check(same_reports(p.reports, reference), "passes of one run reported differently");
    }
    result.attempted += s.passes.size() * kFrames;
  }
}

}  // namespace

void run_hw_sim(const Options& opts, Result& result) {
  const std::vector<ImageU8> seq = make_inputs(opts.seed);

  // Set-up: a pipeline per simulation thread, each with one warm-up frame.
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::uint64_t begin = now_ns();
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < simulation_threads(); ++t) {
      threads.emplace_back([&seq] {
        swc::hw::VideoPipeline warm(base_config(), adaptive_config(), kCapacityBitsPerStream);
        (void)warm.process_frame(seq[0]);
      });
    }
    for (auto& th : threads) th.join();
    setups.push_back(static_cast<double>(now_ns() - begin) / 1e9);
  }

  const double cpu0 = process_cpu_s();
  const std::vector<Sim> sims = simulate_all(seq, opts.trace ? opts.seconds / 2 : opts.seconds);
  const double cpu_s = process_cpu_s() - cpu0;
  const auto& reports = sims.front().passes.front().reports;
  check_passes(sims, reports, result);
  std::uint64_t threshold_changes = 0;
  for (std::size_t f = 1; f < kFrames; ++f) {
    if (reports[f].threshold != reports[f - 1].threshold) ++threshold_changes;
  }
  const auto config_at = [](int threshold) {
    swc::core::EngineConfig config = base_config();
    config.codec.threshold = threshold;
    return config;
  };

  if (opts.trace) {
    trace::clear();
    trace::enable(true);
    const std::vector<Sim> traced = simulate_all(seq, opts.seconds / 2);
    // Host time per simulated cycle: the sequence once more on bare
    // pipelines at the thresholds the video pipeline chose, row by row.
    std::vector<HwFrame> frames;
    for (std::size_t f = 0; f < kFrames; ++f) {
      frames.push_back(step_pipeline(seq[f], config_at(reports[f].threshold),
                                     kCapacityBitsPerStream, kReplayTrack, f));
    }
    trace::enable(false);
    check_passes(traced, reports, result);
    const double u = mpx_per_s(sims);
    result.set("telemetry.trace_overhead_pct", (u - mpx_per_s(traced)) / u * 100.0, "%");
    const auto spans = trace::take();
    (void)trace::report_spans(spans, opts.trace_path, result);
    report_hw_layer(frames, spans, threshold_changes, result);
  }

  // Output checks and the deterministic metrics, over one pass.
  const std::size_t windows_per_frame = (kWidth - kWindow + 1) * (kHeight - kWindow + 1);
  std::uint64_t cycles = 0;
  std::size_t worst_fitting_stream_bits = 0;
  FixedUnit unit;
  for (std::size_t f = 0; f < kFrames; ++f) {
    const auto& rep = reports[f];
    const Replay replay = replay_frame(seq[f], rep.threshold);
    std::printf("  frame %2zu threshold %2d peak_bits %7zu stream_bits %5zu overflow_events %7zu\n",
                f, rep.threshold, rep.peak_buffer_bits, replay.stream_high_water_bits,
                rep.fifo_overflow_events);
    bool ok = rep.cycles == kWidth * kHeight && rep.fifo_underflow_events == 0 &&
              rep.windows == windows_per_frame;
    ok = ok && replay.cycles == rep.cycles && replay.peak_buffer_bits == rep.peak_buffer_bits &&
         replay.overflow_events == rep.fifo_overflow_events &&
         replay.underflow_events == rep.fifo_underflow_events;
    if (rep.threshold == 0) {
      ok = ok && replay.windows_match && replay.output == seq[f];
    } else {
      unit.lossy_mse.push_back(swc::image::mse(seq[f], replay.output));
    }
    result.check(ok, "hw frame " + std::to_string(f) + " failed its output checks");
    if (!ok) ++result.failed;
    cycles += rep.cycles;
    // Overflowing frames are what the provisioned capacity does not cover.
    if (rep.fifo_overflow_events == 0) {
      worst_fitting_stream_bits = std::max(worst_fitting_stream_bits, replay.stream_high_water_bits);
    }
  }
  result.check(!unit.lossy_mse.empty(), "no frame of the sequence ran lossy");
  unit.add_stream({kWidth, kHeight, kWindow}, worst_fitting_stream_bits);
  unit.report(result, opts.trace);
  if (opts.trace) return;

  // Per-simulation percentiles averaged over the simulations: each thread
  // can sit in a different host speed state, and a pooled median would jump
  // with whichever state held most threads.
  std::vector<double> p50, p99;
  std::size_t samples = 0;
  double fps = 0.0;
  for (const Sim& s : sims) {
    fps += s.frames_per_s();
    std::vector<double> frame_ms;
    for (const Pass& p : s.passes) frame_ms.insert(frame_ms.end(), p.frame_ms.begin(), p.frame_ms.end());
    p50.push_back(quantile(frame_ms, 0.50));
    p99.push_back(quantile(frame_ms, 0.99));
    samples += frame_ms.size();
  }
  result.set("max_rate_fps", fps, "frames/s");
  result.set("latency_p50_ms", mean(p50), "ms");
  result.set("latency_p99_ms", mean(p99), "ms");
  result.set("mpx_per_s", mpx_per_s(sims), "Mpx/s");
  result.set("cpu_s_per_mpx", cpu_s / (static_cast<double>(result.attempted) * kPixelsPerPass /
                                       kFrames / 1e6),
             "s/Mpx");
  result.set("setup_s", median(setups), "s");
  result.set("peak_rss_mb", peak_rss_mb(), "MB");
  result.set("sim_cycles_per_px", static_cast<double>(cycles) / kPixelsPerPass, "cycles/px");
  std::printf("  hw_sim: %zu simulation threads, %zu frame samples\n", sims.size(), samples);
}

}  // namespace perfbench
