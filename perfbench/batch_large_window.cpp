// batch_large_window: closed-loop offline processing of 512x512 frames
// through runtime::FrameServer with one worker per CPU and
// SubmitPolicy::Block; no serve layer. This is the paper's design-space
// use (large windows, Tables II/X, Fig. 13): the column codec is nearly all
// of every frame, so a codec change shows here at full strength.
//
// Four streams use the codec four different ways, so a fast path that helps
// one backend and slows another shows up here:
//   haar N=32 T=0 (lossless: output must equal input), haar N=64 T=2,
//   legall53 N=32 T=2, microshift N=64 T=2.
// Each stream keeps one frame in flight (closed loop): a slower program
// receives less load instead of building a queue.

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "common.hpp"
#include "core/streaming_engine.hpp"
#include "image/metrics.hpp"
#include "runtime/frame_server.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using swc::image::ImageU8;

constexpr std::size_t kSize = 512;
constexpr std::size_t kFrames = 6;  // distinct frames per stream, cycled
// Rows of frame 0 the cycle-accurate model re-simulates per haar stream.
constexpr std::size_t kSimRows = 128;

struct StreamSpec {
  const char* backend;
  std::size_t window;
  int threshold;
};
constexpr StreamSpec kStreams[] = {
    {"haar", 32, 0},
    {"haar", 64, 2},
    {"legall53", 32, 2},
    {"microshift", 64, 2},
};
constexpr std::size_t kNumStreams = std::size(kStreams);

swc::core::EngineConfig engine_config(const StreamSpec& s, const std::string& backend) {
  swc::core::EngineConfig config;
  config.spec = {kSize, kSize, s.window};
  config.codec.threshold = s.threshold;
  config.backend = backend;
  return config;
}

// One completed frame, as the benchmark received it.
struct Done {
  std::size_t stream = 0;
  std::size_t frame = 0;  // index into the input sequence
  std::uint64_t done_ns = 0;
  swc::runtime::FrameResult result;
};

// The runtime with its streams open and a completion queue the benchmark
// thread drains; one frame in flight per stream.
class Batch {
 public:
  Batch(const std::vector<ImageU8>& seq, bool traced) : seq_(seq) {
    swc::runtime::FrameServerOptions options;
    options.workers = std::max(1u, std::thread::hardware_concurrency());
    server_ = std::make_unique<swc::runtime::FrameServer>(options);
    for (std::size_t s = 0; s < kNumStreams; ++s) {
      const StreamSpec& spec = kStreams[s];
      const std::string backend =
          traced ? trace::traced_backend(spec.backend, static_cast<std::uint32_t>(s),
                                         kSize - spec.window)
                 : spec.backend;
      swc::runtime::StreamConfig config;
      config.name = std::string(spec.backend) + "-N" + std::to_string(spec.window);
      config.engine = engine_config(spec, backend);
      ids_.push_back(server_->open_stream(std::move(config)));
    }
    next_frame_.assign(kNumStreams, 0);
    ordinal_.assign(kNumStreams, 0);
  }

  Batch(const Batch&) = delete;
  Batch& operator=(const Batch&) = delete;

  void submit(std::size_t stream) {
    const std::size_t frame = next_frame_[stream]++ % kFrames;
    const std::uint64_t ordinal = ordinal_[stream]++;
    const std::uint64_t submit_ns = now_ns();
    auto on_done = [this, stream, frame, ordinal, submit_ns](swc::runtime::FrameResult r) {
      const std::uint64_t done_ns = now_ns();
      trace::record("runtime.frame", static_cast<std::uint32_t>(stream), ordinal, submit_ns,
                    done_ns, false);
      std::lock_guard<std::mutex> lock(mutex_);
      done_.push_back(Done{stream, frame, done_ns, std::move(r)});
      cv_.notify_one();
    };
    ++in_flight_;
    if (!server_->submit(ids_[stream], seq_[frame], swc::runtime::SubmitPolicy::Block,
                         std::move(on_done))) {
      --in_flight_;
      ++rejected_;
    }
  }

  Done wait_one() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return !done_.empty(); });
    Done d = std::move(done_.front());
    done_.pop_front();
    --in_flight_;
    return d;
  }

  // Warm-up: one frame per stream, completed.
  void warm_up() {
    for (std::size_t s = 0; s < kNumStreams; ++s) submit(s);
    while (in_flight_ > 0) (void)wait_one();
    std::fill(next_frame_.begin(), next_frame_.end(), 0);
    std::fill(ordinal_.begin(), ordinal_.end(), 0);
  }

  [[nodiscard]] std::size_t in_flight() const { return in_flight_; }
  [[nodiscard]] std::uint64_t rejected() const { return rejected_; }
  [[nodiscard]] swc::runtime::FrameServer& server() { return *server_; }

 private:
  const std::vector<ImageU8>& seq_;
  std::vector<std::uint32_t> ids_;
  std::vector<std::size_t> next_frame_;
  std::vector<std::uint64_t> ordinal_;
  std::size_t in_flight_ = 0;  // benchmark thread only
  std::uint64_t rejected_ = 0;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Done> done_;
  // Last: destroyed first, draining worker callbacks that use the members
  // above.
  std::unique_ptr<swc::runtime::FrameServer> server_;
};

// The first result of every (stream, frame) pair: the fixed unit of work
// the deterministic metrics are computed over.
struct Reference {
  std::size_t payload_bits = 0;
  std::size_t management_bits = 0;
  std::size_t columns = 0;
  std::size_t max_stream_bits = 0;
  ImageU8 output;
};
using References = std::map<std::pair<std::size_t, std::size_t>, Reference>;

Reference make_reference(const swc::core::RunStats& stats, ImageU8 output) {
  Reference ref;
  ref.payload_bits = stats.total_payload_bits();
  ref.management_bits = stats.total_management_bits();
  ref.columns = stats.codec_columns();
  ref.max_stream_bits = stats.max_stream_bits();
  ref.output = std::move(output);
  return ref;
}

struct Phase {
  std::vector<std::vector<double>> latency_ms = std::vector<std::vector<double>>(kNumStreams);
  std::uint64_t frames = 0;
  std::uint64_t pixels = 0;
  double seconds = 0.0;
  double cpu_s = 0.0;
  References refs;
  swc::telemetry::Snapshot metrics;  // engine.* over every completed frame
  swc::runtime::RuntimeStatsSnapshot runtime;
};

// Runs the closed loop for `seconds`, checking every completed frame.
Phase run_phase(Batch& batch, const std::vector<ImageU8>& seq, double seconds, Result& result) {
  Phase phase;
  const double cpu0 = process_cpu_s();
  const std::uint64_t start = now_ns();
  const std::uint64_t deadline = start + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t last_done = start;
  for (std::size_t s = 0; s < kNumStreams; ++s) batch.submit(s);
  while (batch.in_flight() > 0) {
    Done d = batch.wait_one();
    last_done = std::max(last_done, d.done_ns);
    ++phase.frames;
    phase.pixels += seq[d.frame].size();
    phase.latency_ms[d.stream].push_back(static_cast<double>(d.result.latency_ns) / 1e6);
    phase.metrics.merge(d.result.stats.metrics);
    const ImageU8& input = seq[d.frame];
    bool ok = d.result.reconstructed.width() == kSize && d.result.reconstructed.height() == kSize;
    if (ok && kStreams[d.stream].threshold == 0) ok = d.result.reconstructed == input;
    const auto key = std::make_pair(d.stream, d.frame);
    const auto it = phase.refs.find(key);
    if (ok && it != phase.refs.end()) {
      // Same frame, same config: the program must answer identically.
      ok = it->second.payload_bits == d.result.stats.total_payload_bits() &&
           it->second.output == d.result.reconstructed;
    } else if (ok) {
      phase.refs.emplace(key, make_reference(d.result.stats, std::move(d.result.reconstructed)));
    }
    if (!ok) {
      ++result.failed;
      result.check(false, "batch stream " + std::to_string(d.stream) + " frame " +
                              std::to_string(d.frame) + " failed its output check");
    }
    if (now_ns() < deadline) batch.submit(d.stream);
  }
  phase.seconds = static_cast<double>(last_done - start) / 1e9;
  phase.cpu_s = process_cpu_s() - cpu0;
  phase.runtime = batch.server().stats();
  result.attempted += phase.frames + batch.rejected();
  result.failed += batch.rejected();
  return phase;
}

// Completes the fixed unit: (stream, frame) pairs the timed loop never
// reached are run directly on the engine.
void complete_references(References& refs, const std::vector<ImageU8>& seq) {
  for (std::size_t s = 0; s < kNumStreams; ++s) {
    const swc::core::CompressedEngine engine(engine_config(kStreams[s], kStreams[s].backend));
    for (std::size_t f = 0; f < kFrames; ++f) {
      if (refs.count({s, f}) != 0) continue;
      auto run = engine.run_reentrant(seq[f], [](std::size_t, std::size_t,
                                                  const swc::core::WindowView&) {});
      refs.emplace(std::make_pair(s, f), make_reference(run.stats, std::move(run.reconstructed)));
    }
  }
}

FixedUnit fixed_unit(const References& refs, const std::vector<ImageU8>& seq) {
  FixedUnit u;
  for (std::size_t s = 0; s < kNumStreams; ++s) {
    std::size_t worst = 0;
    for (std::size_t f = 0; f < kFrames; ++f) {
      const Reference& ref = refs.at({s, f});
      u.columns += ref.columns;
      u.payload_bits += ref.payload_bits;
      u.management_bits += ref.management_bits;
      worst = std::max(worst, ref.max_stream_bits);
      if (kStreams[s].threshold > 0) u.lossy_mse.push_back(swc::image::mse(seq[f], ref.output));
    }
    u.add_stream({kSize, kSize, kStreams[s].window}, worst);
  }
  return u;
}

// The cycle-accurate model runs each haar stream's config (the hw model
// implements the haar datapath only) over the top rows of frame 0.
bool simulated(const StreamSpec& s) { return std::string(s.backend) == "haar"; }

ImageU8 simulated_rows(const ImageU8& frame) {
  return ImageU8(kSize, kSimRows,
                 std::vector<std::uint8_t>(frame.pixels().begin(),
                                           frame.pixels().begin() + kSize * kSimRows));
}

swc::core::EngineConfig simulated_config(const StreamSpec& s) {
  swc::core::EngineConfig config = engine_config(s, "haar");
  config.spec.image_height = kSimRows;
  return config;
}

double simulated_cycles_per_px(const std::vector<ImageU8>& seq, Result& result) {
  const ImageU8 top = simulated_rows(seq[0]);
  std::size_t cycles = 0;
  std::size_t pixels = 0;
  for (const StreamSpec& s : kStreams) {
    if (!simulated(s)) continue;
    cycles += simulate_cycles(top, simulated_config(s), result);
    pixels += top.size();
  }
  return static_cast<double>(cycles) / static_cast<double>(pixels);
}

// The hw layer's share of this workload, timed row by row for the traced
// run's hw.* metrics.
std::vector<HwFrame> hw_probe(const std::vector<ImageU8>& seq) {
  const ImageU8 top = simulated_rows(seq[0]);
  std::vector<HwFrame> frames;
  for (std::size_t s = 0; s < kNumStreams; ++s) {
    if (!simulated(kStreams[s])) continue;
    frames.push_back(
        step_pipeline(top, simulated_config(kStreams[s]), 0, static_cast<std::uint32_t>(200 + s), 0));
  }
  return frames;
}

// The core-layer probe: CompressedEngine::run_with_codec called directly on
// the benchmark thread, twice per stream config, on decorated backends.
void core_probe(const std::vector<ImageU8>& seq) {
  for (std::size_t s = 0; s < kNumStreams; ++s) {
    const StreamSpec& spec = kStreams[s];
    const auto track = static_cast<std::uint32_t>(100 + s);
    const swc::core::CompressedEngine engine(
        engine_config(spec, trace::traced_backend(spec.backend, track, kSize - spec.window)));
    for (std::size_t f = 0; f < 2; ++f) {
      const std::uint64_t begin = now_ns();
      (void)engine.run_with_codec(seq[f], engine.config().codec,
                                  [](std::size_t, std::size_t, const swc::core::WindowView&) {});
      trace::record("core.run_with_codec", track, f, begin, now_ns(), false);
    }
  }
}

}  // namespace

void run_batch_large_window(const Options& opts, Result& result) {
  const std::vector<ImageU8> seq = make_sequence(kSize, kSize, kFrames, opts.seed, 2, 3);

  if (!opts.trace) {
    std::vector<double> setups;
    std::unique_ptr<Batch> batch;
    for (int i = 0; i < kSetupRepeats; ++i) {
      batch.reset();
      const std::uint64_t begin = now_ns();
      batch = std::make_unique<Batch>(seq, false);
      batch->warm_up();
      setups.push_back(static_cast<double>(now_ns() - begin) / 1e9);
    }
    Phase phase = run_phase(*batch, seq, opts.seconds, result);
    batch.reset();
    complete_references(phase.refs, seq);
    const FixedUnit unit = fixed_unit(phase.refs, seq);
    const double mpx = static_cast<double>(phase.pixels) / 1e6;
    result.set("max_rate_fps", static_cast<double>(phase.frames) / phase.seconds, "frames/s");
    // Each stream's frames cost differently, so pooled percentiles would
    // move with the mix of frames the streams happened to complete; the
    // latency metrics are per-stream percentiles averaged over the streams.
    std::vector<double> p50, p99;
    std::size_t samples = phase.frames;
    for (const auto& lat : phase.latency_ms) {
      p50.push_back(quantile(lat, 0.50));
      p99.push_back(quantile(lat, 0.99));
      samples = std::min(samples, lat.size());
    }
    result.set("latency_p50_ms", mean(p50), "ms");
    result.set("latency_p99_ms", mean(p99), "ms");
    result.set("mpx_per_s", mpx / phase.seconds, "Mpx/s");
    result.set("cpu_s_per_mpx", phase.cpu_s / mpx, "s/Mpx");
    result.set("setup_s", median(setups), "s");
    result.set("peak_rss_mb", peak_rss_mb(), "MB");
    unit.report(result, false);
    result.set("sim_cycles_per_px", simulated_cycles_per_px(seq, result), "cycles/px");
    std::printf("  batch_large_window: %llu frames in %.2f s, per-stream p99 over >= %zu samples\n",
                static_cast<unsigned long long>(phase.frames), phase.seconds, samples);
    return;
  }

  // Traced run: an untraced half, then a traced half on decorated backends.
  Phase untraced;
  {
    Batch batch(seq, false);
    batch.warm_up();
    untraced = run_phase(batch, seq, opts.seconds / 2, result);
  }
  Phase traced;
  std::vector<trace::Span> spans;
  std::vector<HwFrame> hw_frames;
  {
    Batch batch(seq, true);
    batch.warm_up();
    trace::reset_frame_ordinals();
    trace::reset_codec_totals();
    trace::clear();
    trace::enable(true);
    traced = run_phase(batch, seq, opts.seconds / 2, result);
    core_probe(seq);
    hw_frames = hw_probe(seq);
    trace::enable(false);
    spans = trace::take();
  }
  complete_references(untraced.refs, seq);
  complete_references(traced.refs, seq);
  const FixedUnit unit = fixed_unit(untraced.refs, seq);
  result.check(unit == fixed_unit(traced.refs, seq),
               "traced run's counts differ from the untraced run's");

  // Queue wait: submit to the first codec call of the same frame.
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> first_codec;
  for (const auto& s : spans) {
    if (!s.child) continue;
    auto [it, fresh] = first_codec.emplace(std::make_pair(s.track, s.frame), s.begin_ns);
    if (!fresh) it->second = std::min(it->second, s.begin_ns);
  }
  std::vector<double> queue_wait_ms;
  for (const auto& s : spans) {
    if (s.child || std::string(s.name) != "runtime.frame") continue;
    const auto it = first_codec.find({s.track, s.frame});
    if (it != first_codec.end() && it->second >= s.begin_ns) {
      queue_wait_ms.push_back(static_cast<double>(it->second - s.begin_ns) / 1e6);
    }
  }
  const trace::CoreTimes core = trace::core_times(spans);
  (void)trace::report_spans(spans, opts.trace_path, result);

  result.set("runtime.queue_wait_ms.p50", quantile(queue_wait_ms, 0.50), "ms");
  result.set("runtime.queue_wait_ms.p99", quantile(queue_wait_ms, 0.99), "ms");
  report_runtime_stats(untraced.runtime, result);
  result.set("core.frame_ms.p50", core.frame_ms_p50, "ms");
  result.set("core.self_ms.p50", core.self_ms_p50, "ms");
  trace::report_codec_totals(result);
  result.set("codec.share", core.codec_share, "ratio");
  unit.report(result, true);
  report_stage_split(untraced.metrics, untraced.frames, result);
  report_hw_layer(hw_frames, spans, 0, result);
  const double u = static_cast<double>(untraced.pixels) / untraced.seconds;
  const double t = static_cast<double>(traced.pixels) / traced.seconds;
  result.set("telemetry.trace_overhead_pct", (u - t) / u * 100.0, "%");
}

}  // namespace perfbench
