#pragma once
// Span recording for the traced run. Spans are taken only by the
// benchmark's own code, around its calls into the program's layers: each
// span has a name, start and end, a track (stream, connection or pipeline)
// and a per-track frame ordinal. A "child" span's parent is the top-level
// span with the same track and frame. Spans stay in memory and are written
// as Chrome trace-event JSON (loadable in Perfetto) when the run ends.
//
// The codec layer is timed through a decorator around
// codec::CodecBackend::transcode_band, registered in codec::BackendRegistry
// under its own name. Only traced phases open streams on those names, so
// timed runs execute the unmodified backends.

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench::trace {

struct Span {
  const char* name = "";  // static string
  std::uint32_t track = 0;
  std::uint64_t frame = 0;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t tid = 0;
  bool child = false;
};

// Global in-memory span store (thread-safe). Recording is off until
// enabled; beyond a fixed cap spans are counted as dropped, not stored.
void enable(bool on);
[[nodiscard]] bool enabled();
void record(const char* name, std::uint32_t track, std::uint64_t frame, std::uint64_t begin_ns,
            std::uint64_t end_ns, bool child);
[[nodiscard]] std::vector<Span> take();
void clear();

// Per span name: number of spans, their summed duration, and their summed
// self time (duration minus the parts covered by child spans).
struct NameSummary {
  std::string name;
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
[[nodiscard]] std::vector<NameSummary> summarize(const std::vector<Span>& spans);

// The core layer, from "core.run_with_codec" spans (a direct
// CompressedEngine::run_with_codec call timed by the benchmark) and their
// codec children: median frame time, median self time (frame minus codec),
// and the codec's share of all frame time.
struct CoreTimes {
  double frame_ms_p50 = 0.0;
  double self_ms_p50 = 0.0;
  double codec_share = 0.0;
};
[[nodiscard]] CoreTimes core_times(const std::vector<Span>& spans);

// Prints every span name's count, total and self time, and writes the
// spans to `path` (unless empty) as Chrome trace-event JSON; a file that
// cannot be written fails the run's checks. Returns the summaries.
std::vector<NameSummary> report_spans(const std::vector<Span>& spans, const std::string& path,
                                      Result& result);

// Registers (once per name) a timing decorator around the built-in backend
// `inner` and returns the name to put in EngineConfig::backend or a HELLO.
// Every transcode_band call becomes a child span on `track`; the frame
// ordinal is calls / `calls_per_frame` (one call per row transition, so
// image height - window per frame), since a stream's frames run serialized.
[[nodiscard]] std::string traced_backend(const std::string& inner, std::uint32_t track,
                                         std::size_t calls_per_frame);

// Restart every decorator's frame ordinal at 0 (call when no frame is in
// flight, e.g. after warm-up).
void reset_frame_ordinals();

// codec.<backend>.ns_per_column for every built-in backend: time inside the
// decorated transcode_band calls over the columns they coded, summed over
// each backend's decorators since the last reset.
void reset_codec_totals();
void report_codec_totals(Result& result);

}  // namespace perfbench::trace
