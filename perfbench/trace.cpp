#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string_view>
#include <utility>

#include "codec/backend.hpp"
#include "common.hpp"

namespace perfbench::trace {
namespace {

// ~24 MiB of spans (a traced serve_tiles phase records ~230k); a run that
// would record more counts the rest as dropped instead of growing without
// bound.
constexpr std::size_t kMaxSpans = std::size_t{1} << 19;

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_dropped{0};
std::mutex g_spans_mutex;
std::vector<Span> g_spans;

std::uint32_t this_tid() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

struct Totals {
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> columns{0};
};

class TracedBackend final : public swc::codec::CodecBackend {
 public:
  TracedBackend(std::string name, std::shared_ptr<const swc::codec::CodecBackend> inner,
                std::uint32_t track, std::size_t calls_per_frame,
                std::shared_ptr<std::atomic<std::uint64_t>> ordinal,
                std::shared_ptr<Totals> totals)
      : name_(std::move(name)),
        inner_(std::move(inner)),
        track_(track),
        calls_per_frame_(calls_per_frame),
        ordinal_(std::move(ordinal)),
        totals_(std::move(totals)) {}

  [[nodiscard]] std::string_view name() const noexcept override { return name_; }

  [[nodiscard]] std::unique_ptr<swc::codec::BackendScratch> make_scratch() const override {
    return inner_->make_scratch();
  }

  void transcode_band(const std::uint8_t* band, std::size_t n, std::size_t w,
                      const swc::bitpack::ColumnCodecConfig& config,
                      swc::codec::BackendScratch& scratch, std::uint8_t* out,
                      swc::telemetry::Snapshot& metrics,
                      swc::codec::BandTranscodeStats& stats) const override {
    const std::uint64_t begin = now_ns();
    inner_->transcode_band(band, n, w, config, scratch, out, metrics, stats);
    const std::uint64_t end = now_ns();
    const std::uint64_t call = ordinal_->fetch_add(1, std::memory_order_relaxed);
    totals_->ns.fetch_add(end - begin, std::memory_order_relaxed);
    totals_->columns.fetch_add(stats.columns, std::memory_order_relaxed);
    record("codec.transcode_band", track_, call / calls_per_frame_, begin, end, true);
  }

 private:
  std::string name_;
  std::shared_ptr<const swc::codec::CodecBackend> inner_;
  std::uint32_t track_;
  std::size_t calls_per_frame_;
  std::shared_ptr<std::atomic<std::uint64_t>> ordinal_;
  std::shared_ptr<Totals> totals_;
};

std::mutex g_decorators_mutex;
std::map<std::string, std::shared_ptr<Totals>> g_totals;  // by inner backend name
std::vector<std::shared_ptr<std::atomic<std::uint64_t>>> g_ordinals;
std::set<std::string> g_registered;  // decorator names

std::shared_ptr<Totals> totals_for(const std::string& inner) {
  auto& slot = g_totals[inner];
  if (!slot) slot = std::make_shared<Totals>();
  return slot;
}

bool write_chrome_json(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint64_t origin = spans.empty() ? 0 : spans.front().begin_ns;
  for (const Span& s : spans) origin = std::min(origin, s.begin_ns);
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::size_t> parents;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!spans[i].child) parents.emplace(std::make_pair(spans[i].track, spans[i].frame), i);
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    long long parent = -1;
    if (s.child) {
      const auto it = parents.find({s.track, s.frame});
      if (it != parents.end()) parent = static_cast<long long>(it->second);
    }
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"span_id\":%zu,\"parent_id\":%lld,\"track\":%u,\"frame\":%llu}}\n",
                 i == 0 ? "" : ",", s.name, s.tid,
                 static_cast<double>(s.begin_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.begin_ns) / 1e3, i, parent, s.track,
                 static_cast<unsigned long long>(s.frame));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace

void enable(bool on) { g_enabled.store(on, std::memory_order_release); }
bool enabled() { return g_enabled.load(std::memory_order_acquire); }

void record(const char* name, std::uint32_t track, std::uint64_t frame, std::uint64_t begin_ns,
            std::uint64_t end_ns, bool child) {
  if (!enabled()) return;
  const Span span{name, track, frame, begin_ns, end_ns, this_tid(), child};
  std::lock_guard<std::mutex> lock(g_spans_mutex);
  if (g_spans.size() >= kMaxSpans) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (g_spans.empty()) g_spans.reserve(std::size_t{1} << 16);
  g_spans.push_back(span);
}

std::vector<Span> take() {
  std::lock_guard<std::mutex> lock(g_spans_mutex);
  return std::exchange(g_spans, {});
}

void clear() {
  std::lock_guard<std::mutex> lock(g_spans_mutex);
  g_spans.clear();
  g_dropped.store(0, std::memory_order_relaxed);
}

std::vector<NameSummary> summarize(const std::vector<Span>& spans) {
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::size_t> parents;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!spans[i].child) parents.emplace(std::make_pair(spans[i].track, spans[i].frame), i);
  }
  std::vector<std::uint64_t> covered(spans.size(), 0);
  for (const Span& s : spans) {
    if (!s.child) continue;
    const auto it = parents.find({s.track, s.frame});
    if (it == parents.end()) continue;
    const Span& p = spans[it->second];
    const std::uint64_t b = std::max(s.begin_ns, p.begin_ns);
    const std::uint64_t e = std::min(s.end_ns, p.end_ns);
    if (e > b) covered[it->second] += e - b;
  }
  std::vector<NameSummary> out;
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto [it, fresh] = index.emplace(s.name, out.size());
    if (fresh) out.push_back(NameSummary{s.name, 0, 0.0, 0.0});
    NameSummary& sum = out[it->second];
    const double dur = static_cast<double>(s.end_ns - s.begin_ns) / 1e6;
    ++sum.count;
    sum.total_ms += dur;
    sum.self_ms += dur - static_cast<double>(std::min(covered[i], s.end_ns - s.begin_ns)) / 1e6;
  }
  return out;
}

CoreTimes core_times(const std::vector<Span>& spans) {
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> child_ns;
  for (const Span& s : spans) {
    if (s.child) child_ns[{s.track, s.frame}] += s.end_ns - s.begin_ns;
  }
  std::vector<double> frame_ms, self_ms;
  double total = 0.0;
  double codec = 0.0;
  for (const Span& s : spans) {
    if (s.child || std::string_view(s.name) != "core.run_with_codec") continue;
    const auto dur = static_cast<double>(s.end_ns - s.begin_ns);
    const auto it = child_ns.find({s.track, s.frame});
    const double c = it == child_ns.end() ? 0.0 : static_cast<double>(it->second);
    frame_ms.push_back(dur / 1e6);
    self_ms.push_back((dur - c) / 1e6);
    total += dur;
    codec += c;
  }
  return {median(frame_ms), median(self_ms), total > 0.0 ? codec / total : 0.0};
}

std::vector<NameSummary> report_spans(const std::vector<Span>& spans, const std::string& path,
                                      Result& result) {
  const std::vector<NameSummary> sums = summarize(spans);
  for (const NameSummary& s : sums) {
    std::printf("  span %-24s count %8llu total %12.3f ms self %12.3f ms\n", s.name.c_str(),
                static_cast<unsigned long long>(s.count), s.total_ms, s.self_ms);
  }
  if (const std::uint64_t lost = g_dropped.load(std::memory_order_relaxed); lost != 0) {
    std::printf("  spans beyond the in-memory cap, not recorded: %llu\n",
                static_cast<unsigned long long>(lost));
  }
  if (!path.empty()) result.check(write_chrome_json(path, spans), "cannot write " + path);
  return sums;
}

std::string traced_backend(const std::string& inner, std::uint32_t track,
                           std::size_t calls_per_frame) {
  const std::string name = "perfbench.traced." + inner + "." + std::to_string(track);
  std::lock_guard<std::mutex> lock(g_decorators_mutex);
  if (g_registered.count(name) != 0) return name;
  auto base = swc::codec::BackendRegistry::make(inner);
  auto ordinal = std::make_shared<std::atomic<std::uint64_t>>(0);
  g_ordinals.push_back(ordinal);
  auto totals = totals_for(inner);
  swc::codec::BackendRegistry::register_backend(
      name, [name, base, track, calls_per_frame, ordinal, totals] {
        return std::make_unique<TracedBackend>(name, base, track, calls_per_frame, ordinal,
                                               totals);
      });
  g_registered.insert(name);
  return name;
}

void reset_frame_ordinals() {
  std::lock_guard<std::mutex> lock(g_decorators_mutex);
  for (const auto& o : g_ordinals) o->store(0, std::memory_order_relaxed);
}

void reset_codec_totals() {
  std::lock_guard<std::mutex> lock(g_decorators_mutex);
  for (auto& [name, totals] : g_totals) {
    totals->ns.store(0);
    totals->columns.store(0);
  }
}

void report_codec_totals(Result& result) {
  std::lock_guard<std::mutex> lock(g_decorators_mutex);
  for (const char* backend : {"haar", "legall53", "microshift"}) {
    const auto it = g_totals.find(backend);
    const double ns = it == g_totals.end() ? 0.0 : static_cast<double>(it->second->ns.load());
    const double columns =
        it == g_totals.end() ? 0.0 : static_cast<double>(it->second->columns.load());
    result.set(std::string("codec.") + backend + ".ns_per_column",
               columns > 0.0 ? ns / columns : 0.0, "ns");
  }
}

}  // namespace perfbench::trace
