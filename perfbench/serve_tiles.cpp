// serve_tiles: an open-loop stream of small frames into an in-process
// serve::Server over loopback. With 64x64 frames the per-frame costs of the
// serve and runtime layers (socket, parse/CRC, session, queue, completion
// post, write) are their largest share of any workload. Four connections
// drive both QoS tiers and three codec backends through one server:
//   haar T=2 bulk, haar T=0 bulk, legall53 T=2 realtime, microshift T=2 bulk.
//
// One generator thread drives all four connections on a fixed schedule
// (frames round-robin across connections), the server runs two engine
// workers, so generator + event loop + workers fit in four CPUs. Latency is
// timed from each frame's due time, so a stall also charges the frames
// queued behind it. Two phases:
//  * nominal: a fixed rate (kNominalFps) well below the knee gives the
//    latency, CPU and failure metrics;
//  * search: fixed offered rates on a 3% geometric grid find the highest
//    rate with p99 <= 20 ms, no failed frame and no growing backlog.
// A phase in which the host rather than the program was measured (the
// generator fell behind its schedule, or the hypervisor stole CPU time) is
// repeated; see run_phase().

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "common.hpp"
#include "core/streaming_engine.hpp"
#include "image/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using swc::image::ImageU8;
namespace serve = swc::serve;

constexpr std::size_t kTile = 64;
constexpr std::size_t kWindow = 8;
constexpr std::size_t kFrames = 32;  // distinct frames, cycled per connection
constexpr std::size_t kScenes = 8;
constexpr std::size_t kWorkers = 2;
// Fixed nominal offered rate (all connections together), about half the
// max_rate_fps measured when the benchmark was defined; it must not move
// afterwards, or latency figures stop being comparable.
constexpr double kNominalFps = 500.0;
constexpr double kLatencyLimitMs = 20.0;
constexpr std::size_t kWindowFrames = 1000;  // p99 window: >= 10 samples beyond it
// A generator whose p99 lateness exceeds this did not offer the schedule.
// Such a phase, or one during which the hypervisor stole more than
// kMaxStealShare of the CPU time (about 1.5% on a quiet day, 8-11% in the
// contended spells that doubled this workload's latencies), is repeated:
// kAttempts tries per phase, kMaxRepeats repeats per run. A nominal phase
// that never keeps up refuses the run.
constexpr double kMaxGeneratorLateMs = 5.0;
constexpr double kMaxStealShare = 0.05;
constexpr int kAttempts = 3;
constexpr int kMaxRepeats = 4;
// Search grid: rate_at(k) = kNominalFps * 1.03^k. The search starts at
// k = 16 (1.6x nominal) and first moves in strides of 8 (about +-27%).
constexpr double kGridStep = 1.03;
constexpr int kGridStride = 8;
constexpr int kSearchStart = 16;
constexpr int kSearchMin = -40;
constexpr int kSearchMax = 64;
// Shares of the run's seconds: the nominal phase, and each search probe
// (a search takes five to eight probes).
constexpr double kNominalShare = 0.35;
constexpr double kProbeShare = 0.06;
constexpr double kDrainSeconds = 5.0;

struct ConnSpec {
  const char* backend;
  int threshold;
  serve::QosTier qos;
};
constexpr ConnSpec kConns[] = {
    {"haar", 2, serve::QosTier::Bulk},
    {"haar", 0, serve::QosTier::Bulk},
    {"legall53", 2, serve::QosTier::Realtime},
    {"microshift", 2, serve::QosTier::Bulk},
};
constexpr std::size_t kNumConns = std::size(kConns);

swc::core::EngineConfig engine_config(const ConnSpec& c, const std::string& backend) {
  swc::core::EngineConfig config;
  config.spec = {kTile, kTile, kWindow};
  config.codec.threshold = c.threshold;
  config.backend = backend;
  return config;
}

[[noreturn]] void fail_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

// What the benchmark knows about each distinct frame of one connection,
// computed before the first timed frame by running CompressedEngine
// directly on the same frame and config.
struct Expected {
  std::uint64_t payload_bits = 0;
  std::uint64_t management_bits = 0;
  std::uint64_t columns = 0;
  std::size_t max_stream_bits = 0;
  double mse = 0.0;
  swc::telemetry::Snapshot metrics;
};

struct Pending {
  std::uint64_t index = 0;  // position in the phase's schedule
  std::uint64_t due_ns = 0;
  std::uint64_t send_ns = 0;
  std::size_t frame = 0;
};

// One client connection driven by the generator thread: nonblocking after
// the HELLO handshake, with its own outbound buffer and parser.
class Conn {
 public:
  Conn(std::uint16_t port, const ConnSpec& spec, const std::string& backend) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) fail_errno("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
      fail_errno("connect");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

    serve::HelloPayload hello;
    hello.qos = spec.qos;
    hello.width = kTile;
    hello.height = kTile;
    hello.window = kWindow;
    hello.threshold = spec.threshold;
    hello.name = std::string(spec.backend) + "-T" + std::to_string(spec.threshold);
    hello.backend = backend;
    const std::uint64_t begin = now_ns();
    const auto wire = serve::encode_message(serve::MsgType::Hello, 0, 0,
                                            serve::encode_payload(hello));
    if (::send(fd_, wire.data(), wire.size(), MSG_NOSIGNAL) != static_cast<ssize_t>(wire.size())) {
      fail_errno("send HELLO");
    }
    std::optional<serve::Message> reply;
    std::uint8_t buf[4096];
    while (!reply) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n <= 0) fail_errno("recv HELLO_ACK");
      parser_.feed({buf, static_cast<std::size_t>(n)},
                   [&reply](serve::Message&& m) { reply = std::move(m); });
    }
    if (reply->header.type != serve::MsgType::HelloAck) {
      throw std::runtime_error("server refused HELLO for " + hello.name);
    }
    hello_ms_ = static_cast<double>(now_ns() - begin) / 1e6;
    stream_id_ = reply->header.stream_id;
    if (::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK) < 0) fail_errno("fcntl");
  }

  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] double hello_ms() const { return hello_ms_; }
  [[nodiscard]] bool wants_write() const { return out_off_ < out_.size(); }
  [[nodiscard]] std::size_t outstanding() const { return pending_.size(); }

  void set_frames(const std::vector<ImageU8>& seq) {
    wire_.clear();
    for (const ImageU8& f : seq) {
      wire_.push_back(serve::encode_message(serve::MsgType::SubmitFrame, stream_id_, 0,
                                            f.pixels()));
    }
  }

  void enqueue(std::size_t frame, std::uint64_t index, std::uint64_t due_ns,
               std::uint64_t send_ns) {
    const std::uint64_t seq = next_seq_++;
    const std::size_t at = out_.size();
    out_.insert(out_.end(), wire_[frame].begin(), wire_[frame].end());
    serve::patch_seq({out_.data() + at, wire_[frame].size()}, seq);
    pending_.emplace(seq, Pending{index, due_ns, send_ns, frame});
    flush();
  }

  void flush() {
    while (out_off_ < out_.size()) {
      const ssize_t n =
          ::send(fd_, out_.data() + out_off_, out_.size() - out_off_, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        fail_errno("send");
      }
      out_off_ += static_cast<std::size_t>(n);
    }
    out_.clear();
    out_off_ = 0;
  }

  // Reads everything available; calls on_done(pending, done payload, now).
  template <typename OnDone>
  void receive(OnDone&& on_done) {
    std::uint8_t buf[65536];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        fail_errno("recv");
      }
      if (n == 0) throw std::runtime_error("server closed a connection");
      const std::uint64_t now = now_ns();
      const bool ok = parser_.feed({buf, static_cast<std::size_t>(n)}, [&](serve::Message&& m) {
        if (m.header.type != serve::MsgType::FrameDone) {
          throw std::runtime_error(std::string("unexpected ") + serve::to_string(m.header.type));
        }
        const auto done = serve::decode_frame_done(m.payload);
        const auto it = pending_.find(m.header.seq);
        if (!done || it == pending_.end()) throw std::runtime_error("unmatched FRAME_DONE");
        on_done(it->second, *done, now);
        pending_.erase(it);
      });
      if (!ok) throw std::runtime_error("malformed reply stream");
    }
  }

  // Frames never answered are forgotten (and counted by the caller).
  std::size_t abandon() {
    const std::size_t n = pending_.size();
    pending_.clear();
    return n;
  }

 private:
  int fd_ = -1;
  std::uint32_t stream_id_ = 0;
  double hello_ms_ = 0.0;
  serve::FrameParser parser_;
  std::vector<std::vector<std::uint8_t>> wire_;
  std::vector<std::uint8_t> out_;
  std::size_t out_off_ = 0;
  std::uint64_t next_seq_ = 0;
  std::unordered_map<std::uint64_t, Pending> pending_;
};

struct PhaseResult {
  double rate = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;
  std::uint64_t bad = 0;
  std::uint64_t unanswered = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t pixels = 0;
  std::size_t backlog_mid = 0;
  std::size_t backlog_end = 0;
  double seconds = 0.0;
  double generator_cpu_s = 0.0;
  double process_cpu_s = 0.0;
  double steal_share = 0.0;  // of the machine's CPU time, during the phase
  std::vector<double> latency_ms;  // due -> FRAME_DONE receipt, Ok frames
  // The same by schedule position (-1: not answered Ok), for windowing.
  std::vector<double> latency_by_index;
  std::vector<double> wire_ms;     // round trip minus server latency
  std::vector<double> server_ms;   // FRAME_DONE latency_ns
  std::vector<double> late_ms;     // generator send - due
  // Traced runs: (connection, executed-frame ordinal) -> server latency.
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> server_ns;

  [[nodiscard]] std::uint64_t failed() const {
    return rejected + bad + unanswered + mismatched;
  }
  // The p99 of each window of >= kWindowFrames consecutive scheduled
  // frames (at least 10 samples beyond each p99).
  [[nodiscard]] std::vector<double> window_p99s() const {
    const std::size_t n = latency_by_index.size();
    const std::size_t windows = std::max<std::size_t>(1, n / kWindowFrames);
    std::vector<double> p99s;
    for (std::size_t w = 0; w < windows; ++w) {
      std::vector<double> window;
      for (std::size_t i = w * n / windows; i < (w + 1) * n / windows; ++i) {
        if (latency_by_index[i] >= 0.0) window.push_back(latency_by_index[i]);
      }
      p99s.push_back(quantile(std::move(window), 0.99));
    }
    return p99s;
  }
  // The search's p99: the median window's, so a host stall of a second or
  // two spoils one window, not the probe.
  [[nodiscard]] double p99_ms() const { return median(window_p99s()); }
  [[nodiscard]] double late_p99_ms() const { return quantile(late_ms, 0.99); }
  [[nodiscard]] bool kept_up() const { return late_p99_ms() <= kMaxGeneratorLateMs; }
  [[nodiscard]] bool passes() const {
    const bool growing = backlog_end > 2 * backlog_mid + 8;
    return failed() == 0 && p99_ms() <= kLatencyLimitMs && !growing && kept_up();
  }
};

class Client {
 public:
  Client(std::uint16_t port, const std::vector<ImageU8>& seq,
         const std::vector<std::vector<Expected>>& expected, bool traced)
      : expected_bits_(kNumConns) {
    for (std::size_t c = 0; c < kNumConns; ++c) {
      for (const Expected& e : expected[c]) expected_bits_[c].push_back(e.payload_bits);
      const std::string backend =
          traced ? trace::traced_backend(kConns[c].backend, static_cast<std::uint32_t>(c),
                                         kTile - kWindow)
                 : kConns[c].backend;
      conns_.push_back(std::make_unique<Conn>(port, kConns[c], backend));
      conns_.back()->set_frames(seq);
    }
    next_frame_.assign(kNumConns, 0);
    ok_ordinal_.assign(kNumConns, 0);
  }

  [[nodiscard]] std::vector<double> hello_ms() const {
    std::vector<double> out;
    for (const auto& c : conns_) out.push_back(c->hello_ms());
    return out;
  }

  // Warm-up: one frame per connection, answered.
  void warm_up() {
    const std::uint64_t now = now_ns();
    for (std::size_t c = 0; c < kNumConns; ++c) conns_[c]->enqueue(0, 0, now, now);
    PhaseResult scratch;
    drain(scratch, now_ns() + static_cast<std::uint64_t>(kDrainSeconds * 1e9));
    if (scratch.ok != kNumConns) throw std::runtime_error("warm-up frames were not answered");
    std::fill(ok_ordinal_.begin(), ok_ordinal_.end(), 0);
  }

  // Offers `frames` frames at `rate` per second, round-robin over the
  // connections, then waits for every answer.
  PhaseResult run(double rate, std::uint64_t frames) {
    PhaseResult r;
    r.rate = rate;
    r.latency_by_index.assign(frames, -1.0);
    const double cpu0 = thread_cpu_s();
    const double process_cpu0 = process_cpu_s();
    const HostTicks host0 = host_ticks();
    const std::uint64_t start = now_ns() + 1'000'000;
    const double period_ns = 1e9 / rate;
    std::uint64_t j = 0;
    while (j < frames) {
      const std::uint64_t now = now_ns();
      while (j < frames) {
        const auto due = start + static_cast<std::uint64_t>(static_cast<double>(j) * period_ns);
        if (due > now) break;
        const std::size_t c = j % kNumConns;
        conns_[c]->enqueue(next_frame_[c]++ % kFrames, j, due, now_ns());
        r.late_ms.push_back(static_cast<double>(now - due) / 1e6);
        ++r.sent;
        ++j;
        if (j == frames / 2) r.backlog_mid = outstanding();
      }
      if (j == frames) break;
      const auto next_due = start + static_cast<std::uint64_t>(static_cast<double>(j) * period_ns);
      poll_once(r, next_due);
    }
    r.backlog_end = outstanding();
    drain(r, now_ns() + static_cast<std::uint64_t>(kDrainSeconds * 1e9));
    r.seconds = static_cast<double>(now_ns() - start) / 1e9;
    r.generator_cpu_s = thread_cpu_s() - cpu0;
    r.process_cpu_s = process_cpu_s() - process_cpu0;
    r.steal_share = steal_share(host0, host_ticks());
    return r;
  }

 private:
  [[nodiscard]] std::size_t outstanding() const {
    std::size_t n = 0;
    for (const auto& c : conns_) n += c->outstanding();
    return n;
  }

  void drain(PhaseResult& r, std::uint64_t deadline) {
    while (outstanding() > 0 && now_ns() < deadline) poll_once(r, deadline);
    for (auto& c : conns_) r.unanswered += c->abandon();
  }

  // Busy-polls the sockets until one is ready or `until_ns` passes. The
  // generator never sleeps: on a VM a sleeping thread's wake-up latency is
  // up to the hypervisor, and it would both delay sends and add to every
  // latency the generator measures. (Its CPU time is excluded from the
  // server's cpu_s_per_mpx.)
  void poll_once(PhaseResult& r, std::uint64_t until_ns) {
    pollfd fds[kNumConns];
    for (std::size_t c = 0; c < kNumConns; ++c) {
      fds[c].fd = conns_[c]->fd();
      fds[c].events = static_cast<short>(POLLIN | (conns_[c]->wants_write() ? POLLOUT : 0));
      fds[c].revents = 0;
    }
    const timespec no_wait{0, 0};
    int ready = 0;
    do {
      ready = ::ppoll(fds, kNumConns, &no_wait, nullptr);
      if (ready < 0 && errno != EINTR) fail_errno("ppoll");
    } while (ready <= 0 && now_ns() < until_ns);
    for (std::size_t c = 0; c < kNumConns; ++c) {
      if ((fds[c].revents & (POLLERR | POLLHUP)) != 0) {
        throw std::runtime_error("connection error");
      }
      if ((fds[c].revents & POLLOUT) != 0) conns_[c]->flush();
      if ((fds[c].revents & POLLIN) == 0) continue;
      conns_[c]->receive([&](const Pending& p, const serve::FrameDonePayload& done,
                             std::uint64_t at) {
        switch (done.status) {
          case serve::FrameStatus::Ok:
            break;
          case serve::FrameStatus::RejectedBusy:
          case serve::FrameStatus::RejectedShutdown:
            ++r.rejected;
            return;
          case serve::FrameStatus::BadFrame:
            ++r.bad;
            return;
        }
        ++r.ok;
        r.pixels += kTile * kTile;
        if (done.payload_bits != expected_bits_[c][p.frame]) ++r.mismatched;
        const double server = static_cast<double>(done.latency_ns) / 1e6;
        const double rtt = static_cast<double>(at - p.send_ns) / 1e6;
        const double latency = static_cast<double>(at - p.due_ns) / 1e6;
        r.latency_ms.push_back(latency);
        if (p.index < r.latency_by_index.size()) r.latency_by_index[p.index] = latency;
        r.server_ms.push_back(server);
        r.wire_ms.push_back(rtt - server);
        const std::uint64_t ordinal = ok_ordinal_[c]++;
        if (trace::enabled()) {
          r.server_ns[{static_cast<std::uint32_t>(c), ordinal}] = done.latency_ns;
          trace::record("serve.client_frame", static_cast<std::uint32_t>(c), ordinal, p.send_ns,
                        at, false);
        }
      });
    }
  }

  std::vector<std::vector<std::uint64_t>> expected_bits_;  // per connection, per frame
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<std::size_t> next_frame_;
  std::vector<std::uint64_t> ok_ordinal_;  // Ok answers per connection = executed frames
};

// Direct engine runs of every (connection, frame): the expected payload
// bits and the workload's deterministic metrics. In traced runs the calls
// are timed as core.run_with_codec spans on decorated backends.
std::vector<std::vector<Expected>> compute_expected(const std::vector<ImageU8>& seq,
                                                    bool traced) {
  std::vector<std::vector<Expected>> out(kNumConns);
  for (std::size_t c = 0; c < kNumConns; ++c) {
    const auto track = static_cast<std::uint32_t>(100 + c);
    const std::string backend =
        traced ? trace::traced_backend(kConns[c].backend, track, kTile - kWindow)
               : kConns[c].backend;
    const swc::core::CompressedEngine engine(engine_config(kConns[c], backend));
    for (std::size_t f = 0; f < kFrames; ++f) {
      const std::uint64_t begin = now_ns();
      auto run = engine.run_with_codec(seq[f], engine.config().codec,
                                       [](std::size_t, std::size_t, const swc::core::WindowView&) {});
      trace::record("core.run_with_codec", track, f, begin, now_ns(), false);
      Expected e;
      e.payload_bits = run.stats.total_payload_bits();
      e.management_bits = run.stats.total_management_bits();
      e.columns = run.stats.codec_columns();
      e.max_stream_bits = run.stats.max_stream_bits();
      e.mse = swc::image::mse(seq[f], run.reconstructed);
      e.metrics = std::move(run.stats.metrics);
      out[c].push_back(std::move(e));
    }
  }
  return out;
}

struct Setup {
  std::vector<std::vector<Expected>> expected;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<Client> client;
};

Setup set_up(const std::vector<ImageU8>& seq, bool traced) {
  Setup s;
  s.expected = compute_expected(seq, traced);
  serve::ServerOptions options;
  options.workers = kWorkers;
  // With the default cap of 4 in-flight realtime frames, any ~10 ms host
  // stall rejects a frame long before p99 approaches the 20 ms limit, and
  // the search would measure host stalls instead of the knee. At 8 (the
  // bulk tier's cap) a rejection needs a stall that also breaks the limit.
  options.limits.realtime_max_inflight = 8;
  s.server = std::make_unique<serve::Server>(options);
  s.server->start();
  s.client = std::make_unique<Client>(s.server->port(), seq, s.expected, traced);
  s.client->warm_up();
  return s;
}

void tear_down(Setup& s) {
  s.client.reset();
  if (s.server) s.server->stop();
  s.server.reset();
}

double rate_at(int k) { return kNominalFps * std::pow(kGridStep, k); }

// At least three p99 windows, so one stalled window cannot decide the p99.
std::uint64_t frames_for(double rate, double seconds) {
  return std::max<std::uint64_t>(3 * kWindowFrames, static_cast<std::uint64_t>(rate * seconds));
}

struct Knee {
  double rate = 0.0;       // offered frames/s of the highest passing probe
  double mpx_per_s = 0.0;  // pixels that probe completed per second
};

// Runs one phase, repeating it while the host rather than the program was
// measured: the generator fell behind its schedule (the host stalled the
// sends), or the hypervisor stole more than kMaxStealShare of the machine's
// CPU time. Each phase gets kAttempts tries, and a run repeats at most
// kMaxRepeats phases in all, so a long contended spell cannot stretch the
// run; the last attempt stands.
PhaseResult run_phase(Client& client, double rate, std::uint64_t frames, int& repeats_left,
                      Result& result) {
  PhaseResult r;
  for (int attempt = 0;; ++attempt) {
    r = client.run(rate, frames);
    result.check(r.mismatched == 0, "payload bits differ from the direct engine run");
    result.check(r.unanswered == 0, "frames left unanswered");
    if ((r.kept_up() && r.steal_share <= kMaxStealShare) || attempt + 1 == kAttempts ||
        repeats_left == 0) {
      return r;
    }
    --repeats_left;
    std::printf("  host interfered at %.1f frames/s (generator lateness p99 %.3f ms, "
                "steal %.1f%%): phase repeated\n",
                rate, r.late_p99_ms(), r.steal_share * 100.0);
  }
}

// The highest grid rate whose probe passes: from a fixed starting rate,
// stride up (or down) until the verdict flips, then bisect to one step.
Knee search_max_rate(Client& client, double probe_seconds, int& repeats_left, Result& result) {
  Knee knee;
  const auto probe = [&](int k) {
    const PhaseResult r = run_phase(client, rate_at(k), frames_for(rate_at(k), probe_seconds),
                                    repeats_left, result);
    std::printf("  probe %8.1f frames/s: p99 %8.3f ms, failed %llu, backlog %zu -> %zu: %s\n",
                r.rate, r.p99_ms(), static_cast<unsigned long long>(r.failed()), r.backlog_mid,
                r.backlog_end, r.passes() ? "pass" : "fail");
    if (r.passes() && r.rate > knee.rate) {
      knee = {r.rate, static_cast<double>(r.pixels) / 1e6 / r.seconds};
    }
    return r.passes();
  };
  int lo = kSearchMin - 1;  // highest known pass (none yet)
  int hi = kSearchMax + 1;  // lowest known fail (none yet)
  if (probe(kSearchStart)) {
    lo = kSearchStart;
    for (int k = lo + kGridStride; k <= kSearchMax; k += kGridStride) {
      if (!probe(k)) {
        hi = k;
        break;
      }
      lo = k;
    }
  } else {
    hi = kSearchStart;
    for (int k = hi - kGridStride; k >= kSearchMin; k -= kGridStride) {
      if (probe(k)) {
        lo = k;
        break;
      }
      hi = k;
    }
  }
  if (lo < kSearchMin) {
    result.check(false, "no offered rate met the latency limit");
    return knee;
  }
  while (hi - lo > 1 && hi <= kSearchMax) {
    const int mid = lo + (hi - lo) / 2;
    (probe(mid) ? lo : hi) = mid;
  }
  return knee;
}

void count_phase(const PhaseResult& r, Result& result) {
  result.attempted += r.sent;
  result.failed += r.failed();
  result.check(r.sent == r.ok + r.rejected + r.bad + r.unanswered, "frames lost");
}

void check_generator(const PhaseResult& r) {
  std::printf("  nominal phase: %llu frames, generator lateness p99 %.3f ms\n",
              static_cast<unsigned long long>(r.sent), r.late_p99_ms());
  if (!r.kept_up()) {
    throw std::runtime_error("generator fell behind its schedule in every attempt (lateness p99 " +
                             std::to_string(r.late_p99_ms()) + " ms); run refused");
  }
}

// The deterministic metrics over every (connection, frame).
FixedUnit fixed_unit(const std::vector<std::vector<Expected>>& expected) {
  FixedUnit u;
  for (std::size_t c = 0; c < kNumConns; ++c) {
    std::size_t worst = 0;
    for (const Expected& e : expected[c]) {
      u.columns += e.columns;
      u.payload_bits += e.payload_bits;
      u.management_bits += e.management_bits;
      worst = std::max(worst, e.max_stream_bits);
      if (kConns[c].threshold > 0) u.lossy_mse.push_back(e.mse);
    }
    u.add_stream({kTile, kTile, kWindow}, worst);
  }
  return u;
}

double sim_cycles_per_px(const std::vector<ImageU8>& seq, Result& result) {
  std::size_t cycles = 0;
  std::size_t pixels = 0;
  for (const ConnSpec& c : kConns) {
    if (std::string(c.backend) != "haar") continue;  // the hw model is the haar datapath
    cycles += simulate_cycles(seq[0], engine_config(c, "haar"), result);
    pixels += seq[0].size();
  }
  return static_cast<double>(cycles) / static_cast<double>(pixels);
}

// Server CPU (process minus generator thread) per Mpx answered.
double server_cpu_s_per_mpx(const PhaseResult& r) {
  return (r.process_cpu_s - r.generator_cpu_s) / (static_cast<double>(r.pixels) / 1e6);
}

}  // namespace

void run_serve_tiles(const Options& opts, Result& result) {
  // Eight scenes of four frames each, panning a quarter tile per frame: one
  // scene is too small a sample for the content-dependent metrics (mse)
  // to repeat across seeds.
  std::vector<ImageU8> seq;
  for (std::uint64_t scene = 0; scene < kScenes; ++scene) {
    for (ImageU8& f : make_sequence(kTile, kTile, kFrames / kScenes, opts.seed * kScenes + scene,
                                    2, kTile / 4)) {
      seq.push_back(std::move(f));
    }
  }
  const std::uint64_t nominal_frames = frames_for(kNominalFps, opts.seconds * kNominalShare);

  if (!opts.trace) {
    std::vector<double> setups;
    Setup s;
    for (int i = 0; i < kSetupRepeats; ++i) {
      tear_down(s);
      const std::uint64_t begin = now_ns();
      s = set_up(seq, false);
      setups.push_back(static_cast<double>(now_ns() - begin) / 1e9);
    }
    int repeats_left = kMaxRepeats;
    const PhaseResult nominal =
        run_phase(*s.client, kNominalFps, nominal_frames, repeats_left, result);
    check_generator(nominal);
    count_phase(nominal, result);
    const Knee knee =
        search_max_rate(*s.client, opts.seconds * kProbeShare, repeats_left, result);
    tear_down(s);

    const FixedUnit unit = fixed_unit(s.expected);
    result.set("max_rate_fps", knee.rate, "frames/s");
    result.set("latency_p50_ms", quantile(nominal.latency_ms, 0.50), "ms");
    result.set("latency_p99_ms", quantile(nominal.latency_ms, 0.99), "ms");
    result.set("mpx_per_s", knee.mpx_per_s, "Mpx/s");
    result.set("cpu_s_per_mpx", server_cpu_s_per_mpx(nominal), "s/Mpx");
    result.set("setup_s", median(setups), "s");
    result.set("peak_rss_mb", peak_rss_mb(), "MB");
    unit.report(result, false);
    result.set("sim_cycles_per_px", sim_cycles_per_px(seq, result), "cycles/px");
    std::printf("  serve_tiles: nominal %.0f frames/s, %zu latency samples, window p99s (ms):",
                kNominalFps, nominal.latency_ms.size());
    for (const double p : nominal.window_p99s()) std::printf(" %.3f", p);
    std::printf("\n");
    return;
  }

  // Traced run: the nominal phase untraced, then again on decorated
  // backends with spans recorded.
  PhaseResult untraced;
  FixedUnit untraced_unit;
  {
    Setup s = set_up(seq, false);
    int repeats_left = kMaxRepeats;
    untraced = run_phase(*s.client, kNominalFps, nominal_frames / 2, repeats_left, result);
    check_generator(untraced);
    count_phase(untraced, result);
    untraced_unit = fixed_unit(s.expected);
    tear_down(s);
  }
  trace::clear();
  trace::enable(true);
  Setup s = set_up(seq, true);
  // Keep the core-layer probe's spans (tracks 100+), not the warm-up's.
  std::vector<trace::Span> spans = trace::take();
  std::erase_if(spans, [](const trace::Span& sp) { return sp.track < 100; });
  const std::vector<double> hello = s.client->hello_ms();
  trace::reset_frame_ordinals();
  trace::reset_codec_totals();
  int repeats_left = kMaxRepeats;
  const PhaseResult traced =
      run_phase(*s.client, kNominalFps, nominal_frames / 2, repeats_left, result);
  trace::enable(false);
  check_generator(traced);
  count_phase(traced, result);
  const swc::telemetry::Snapshot serve_metrics = s.server->serve_metrics();
  const swc::runtime::RuntimeStatsSnapshot rt = s.server->engine().stats();
  tear_down(s);
  for (const trace::Span& sp : trace::take()) spans.push_back(sp);

  const FixedUnit unit = fixed_unit(s.expected);
  result.check(unit == untraced_unit, "traced run's counts differ from the untraced run's");

  // Queue wait inside the server, estimated from outside: the frame's
  // server latency minus the span its codec calls cover.
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::pair<std::uint64_t, std::uint64_t>>
      codec_extent;
  for (const auto& sp : spans) {
    if (!sp.child || sp.track >= kNumConns) continue;
    auto [it, fresh] =
        codec_extent.emplace(std::make_pair(sp.track, sp.frame), std::make_pair(sp.begin_ns, sp.end_ns));
    if (!fresh) {
      it->second.first = std::min(it->second.first, sp.begin_ns);
      it->second.second = std::max(it->second.second, sp.end_ns);
    }
  }
  std::vector<double> queue_wait_ms;
  for (const auto& [key, server_ns] : traced.server_ns) {
    const auto it = codec_extent.find(key);
    if (it == codec_extent.end()) continue;
    const std::uint64_t codec = it->second.second - it->second.first;
    queue_wait_ms.push_back(server_ns > codec ? static_cast<double>(server_ns - codec) / 1e6 : 0.0);
  }
  (void)trace::report_spans(spans, opts.trace_path, result);

  const auto& sids = serve::ServeMetricIds::get();
  const trace::CoreTimes core = trace::core_times(spans);
  result.set("serve.wire_ms.p50", quantile(traced.wire_ms, 0.50), "ms");
  result.set("serve.wire_ms.p99", quantile(traced.wire_ms, 0.99), "ms");
  result.set("serve.server_ms.p50", quantile(traced.server_ms, 0.50), "ms");
  result.set("serve.server_ms.p99", quantile(traced.server_ms, 0.99), "ms");
  result.set("serve.hello_ms", median(hello), "ms");
  result.set("serve.read_pauses", static_cast<double>(serve_metrics.sum(sids.read_pauses)),
             "count");
  result.set("serve.parked_frames_max", static_cast<double>(serve_metrics.max(sids.parked_frames)),
             "frames");
  result.set("serve.rejected_busy",
             static_cast<double>(serve_metrics.sum(sids.frames_rejected_busy)), "frames");
  result.set("serve.gen_late_ms.p99", quantile(traced.late_ms, 0.99), "ms");
  result.set("runtime.queue_wait_ms.p50", quantile(queue_wait_ms, 0.50), "ms");
  result.set("runtime.queue_wait_ms.p99", quantile(queue_wait_ms, 0.99), "ms");
  report_runtime_stats(rt, result);
  result.set("core.frame_ms.p50", core.frame_ms_p50, "ms");
  result.set("core.self_ms.p50", core.self_ms_p50, "ms");
  result.set("codec.share", core.codec_share, "ratio");
  trace::report_codec_totals(result);
  unit.report(result, true);
  swc::telemetry::Snapshot stages;
  for (const auto& conn : s.expected) {
    for (const Expected& e : conn) stages.merge(e.metrics);
  }
  report_stage_split(stages, kNumConns * kFrames, result);
  const double u = server_cpu_s_per_mpx(untraced);
  result.set("telemetry.trace_overhead_pct", (server_cpu_s_per_mpx(traced) - u) / u * 100.0, "%");
}

}  // namespace perfbench
