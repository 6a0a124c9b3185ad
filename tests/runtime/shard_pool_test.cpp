// Sharded-runtime suite (ctest -L shard): the submission contracts
// (Block/Reject backpressure, completion barrier, shutdown), strand
// ordering, work stealing under skew, arena recycling across stream
// lifetimes, the 1-shard comparison against a direct engine run, and a
// TSan-targeted stress mirroring runtime_stress. CMake adds dedicated ASan/TSan entries running
// this suite when the build is configured with -DSWC_SANITIZE.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/streaming_engine.hpp"
#include "image/synthetic.hpp"
#include "runtime/frame_server.hpp"
#include "runtime/shard_pool.hpp"

namespace swc::runtime {
namespace {

core::EngineConfig make_config(std::size_t w, std::size_t h, std::size_t n,
                               int threshold = 0) {
  core::EngineConfig config;
  config.spec = {w, h, n};
  config.codec.threshold = threshold;
  return config;
}

std::uint64_t total_steals(const ShardPool& pool) {
  std::uint64_t steals = 0;
  for (const auto& s : pool.shard_stats()) steals += s.steals;
  return steals;
}

// Parks the pool's only worker on a job that runs until the returned
// promise is fulfilled; returns once the job has started (and so no longer
// holds budget).
std::promise<void> occupy_only_worker(ShardPool& pool) {
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  auto started = std::make_shared<std::atomic<bool>>(false);
  EXPECT_TRUE(pool.submit([started, opened] {
    *started = true;
    opened.wait();
  }));
  while (!*started) std::this_thread::yield();
  return gate;
}

// Deterministic backpressure: the only worker is parked on a gate job and
// the shard's budget of 2 is filled, so a third Reject submission must fail
// at once with QueueFull.
TEST(ShardPool, RejectPolicyFailsFastWhenSaturated) {
  ShardPool pool({.workers = 1, .queue_capacity = 2, .shards = 1, .pin_threads = false});
  auto gate = occupy_only_worker(pool);

  ASSERT_EQ(pool.submit_outcome([] {}, SubmitPolicy::Reject), SubmitOutcome::Accepted);
  ASSERT_EQ(pool.submit_outcome([] {}, SubmitPolicy::Reject), SubmitOutcome::Accepted);
  EXPECT_EQ(pool.submit_outcome([] {}, SubmitPolicy::Reject), SubmitOutcome::QueueFull);

  gate.set_value();
  pool.wait_idle();
  // After draining, submissions are accepted again.
  EXPECT_EQ(pool.submit_outcome([] {}, SubmitPolicy::Reject), SubmitOutcome::Accepted);
  pool.wait_idle();
}

TEST(ShardPool, BlockPolicyWaitsForBudget) {
  ShardPool pool({.workers = 1, .queue_capacity = 1, .shards = 1, .pin_threads = false});
  auto gate = occupy_only_worker(pool);
  std::atomic<int> ran{0};
  ASSERT_TRUE(pool.submit([&] { ++ran; }));  // takes the whole budget

  std::atomic<bool> blocked_submit_returned{false};
  std::thread producer([&] {
    EXPECT_TRUE(pool.submit([&] { ++ran; }, SubmitPolicy::Block));
    blocked_submit_returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(blocked_submit_returned.load());  // backpressure is holding it

  gate.set_value();
  producer.join();
  pool.wait_idle();
  EXPECT_TRUE(blocked_submit_returned.load());
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(pool.shard_stats()[0].queue_high_water, 1u);
}

TEST(ShardPool, WaitIdleIsACompletionBarrier) {
  ShardPool pool({.workers = 4, .queue_capacity = 16, .pin_threads = false});
  std::atomic<int> done{0};
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(pool.submit([&] { ++done; }));
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 32);
  const auto util = pool.worker_utilization();
  EXPECT_EQ(util.size(), 4u);
  for (const double u : util) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

TEST(ShardPool, SubmitAfterShutdownReturnsShutDown) {
  ShardPool pool({.workers = 2, .queue_capacity = 4, .pin_threads = false});
  auto strand = pool.make_strand();
  pool.shutdown();
  EXPECT_EQ(pool.submit_outcome([] {}), SubmitOutcome::ShutDown);
  EXPECT_EQ(pool.submit_outcome(strand, [] {}), SubmitOutcome::ShutDown);
}

// A submitter blocked on budget is released by shutdown() with ShutDown,
// while the job already admitted still runs before the workers join.
TEST(ShardPool, ShutdownReleasesBlockedSubmitter) {
  ShardPool pool({.workers = 1, .queue_capacity = 1, .shards = 1, .pin_threads = false});
  auto gate = occupy_only_worker(pool);
  std::atomic<int> ran{0};
  ASSERT_TRUE(pool.submit([&] { ++ran; }));  // takes the whole budget

  SubmitOutcome blocked = SubmitOutcome::Accepted;
  std::thread producer([&] { blocked = pool.submit_outcome([&] { ++ran; }); });
  std::thread closer([&] { pool.shutdown(); });  // joins only after the gate opens
  producer.join();
  EXPECT_EQ(blocked, SubmitOutcome::ShutDown);

  gate.set_value();
  closer.join();
  EXPECT_EQ(ran.load(), 1);
}

// A budget of 0 could never admit a job: Block would wait until shutdown and
// Reject would always report QueueFull, so the pool refuses it up front.
TEST(ShardPool, ZeroQueueCapacityIsRefused) {
  EXPECT_THROW(ShardPool({.workers = 1, .queue_capacity = 0, .pin_threads = false}),
               std::invalid_argument);
  EXPECT_THROW(FrameServer({.workers = 1, .queue_capacity = 0, .pin_threads = false}),
               std::invalid_argument);
  // A worker count of 0 is still raised to one worker.
  ShardPool pool({.workers = 0, .queue_capacity = 1, .pin_threads = false});
  EXPECT_EQ(pool.worker_count(), 1u);
}

// A stream's frames must complete in submission order even when the pool has
// several shards and idle workers steal the stream's strand token between
// frames: at most one frame of a stream runs at a time, and completions are
// published before the token reposts.
TEST(ShardPool, StreamCompletionsArriveInSubmitOrder) {
  constexpr std::uint64_t kFrames = 200;
  FrameServer server({.workers = 4, .queue_capacity = 64, .shards = 2, .pin_threads = false});
  const auto config = make_config(16, 16, 4);
  const auto id = server.open_stream(
      {.name = "ordered", .kind = EngineKind::Compressed, .engine = config, .keep_output = false});
  const auto frame = image::make_natural_image(16, 16, {.seed = 7});

  std::mutex order_mutex;
  std::vector<std::uint64_t> completion_order;
  for (std::uint64_t f = 0; f < kFrames; ++f) {
    ASSERT_TRUE(server.submit(id, frame, SubmitPolicy::Block, [&](FrameResult result) {
      std::unique_lock lock(order_mutex);
      completion_order.push_back(result.frame_seq);
    }));
  }
  server.wait_idle();

  ASSERT_EQ(completion_order.size(), kFrames);
  for (std::uint64_t f = 0; f < kFrames; ++f) {
    EXPECT_EQ(completion_order[f], f) << "completion " << f << " out of order";
  }
}

// 100:1 skew: both of shard 0's workers are wedged on blocker jobs while a
// hot strand homed on shard 0 holds 100 queued frames and shard 1 holds one.
// The only way the hot strand's work can finish is shard 1's workers
// stealing its token from shard 0's run queue — once per frame, because the
// token reposts to its home shard after every job.
TEST(ShardPool, IdleShardStealsFromBusyShardUnderSkew) {
  constexpr std::uint64_t kHotJobs = 100;
  ShardPool pool({.workers = 4, .queue_capacity = 256, .shards = 2, .pin_threads = false});
  ASSERT_EQ(pool.shard_count(), 2u);

  std::atomic<bool> release{false};
  std::atomic<std::uint64_t> quick_done{0};

  // Wedge shard 0: one blocker per shard-0 worker, on distinct strands so
  // both run simultaneously.
  for (int b = 0; b < 2; ++b) {
    auto blocker = pool.make_strand(0);
    ASSERT_TRUE(pool.submit(blocker, [&] {
      while (!release.load(std::memory_order_acquire)) std::this_thread::yield();
    }));
  }

  auto hot = pool.make_strand(0);
  ASSERT_EQ(hot->home_shard(), 0u);
  for (std::uint64_t j = 0; j < kHotJobs; ++j) {
    ASSERT_TRUE(pool.submit(hot, [&] { ++quick_done; }));
  }
  auto cold = pool.make_strand(1);
  ASSERT_EQ(cold->home_shard(), 1u);
  ASSERT_TRUE(pool.submit(cold, [&] { ++quick_done; }));

  // All quick jobs must drain while the blockers still wedge two workers —
  // the load only balances if idle workers steal across the shard boundary.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (quick_done.load() < kHotJobs + 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "stealing never happened";
    std::this_thread::yield();
  }
  release.store(true, std::memory_order_release);
  pool.wait_idle();

  const auto stats = pool.shard_stats();
  ASSERT_EQ(stats.size(), 2u);
  // In the common interleaving shard 0's own workers pick up the blockers
  // and shard 1 steals the hot token once per frame (~100 steals). A shard-1
  // worker may instead steal a blocker before shard 0 wakes; even then the
  // blocker itself crossed the shard boundary, so at least one steal is the
  // interleaving-independent invariant.
  EXPECT_GE(total_steals(pool), 1u);
  std::uint64_t executed = 0;
  for (const auto& s : stats) executed += s.executed;
  EXPECT_EQ(executed, kHotJobs + 3);  // 100 hot + 1 cold + 2 blockers
}

// Arena buffers outlive the stream that produced them: frames recycled while
// stream A was open must be handed back out (no fresh allocation) to a
// stream B opened after A closed.
TEST(ShardPool, ArenaRecyclesPayloadsAcrossStreamLifetimes) {
  FrameServer server({.workers = 2, .queue_capacity = 16, .shards = 1, .pin_threads = false});
  const auto config = make_config(32, 32, 4);
  const auto frame = image::make_natural_image(32, 32, {.seed = 3});

  const auto stream_a = server.open_stream(
      {.name = "a", .kind = EngineKind::Compressed, .engine = config, .keep_output = false});
  for (int f = 0; f < 8; ++f) {
    auto payload = server.acquire_frame(stream_a);
    ASSERT_EQ(payload.width(), 32u);
    ASSERT_EQ(payload.height(), 32u);
    std::copy(frame.pixels().begin(), frame.pixels().end(), payload.pixels().begin());
    ASSERT_TRUE(server.submit(stream_a, std::move(payload), SubmitPolicy::Block));
  }
  server.wait_idle();

  auto stats = server.stats();
  ASSERT_EQ(stats.shards.size(), 1u);
  const auto after_a = stats.shards[0].arena;
  EXPECT_GE(after_a.recycled, 8u) << "processed payloads must return to the arena";

  ASSERT_TRUE(server.close_stream(stream_a));
  const auto stream_b = server.open_stream(
      {.name = "b", .kind = EngineKind::Compressed, .engine = config, .keep_output = false});

  auto reused = server.acquire_frame(stream_b);
  ASSERT_EQ(reused.size(), frame.size());
  stats = server.stats();
  const auto after_b = stats.shards[0].arena;
  EXPECT_GT(after_b.reuses, after_a.reuses)
      << "a stream opened after close_stream must draw from the recycled pool";
  ASSERT_TRUE(server.submit(stream_b, std::move(reused), SubmitPolicy::Block));
  server.wait_idle();
}

// A 1-shard pool must reproduce a direct reentrant engine run: same
// reconstruction bits, same window counts, at lossless and lossy thresholds
// alike.
TEST(ShardPool, SingleShardMatchesDirectEngineBitExactly) {
  for (const int threshold : {0, 2}) {
    const auto config = make_config(40, 40, 8, threshold);
    const core::CompressedEngine direct(config);
    const auto frame = image::make_natural_image(40, 40, {.seed = 11});
    const auto expected = direct.run_reentrant(
        frame, [](std::size_t, std::size_t, const core::WindowView&) {});

    FrameServer server({.workers = 4, .queue_capacity = 8, .shards = 1, .pin_threads = false});
    ASSERT_EQ(server.shard_count(), 1u);
    const auto id = server.open_stream(
        {.name = "diff", .kind = EngineKind::Compressed, .engine = config});

    std::mutex result_mutex;
    std::vector<core::CompressedRunResult> results(4);
    for (std::size_t f = 0; f < results.size(); ++f) {
      ASSERT_TRUE(server.submit(id, frame, SubmitPolicy::Block, [&, f](FrameResult r) {
        std::unique_lock lock(result_mutex);
        results[f] = {std::move(r.reconstructed), std::move(r.stats)};
      }));
    }
    server.wait_idle();

    for (const auto& result : results) {
      EXPECT_EQ(result.reconstructed, expected.reconstructed)
          << "threshold " << threshold << ": sharded run diverged from direct engine";
      EXPECT_EQ(result.stats.windows_emitted(), expected.stats.windows_emitted());
    }
  }
}

// TSan-targeted stress mirroring RuntimeStress.ManySmallFramesAcrossEight-
// Workers on the sharded pool: several producers over strands on forced
// shards, a stats poller racing the workers (shard_stats + utilization +
// per-stream queue probes), striped submissions mixed in, and conservation
// asserts at the end. No sleeps, no timing assumptions.
TEST(ShardPoolStress, SkewedProducersWithLiveStatsPoller) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kFramesPerProducer = 40;

  FrameServer server({.workers = 8, .queue_capacity = 32, .shards = 2, .pin_threads = false});
  const auto config = make_config(16, 16, 4);
  const auto frame = image::make_natural_image(16, 16, {.seed = 42});
  const auto big = make_config(48, 48, 8);
  const auto big_frame = image::make_natural_image(48, 48, {.seed = 2});

  // Skewed placement: every producer stream is hinted onto shard 0, the
  // striped stream onto shard 1 — stealing and cross-shard stats run hot.
  std::vector<std::uint32_t> stream_ids;
  for (std::size_t i = 0; i < kProducers; ++i) {
    stream_ids.push_back(server.open_stream({.name = "s" + std::to_string(i),
                                             .kind = EngineKind::Compressed,
                                             .engine = config,
                                             .keep_output = false,
                                             .shard_hint = 0}));
  }
  const auto big_id = server.open_stream(
      {.name = "big", .kind = EngineKind::Compressed, .engine = big, .shard_hint = 1});

  std::atomic<std::uint64_t> callbacks{0};
  std::atomic<bool> stop_polling{false};
  std::thread poller([&] {
    while (!stop_polling.load()) {
      const auto snap = server.stats();
      EXPECT_LE(snap.frames_completed, snap.frames_submitted);
      EXPECT_EQ(snap.shards.size(), server.shard_count());
      for (const auto& shard : snap.shards) {
        EXPECT_LE(shard.queue_depth, shard.queue_capacity);
        for (const double u : shard.worker_utilization) {
          EXPECT_GE(u, 0.0);
          EXPECT_LE(u, 1.0);
        }
      }
      EXPECT_LE(server.queue_depth_for(stream_ids[0]), server.queue_capacity_for(stream_ids[0]));
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t f = 0; f < kFramesPerProducer; ++f) {
        EXPECT_TRUE(server.submit(stream_ids[p], frame, SubmitPolicy::Block,
                                  [&](FrameResult) { ++callbacks; }));
      }
    });
  }
  for (int i = 0; i < 4; ++i) {
    const auto result = server.submit_striped(big_id, big_frame, 8);
    EXPECT_EQ(result.reconstructed, big_frame);
  }
  for (auto& t : producers) t.join();
  server.wait_idle();
  stop_polling = true;
  poller.join();

  const auto stats = server.stats();
  const std::uint64_t expected = kProducers * kFramesPerProducer;
  EXPECT_EQ(callbacks.load(), expected);
  EXPECT_EQ(stats.frames_completed, expected + 4);  // striped frames count too
  EXPECT_EQ(stats.frames_rejected, 0u);
  std::uint64_t per_stream = 0;
  for (const auto& s : stats.streams) per_stream += s.frames_completed;
  EXPECT_EQ(per_stream, expected + 4);
}

// Shutdown with queued strand tokens: every accepted job still executes
// (drain-in-place), and the pool joins cleanly with producers racing it.
TEST(ShardPoolStress, ShutdownDrainsEveryAcceptedJob) {
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> executed{0};
    {
      ShardPool pool({.workers = 3, .queue_capacity = 64, .shards = 2, .pin_threads = false});
      std::vector<std::thread> producers;
      for (int p = 0; p < 3; ++p) {
        producers.emplace_back([&, p] {
          auto strand = pool.make_strand(static_cast<std::size_t>(p));
          for (int j = 0; j < 50; ++j) {
            if (pool.submit(strand, [&] { ++executed; }, SubmitPolicy::Block)) ++accepted;
          }
        });
      }
      for (auto& t : producers) t.join();
      pool.shutdown();
    }
    EXPECT_EQ(executed.load(), accepted.load()) << "accepted jobs lost at shutdown";
  }
}

// Sanity on the steal counter's monotonic aggregation (used by telemetry).
TEST(ShardPool, StealAndParkCountersAggregate) {
  ShardPool pool({.workers = 2, .queue_capacity = 8, .shards = 2, .pin_threads = false});
  auto strand = pool.make_strand(0);
  for (int j = 0; j < 16; ++j) {
    ASSERT_TRUE(pool.submit(strand, [] {}));
  }
  pool.wait_idle();
  const auto stats = pool.shard_stats();
  std::uint64_t executed = 0;
  for (const auto& s : stats) executed += s.executed;
  EXPECT_EQ(executed, 16u);
  EXPECT_EQ(total_steals(pool), stats[0].steals + stats[1].steals);
}

}  // namespace
}  // namespace swc::runtime
