#pragma once
// ShardPool: the runtime's one worker pool, sharded and NUMA-aware.
//
// The pool is split into K shards. Each shard owns a run queue, a slice of
// the workers (optionally pinned to one NUMA node's CPUs), a pending-frame
// budget that implements Block/Reject backpressure, and a FrameArena for
// node-local payload/scratch recycling. K defaults to min(NUMA nodes,
// workers).
//
// Ordering: streams are serialized through *strands*. A strand is an inbox
// of jobs plus an "active" flag; at most one runnable token per strand
// exists in any run queue at a time, and the token executes exactly one
// inbox job before reposting itself to the strand's home shard. That gives
// two properties at once:
//  * a stream's jobs run (and complete) strictly in submission order, on
//    whichever worker picks the token up;
//  * between jobs the token sits in a run queue, so a skewed mix — one hot
//    stream, many idle shards — is still stealable job-by-job.
//
// Stealing: a worker with an empty home queue takes from the *tail* of the
// busiest other shard's queue (the head is the victim's next pop — stealing
// the tail minimizes both contention and affinity damage). Steal and park
// events are counted per shard for the runtime snapshot.
//
// Backpressure: the budget counts frames admitted to a shard but not yet
// started. Block waits for budget, Reject fails fast with QueueFull. A
// 1-shard pool reproduces a direct engine run bit for bit (tested against
// CompressedEngine in tests/runtime/shard_pool_test.cpp).
//
// Shutdown: after close, queued tokens still drain — a token that runs
// under a closed pool drains its strand's whole inbox in place instead of
// reposting, so every accepted job executes before the workers join.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/sync.hpp"
#include "core/thread_annotations.hpp"
#include "runtime/frame_arena.hpp"
#include "runtime/topology.hpp"

namespace swc::runtime {

enum class SubmitPolicy : std::uint8_t {
  Block,   // wait for queue space (backpressure)
  Reject,  // fail fast when the queue is full
};

// Why a submission was (not) accepted, for callers that must report the
// cause upstream (the serve layer maps these onto wire-level responses).
enum class SubmitOutcome : std::uint8_t {
  Accepted,   // job enqueued
  QueueFull,  // Reject policy and the queue was at capacity
  ShutDown,   // pool is shutting down; nothing will be accepted again
};

struct ShardPoolOptions {
  std::size_t workers = 4;          // total across shards; 0 is raised to 1
  std::size_t queue_capacity = 64;  // per-shard pending-frame budget; must be > 0
  std::size_t shards = 0;           // 0 = auto: min(NUMA nodes, workers)
  bool pin_threads = true;          // best-effort pthread_setaffinity_np
  FrameArenaOptions arena{};        // per-shard arena configuration
};

// Point-in-time view of one shard, folded into RuntimeStatsSnapshot.
struct ShardStatsSnapshot {
  std::size_t shard = 0;
  std::size_t workers = 0;
  std::vector<unsigned> cpus;  // CPUs this shard's workers are pinned to
  bool pinned = false;         // true when every worker's affinity call stuck
  std::size_t queue_depth = 0;  // admitted frames not yet started
  std::size_t queue_capacity = 0;
  std::size_t queue_high_water = 0;
  std::uint64_t executed = 0;  // jobs run by this shard's workers
  std::uint64_t steals = 0;    // tokens this shard's workers took elsewhere
  std::uint64_t parks = 0;     // times a worker slept with nothing to do
  std::vector<double> worker_utilization;  // this shard's workers only
  FrameArenaStats arena;
};

class ShardPool {
 public:
  using Job = std::function<void()>;

  // Serialization domain: all jobs submitted to one strand run in
  // submission order, one at a time, with a stable home shard. Obtain via
  // make_strand(); one per stream.
  class Strand {
   public:
    [[nodiscard]] std::size_t home_shard() const noexcept { return home_; }

   private:
    friend class ShardPool;
    explicit Strand(std::size_t home) : home_(home) {}

    const std::size_t home_;
    swc::Mutex mutex_;
    std::deque<Job> inbox_ SWC_GUARDED_BY(mutex_);
    bool active_ SWC_GUARDED_BY(mutex_) = false;  // a token is queued or running
  };

  // Throws std::invalid_argument when options.queue_capacity is 0 (no
  // submission could ever be admitted).
  explicit ShardPool(ShardPoolOptions options);
  ~ShardPool();

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  // New strand homed on shard (shard_hint mod shard_count); without a hint
  // strands are spread round-robin.
  [[nodiscard]] std::shared_ptr<Strand> make_strand(
      std::optional<std::size_t> shard_hint = std::nullopt);

  // Ordered submission through a strand (budget charged to its home shard).
  SubmitOutcome submit_outcome(const std::shared_ptr<Strand>& strand, Job job,
                               SubmitPolicy policy = SubmitPolicy::Block);
  bool submit(const std::shared_ptr<Strand>& strand, Job job,
              SubmitPolicy policy = SubmitPolicy::Block) {
    return submit_outcome(strand, std::move(job), policy) == SubmitOutcome::Accepted;
  }

  // Unordered submission (stripe fan-out, fire-and-forget work); the shard
  // is chosen round-robin.
  SubmitOutcome submit_outcome(Job job, SubmitPolicy policy = SubmitPolicy::Block);
  bool submit(Job job, SubmitPolicy policy = SubmitPolicy::Block) {
    return submit_outcome(std::move(job), policy) == SubmitOutcome::Accepted;
  }

  // Blocks until every accepted job has finished executing.
  void wait_idle() SWC_EXCLUDES(idle_mutex_);

  // Stops accepting work, drains every queue and strand, joins workers.
  // Idempotent.
  void shutdown() SWC_EXCLUDES(idle_mutex_);

  [[nodiscard]] std::size_t worker_count() const noexcept { return threads_.size(); }
  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }

  // Per-shard probes (the serve layer's admission check is per stream, so
  // it looks at the stream's own shard).
  [[nodiscard]] std::size_t queue_depth(std::size_t shard) const;
  [[nodiscard]] std::size_t queue_capacity_per_shard() const noexcept {
    return options_.queue_capacity;
  }

  // Busy fraction per worker since that worker entered its loop, in [0, 1],
  // shard-major order (shard 0's workers first).
  [[nodiscard]] std::vector<double> worker_utilization() const;

  [[nodiscard]] std::vector<ShardStatsSnapshot> shard_stats() const;

  // The shard's payload/scratch arena (thread-safe; valid for the pool's
  // lifetime).
  [[nodiscard]] FrameArena& arena(std::size_t shard) { return shards_[shard]->arena; }

 private:
  struct Token {
    std::shared_ptr<Strand> strand;  // null: plain job token
    Job job;                         // set only for plain tokens
    std::uint32_t budget_shard = 0;  // shard whose budget admitted this token
  };

  struct Shard {
    explicit Shard(const FrameArenaOptions& arena_options) : arena(arena_options) {}

    // Lock order: the arena's freelist mutex is always innermost — never
    // held while taking the shard mutex, and never locked from inside a
    // budget_cv wait (admit() holds only `mutex`).
    mutable swc::Mutex mutex SWC_ACQUIRED_AFTER(arena.mu());
    swc::CondVar work_cv;    // workers wait for tokens here
    swc::CondVar budget_cv;  // Block submitters wait for budget
    std::deque<Token> runq SWC_GUARDED_BY(mutex);
    bool closed SWC_GUARDED_BY(mutex) = false;
    std::size_t pending SWC_GUARDED_BY(mutex) = 0;  // admitted, not started
    std::size_t pending_high_water SWC_GUARDED_BY(mutex) = 0;
    std::size_t submitting SWC_GUARDED_BY(mutex) = 0;  // budget..enqueue window
    std::uint64_t executed SWC_GUARDED_BY(mutex) = 0;
    std::uint64_t steals SWC_GUARDED_BY(mutex) = 0;
    std::uint64_t parks SWC_GUARDED_BY(mutex) = 0;
    // Immutable after the pool constructor (set before workers can observe
    // the shard through stats), so deliberately unguarded.
    std::vector<unsigned> cpus;
    bool pinned = false;
    std::size_t worker_begin = 0;  // global index of first worker
    std::size_t worker_count = 0;
    FrameArena arena;
  };

  SubmitOutcome admit(Shard& shard, SubmitPolicy policy) SWC_EXCLUDES(shard.mutex);
  void release_budget(Shard& shard) SWC_EXCLUDES(shard.mutex);
  void rollback_in_flight() SWC_EXCLUDES(idle_mutex_);
  void finish_one() SWC_EXCLUDES(idle_mutex_);
  void run_job(Job& job, std::size_t worker_slot);
  void run_token(Token token, std::size_t worker_slot);
  void worker_loop(std::size_t shard_index, std::size_t worker_slot);

  const ShardPoolOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> threads_;
  std::vector<std::atomic<std::uint64_t>> busy_ns_;   // per worker
  std::vector<std::atomic<std::uint64_t>> start_ns_;  // per worker loop entry
  std::atomic<std::size_t> next_shard_{0};  // round-robin for plain/unhinted

  mutable swc::Mutex idle_mutex_;
  swc::CondVar idle_cv_;
  std::size_t in_flight_ SWC_GUARDED_BY(idle_mutex_) = 0;
  bool shut_down_ SWC_GUARDED_BY(idle_mutex_) = false;
};

}  // namespace swc::runtime
