#include "runtime/shard_pool.hpp"

#include <algorithm>
#include <stdexcept>

namespace swc::runtime {
namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ShardPool::ShardPool(ShardPoolOptions options) : options_([&] {
  ShardPoolOptions o = options;
  if (o.queue_capacity == 0) {
    throw std::invalid_argument("ShardPool: queue_capacity must be at least 1");
  }
  if (o.workers == 0) o.workers = 1;
  if (o.shards == 0) {
    o.shards = std::min(Topology::system().node_count(), o.workers);
  }
  o.shards = std::max<std::size_t>(1, std::min(o.shards, o.workers));
  return o;
}()) {
  const Topology& topo = Topology::system();
  const std::size_t shard_count = options_.shards;
  const std::size_t base = options_.workers / shard_count;
  const std::size_t extra = options_.workers % shard_count;

  busy_ns_ = std::vector<std::atomic<std::uint64_t>>(options_.workers);
  start_ns_ = std::vector<std::atomic<std::uint64_t>>(options_.workers);
  const std::uint64_t born = now_ns();
  for (auto& s : start_ns_) s.store(born, std::memory_order_relaxed);

  shards_.reserve(shard_count);
  std::size_t worker_slot = 0;
  for (std::size_t s = 0; s < shard_count; ++s) {
    auto shard = std::make_unique<Shard>(options_.arena);
    // Shards map onto NUMA nodes round-robin; with more shards than nodes
    // (a forced configuration) several shards share a node's CPUs.
    shard->cpus = topo.nodes[s % topo.node_count()].cpus;
    shard->worker_begin = worker_slot;
    shard->worker_count = base + (s < extra ? 1 : 0);
    worker_slot += shard->worker_count;
    shards_.push_back(std::move(shard));
  }

  threads_.reserve(options_.workers);
  for (std::size_t s = 0; s < shard_count; ++s) {
    Shard& shard = *shards_[s];
    bool all_pinned = shard.worker_count > 0;
    for (std::size_t i = 0; i < shard.worker_count; ++i) {
      const std::size_t slot = shard.worker_begin + i;
      threads_.emplace_back([this, s, slot] { worker_loop(s, slot); });
      if (options_.pin_threads) {
        all_pinned = pin_thread_to(threads_.back().native_handle(), shard.cpus) && all_pinned;
      } else {
        all_pinned = false;
      }
    }
    shard.pinned = all_pinned;
  }
}

ShardPool::~ShardPool() { shutdown(); }

std::shared_ptr<ShardPool::Strand> ShardPool::make_strand(std::optional<std::size_t> shard_hint) {
  const std::size_t home =
      shard_hint.has_value()
          ? *shard_hint % shards_.size()
          : next_shard_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
  return std::shared_ptr<Strand>(new Strand(home));
}

SubmitOutcome ShardPool::admit(Shard& shard, SubmitPolicy policy) {
  swc::UniqueLock lock(shard.mutex);
  if (policy == SubmitPolicy::Block) {
    while (!shard.closed && shard.pending >= options_.queue_capacity) {
      shard.budget_cv.wait(lock);
    }
  }
  if (shard.closed) return SubmitOutcome::ShutDown;
  if (shard.pending >= options_.queue_capacity) return SubmitOutcome::QueueFull;
  ++shard.pending;
  shard.pending_high_water = std::max(shard.pending_high_water, shard.pending);
  ++shard.submitting;
  return SubmitOutcome::Accepted;
}

void ShardPool::release_budget(Shard& shard) {
  {
    swc::MutexLock lock(shard.mutex);
    --shard.pending;
  }
  shard.budget_cv.notify_one();
}

void ShardPool::rollback_in_flight() {
  swc::MutexLock lock(idle_mutex_);
  if (--in_flight_ == 0) idle_cv_.notify_all();
}

void ShardPool::finish_one() { rollback_in_flight(); }

SubmitOutcome ShardPool::submit_outcome(const std::shared_ptr<Strand>& strand, Job job,
                                        SubmitPolicy policy) {
  Shard& shard = *shards_[strand->home_];
  {
    swc::MutexLock lock(idle_mutex_);
    if (shut_down_) return SubmitOutcome::ShutDown;
    ++in_flight_;
  }
  const SubmitOutcome admitted = admit(shard, policy);
  if (admitted != SubmitOutcome::Accepted) {
    rollback_in_flight();
    return admitted;
  }
  bool need_token = false;
  {
    swc::MutexLock lock(strand->mutex_);
    strand->inbox_.push_back(std::move(job));
    if (!strand->active_) {
      strand->active_ = true;
      need_token = true;
    }
  }
  {
    swc::MutexLock lock(shard.mutex);
    if (need_token) {
      Token token;
      token.strand = strand;
      token.budget_shard = static_cast<std::uint32_t>(strand->home_);
      shard.runq.push_back(std::move(token));
    }
    // Closes the submit/shutdown race: workers only exit once closed,
    // the run queue is empty, AND no producer is between budget and
    // enqueue — so a token pushed here is always drained.
    --shard.submitting;
  }
  shard.work_cv.notify_one();
  return SubmitOutcome::Accepted;
}

SubmitOutcome ShardPool::submit_outcome(Job job, SubmitPolicy policy) {
  const std::size_t s = next_shard_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
  Shard& shard = *shards_[s];
  {
    swc::MutexLock lock(idle_mutex_);
    if (shut_down_) return SubmitOutcome::ShutDown;
    ++in_flight_;
  }
  const SubmitOutcome admitted = admit(shard, policy);
  if (admitted != SubmitOutcome::Accepted) {
    rollback_in_flight();
    return admitted;
  }
  {
    swc::MutexLock lock(shard.mutex);
    Token token;
    token.job = std::move(job);
    token.budget_shard = static_cast<std::uint32_t>(s);
    shard.runq.push_back(std::move(token));
    --shard.submitting;
  }
  shard.work_cv.notify_one();
  return SubmitOutcome::Accepted;
}

void ShardPool::wait_idle() {
  swc::UniqueLock lock(idle_mutex_);
  while (in_flight_ != 0) idle_cv_.wait(lock);
}

void ShardPool::shutdown() {
  {
    swc::MutexLock lock(idle_mutex_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  for (auto& shard : shards_) {
    {
      swc::MutexLock lock(shard->mutex);
      shard->closed = true;
    }
    shard->work_cv.notify_all();
    shard->budget_cv.notify_all();
  }
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void ShardPool::run_job(Job& job, std::size_t worker_slot) {
  const auto t0 = std::chrono::steady_clock::now();
  job();
  const auto t1 = std::chrono::steady_clock::now();
  busy_ns_[worker_slot].fetch_add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()),
      std::memory_order_relaxed);
}

void ShardPool::run_token(Token token, std::size_t worker_slot) {
  Shard& budget_shard = *shards_[token.budget_shard];
  if (token.strand == nullptr) {
    release_budget(budget_shard);
    run_job(token.job, worker_slot);
    finish_one();
    return;
  }

  Strand& strand = *token.strand;
  Shard& home = *shards_[strand.home_];
  Job job;
  {
    swc::MutexLock lock(strand.mutex_);
    job = std::move(strand.inbox_.front());
    strand.inbox_.pop_front();
  }
  release_budget(home);
  run_job(job, worker_slot);
  finish_one();

  // Retire the token, repost it for the next inbox job, or — under a closed
  // pool, where a repost might never be picked up — drain the inbox here.
  {
    swc::MutexLock lock(strand.mutex_);
    if (strand.inbox_.empty()) {
      strand.active_ = false;
      return;
    }
  }
  {
    swc::UniqueLock lock(home.mutex);
    if (!home.closed) {
      home.runq.push_back(std::move(token));
      lock.unlock();
      home.work_cv.notify_one();
      return;
    }
  }
  for (;;) {
    {
      swc::MutexLock lock(strand.mutex_);
      if (strand.inbox_.empty()) {
        strand.active_ = false;
        return;
      }
      job = std::move(strand.inbox_.front());
      strand.inbox_.pop_front();
    }
    release_budget(home);
    run_job(job, worker_slot);
    finish_one();
  }
}

void ShardPool::worker_loop(std::size_t shard_index, std::size_t worker_slot) {
  Shard& home = *shards_[shard_index];
  start_ns_[worker_slot].store(now_ns(), std::memory_order_relaxed);
  for (;;) {
    Token token;
    bool have = false;
    {
      swc::MutexLock lock(home.mutex);
      if (!home.runq.empty()) {
        token = std::move(home.runq.front());
        home.runq.pop_front();
        have = true;
      } else if (home.closed && home.submitting == 0) {
        return;
      }
    }
    if (!have && shards_.size() > 1) {
      // Steal from the tail of the busiest other shard.
      std::size_t victim = shards_.size();
      std::size_t best = 0;
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        if (s == shard_index) continue;
        swc::MutexLock lock(shards_[s]->mutex);
        if (shards_[s]->runq.size() > best) {
          best = shards_[s]->runq.size();
          victim = s;
        }
      }
      if (victim < shards_.size()) {
        swc::MutexLock lock(shards_[victim]->mutex);
        if (!shards_[victim]->runq.empty()) {
          token = std::move(shards_[victim]->runq.back());
          shards_[victim]->runq.pop_back();
          have = true;
        }
      }
      if (have) {
        swc::MutexLock lock(home.mutex);
        ++home.steals;
      }
    }
    if (!have) {
      swc::UniqueLock lock(home.mutex);
      if (!home.runq.empty()) continue;  // raced a producer; retry the pop
      if (home.closed && home.submitting == 0) return;
      ++home.parks;
      // Bounded nap instead of an unconditional wait: a token queued on
      // another shard after our steal sweep must still get picked up.
      home.work_cv.wait_for(lock, std::chrono::milliseconds(1));
      continue;
    }
    {
      swc::MutexLock lock(home.mutex);
      ++home.executed;
    }
    run_token(std::move(token), worker_slot);
  }
}

std::size_t ShardPool::queue_depth(std::size_t shard) const {
  swc::MutexLock lock(shards_[shard]->mutex);
  return shards_[shard]->pending;
}

std::vector<double> ShardPool::worker_utilization() const {
  const std::uint64_t now = now_ns();
  std::vector<double> utilization(threads_.size(), 0.0);
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    // Busy time over *this worker's* elapsed loop lifetime (not the pool's
    // construction time), so late-started workers are not under-reported.
    const std::uint64_t start = start_ns_[i].load(std::memory_order_relaxed);
    if (now <= start) continue;
    utilization[i] = static_cast<double>(busy_ns_[i].load(std::memory_order_relaxed)) /
                     static_cast<double>(now - start);
    utilization[i] = std::min(utilization[i], 1.0);
  }
  return utilization;
}

std::vector<ShardStatsSnapshot> ShardPool::shard_stats() const {
  const std::vector<double> utilization = worker_utilization();
  std::vector<ShardStatsSnapshot> stats;
  stats.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    ShardStatsSnapshot snap;
    snap.shard = s;
    snap.cpus = shard.cpus;
    snap.queue_capacity = options_.queue_capacity;
    snap.workers = shard.worker_count;  // ctor-set, unguarded by design
    snap.pinned = shard.pinned;
    {
      swc::MutexLock lock(shard.mutex);
      snap.queue_depth = shard.pending;
      snap.queue_high_water = shard.pending_high_water;
      snap.executed = shard.executed;
      snap.steals = shard.steals;
      snap.parks = shard.parks;
    }
    snap.worker_utilization.assign(
        utilization.begin() + static_cast<std::ptrdiff_t>(shard.worker_begin),
        utilization.begin() + static_cast<std::ptrdiff_t>(shard.worker_begin + shard.worker_count));
    snap.arena = shard.arena.stats();
    stats.push_back(std::move(snap));
  }
  return stats;
}

}  // namespace swc::runtime
