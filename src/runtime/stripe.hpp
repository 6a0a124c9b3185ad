#pragma once
// Stripe parallelism: split one large frame into horizontal stripes so a
// single frame can occupy every worker.
//
// Geometry. For an H-row image scanned by an N x N window there are
// H - N + 1 window (output) rows. plan_stripes() partitions those output
// rows into contiguous runs; the stripe that owns output rows
// [r0, r0 + k) must see input rows [r0, r0 + k + N - 1) — its k owned rows
// plus an (N - 1)-row halo, because the window anchored at the last owned
// row extends N - 1 rows below it. Adjacent stripes therefore overlap by
// exactly N - 1 input rows, and every global window position is produced by
// exactly one stripe (no duplicated window evaluations).
//
// Exactness. The compressed engine re-codes only rows *behind* the window,
// and a column's codec input at window row r depends only on input rows
// [r, r + N). Those are exactly the rows the owning stripe sees, so at
// threshold 0 (lossless codec) every striped window is bit-identical to the
// whole-frame scan — verified in tests/runtime/stripe_test.cpp. At
// threshold > 0 each row's drift depends on how many recompression cycles
// it lived through, which differs near stripe seams; stripe mode is exact
// for T = 0 and approximate (per-stripe drift) otherwise.
//
// Merging. Reconstructed rows are taken from the stripe that owns the
// matching output row (the last stripe also contributes the final N - 1
// tail rows it flushes); RunStats are folded stripe-by-stripe in order:
// per-row records concatenate, peaks take the max, window counts add up to
// exactly the whole-frame count.

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "core/config.hpp"
#include "core/rate_control.hpp"
#include "core/streaming_engine.hpp"
#include "core/sync.hpp"
#include "core/thread_annotations.hpp"
#include "image/image.hpp"
#include "runtime/shard_pool.hpp"

namespace swc::runtime {

struct Stripe {
  std::size_t index = 0;
  std::size_t input_row_begin = 0;   // first image row the stripe reads
  std::size_t input_rows = 0;        // stripe height including the halo
  std::size_t output_row_begin = 0;  // first window row the stripe owns
  std::size_t output_rows = 0;       // owned window rows

  [[nodiscard]] std::size_t input_row_end() const noexcept {
    return input_row_begin + input_rows;
  }
};

// Partition the spec's window rows into at most `max_stripes` stripes (never
// more than there are window rows). Every stripe owns at least one window
// row and carries the N-1 halo.
[[nodiscard]] std::vector<Stripe> plan_stripes(const core::SlidingWindowSpec& spec,
                                               std::size_t max_stripes);

// Copy the stripe's input rows (owned + halo) out of the frame.
[[nodiscard]] image::ImageU8 extract_stripe(const image::ImageU8& img, const Stripe& stripe);

// Reassemble the full-frame reconstructed image and merged stats from
// per-stripe engine results (in stripe order).
[[nodiscard]] core::CompressedRunResult merge_stripes(
    const core::SlidingWindowSpec& spec, const std::vector<Stripe>& stripes,
    std::vector<core::CompressedRunResult> parts);

namespace detail {

// Caller-helping fan-out: the submitting thread also executes stripe work,
// so the call completes even when the pool is saturated or absent (pool ==
// nullptr runs everything on the caller). Deadlock-free by construction.
// The claim/progress state is heap-shared because a queued helper may only
// start after the caller has already drained everything and returned; it
// still dereferences the state to discover there is no work left.
template <typename Fn>
void for_each_stripe(std::size_t count, ShardPool* pool, Fn&& fn) {
  struct Progress {
    std::atomic<std::size_t> next{0};
    swc::Mutex mutex;
    swc::CondVar cv;
    std::size_t done SWC_GUARDED_BY(mutex) = 0;
  };
  auto st = std::make_shared<Progress>();
  // fn is captured by reference: a late helper never calls it once next has
  // passed count, and the caller blocks until all claimed work is finished.
  auto drain = [st, count, &fn] {
    std::size_t finished = 0;
    for (std::size_t i = st->next.fetch_add(1); i < count; i = st->next.fetch_add(1)) {
      fn(i);
      ++finished;
    }
    if (finished > 0) {
      swc::MutexLock lock(st->mutex);
      st->done += finished;
      if (st->done == count) st->cv.notify_all();
    }
  };
  std::size_t helpers = 0;
  if (pool != nullptr && count > 1) {
    const std::size_t want = std::min(count - 1, pool->worker_count());
    for (std::size_t i = 0; i < want; ++i) {
      if (pool->submit(drain, SubmitPolicy::Reject)) ++helpers;
    }
  }
  drain();
  if (helpers > 0) {
    swc::UniqueLock lock(st->mutex);
    while (st->done != count) st->cv.wait(lock);
  }
}

}  // namespace detail

// Run one frame through the compressed engine in stripe-parallel fashion.
// `sink(global_row, col, window)` is invoked for every window position with
// GLOBAL output coordinates; distinct stripes run concurrently, so the sink
// must tolerate concurrent calls for distinct output rows (writes to
// disjoint rows of an output plane are safe). Pass pool = nullptr for a
// sequential striped run (same numerics, no threads).
template <typename Sink>
[[nodiscard]] core::CompressedRunResult run_compressed_striped(const core::EngineConfig& config,
                                                               const image::ImageU8& img,
                                                               std::size_t max_stripes,
                                                               ShardPool* pool, Sink&& sink) {
  config.validate();
  const auto stripes = plan_stripes(config.spec, max_stripes);
  std::vector<core::CompressedRunResult> parts(stripes.size());
  detail::for_each_stripe(stripes.size(), pool, [&](std::size_t i) {
    const Stripe& s = stripes[i];
    core::EngineConfig local = config;
    local.spec.image_height = s.input_rows;
    const core::CompressedEngine engine(local);
    const image::ImageU8 piece = extract_stripe(img, s);
    parts[i] = engine.run_reentrant(
        piece, [&](std::size_t r, std::size_t c, const core::WindowView& win) {
          sink(s.output_row_begin + r, c, win);
        });
  });
  return merge_stripes(config.spec, stripes, std::move(parts));
}

// No-sink convenience: the codec roundtrip view of a striped run.
[[nodiscard]] inline core::CompressedRunResult run_compressed_striped(
    const core::EngineConfig& config, const image::ImageU8& img, std::size_t max_stripes,
    ShardPool* pool) {
  return run_compressed_striped(config, img, max_stripes, pool,
                                [](std::size_t, std::size_t, const core::WindowView&) {});
}

// Closed-loop striped run: stripes are processed sequentially (top to
// bottom) and after each one the controller observes the stripe's achieved
// bits-per-pixel (or reconstruction MSE) and re-actuates the codec
// threshold, so the rate adapts *within* a single frame. Sequential by
// construction — the loop's feedback edge is the stripe order — so this is
// the rate-accuracy counterpart to the throughput-oriented parallel
// overload above. The controller keeps its state across calls; feed it
// successive frames to track a scene.
[[nodiscard]] core::CompressedRunResult run_compressed_rate_controlled(
    const core::EngineConfig& config, const image::ImageU8& img, std::size_t max_stripes,
    core::RateController& controller);

}  // namespace swc::runtime
