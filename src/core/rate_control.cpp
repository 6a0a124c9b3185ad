#include "core/rate_control.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/streaming_engine.hpp"
#include "image/metrics.hpp"

namespace swc::core {

namespace {
constexpr int kMaxStep = 8;
}

void RateControlConfig::validate() const {
  if (target <= 0.0) throw std::invalid_argument("rate control: target must be positive");
  if (tolerance < 0.0 || tolerance >= 1.0) {
    throw std::invalid_argument("rate control: tolerance must be in [0, 1)");
  }
  if (min_threshold > max_threshold) {
    throw std::invalid_argument("rate control: min_threshold exceeds max_threshold");
  }
  if (initial_threshold < min_threshold || initial_threshold > max_threshold) {
    throw std::invalid_argument("rate control: initial threshold outside [min, max]");
  }
}

RateController::RateController(RateControlConfig config)
    : config_(config), threshold_(config.initial_threshold) {
  config_.validate();
}

int RateController::observe(double achieved) {
  ++observations_;
  const double high = config_.target * (1.0 + config_.tolerance);
  const double low = config_.target * (1.0 - config_.tolerance);

  // Direction toward "coarser" quantization when the achieved value must
  // shrink. For bpp that is +T; for MSE the achieved value *grows* with T,
  // so the sign flips.
  int want = 0;
  if (achieved > high) {
    want = config_.mode == RateControlMode::BitsPerPixel ? +1 : -1;
  } else if (achieved < low) {
    want = config_.mode == RateControlMode::BitsPerPixel ? -1 : +1;
  }

  converged_ = want == 0;
  if (want == 0) {
    // Settled: restart gently if the scene drifts back out of band.
    step_ = 1;
    direction_ = 0;
    reversed_ = false;
    return threshold_;
  }

  if (direction_ != 0 && direction_ != want) reversed_ = true;
  if (!reversed_) {
    // Still short of the first crossing: escalate so a large target step
    // costs O(log) observations, not one per threshold unit.
    if (direction_ == want) step_ = std::min(step_ * 2, kMaxStep);
  } else {
    // Past the first crossing the target is bracketed; halving every move
    // (regardless of direction) is bisection, so the search cannot orbit
    // the target the way renewed escalation after a reversal would.
    step_ = std::max(step_ / 2, 1);
  }
  direction_ = want;
  threshold_ = std::clamp(threshold_ + want * step_, config_.min_threshold,
                          config_.max_threshold);
  return threshold_;
}

double achieved_rate(RateControlMode mode, const image::ImageU8& input,
                     const CompressedRunResult& result) {
  if (mode == RateControlMode::BitsPerPixel) {
    const auto& ids = EngineMetricIds::get();
    const auto bits =
        result.stats.metrics.sum(ids.payload_bits) + result.stats.metrics.sum(ids.management_bits);
    return static_cast<double>(bits) / static_cast<double>(input.size());
  }
  return image::mse(input, result.reconstructed);
}

}  // namespace swc::core
