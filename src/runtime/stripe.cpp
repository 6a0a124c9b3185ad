#include "runtime/stripe.hpp"

#include <algorithm>
#include <stdexcept>

namespace swc::runtime {

std::vector<Stripe> plan_stripes(const core::SlidingWindowSpec& spec, std::size_t max_stripes) {
  spec.validate();
  const std::size_t n = spec.window;
  const std::size_t total_output_rows = spec.image_height - n + 1;
  const std::size_t count = std::max<std::size_t>(1, std::min(max_stripes, total_output_rows));

  std::vector<Stripe> stripes;
  stripes.reserve(count);
  const std::size_t base = total_output_rows / count;
  const std::size_t extra = total_output_rows % count;
  std::size_t row = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t owned = base + (i < extra ? 1 : 0);
    Stripe s;
    s.index = i;
    s.output_row_begin = row;
    s.output_rows = owned;
    s.input_row_begin = row;
    s.input_rows = owned + n - 1;  // owned window rows + (N-1)-row halo
    stripes.push_back(s);
    row += owned;
  }
  return stripes;
}

image::ImageU8 extract_stripe(const image::ImageU8& img, const Stripe& stripe) {
  if (stripe.input_row_end() > img.height()) {
    throw std::invalid_argument("extract_stripe: stripe exceeds image height");
  }
  image::ImageU8 piece(img.width(), stripe.input_rows);
  for (std::size_t y = 0; y < stripe.input_rows; ++y) {
    const auto src = img.row(stripe.input_row_begin + y);
    std::copy(src.begin(), src.end(), piece.row(y).begin());
  }
  return piece;
}

core::CompressedRunResult merge_stripes(const core::SlidingWindowSpec& spec,
                                        const std::vector<Stripe>& stripes,
                                        std::vector<core::CompressedRunResult> parts) {
  if (stripes.empty() || stripes.size() != parts.size()) {
    throw std::invalid_argument("merge_stripes: stripe/result count mismatch");
  }
  core::CompressedRunResult merged;
  merged.reconstructed = image::ImageU8(spec.image_width, spec.image_height);
  for (std::size_t i = 0; i < stripes.size(); ++i) {
    const Stripe& s = stripes[i];
    const auto& part = parts[i];
    // A stripe owns the image rows matching its owned window rows; the last
    // stripe also owns the N-1 tail rows it flushed.
    const bool last = i + 1 == stripes.size();
    const std::size_t rows = s.output_rows + (last ? spec.window - 1 : 0);
    for (std::size_t y = 0; y < rows; ++y) {
      const auto src = part.reconstructed.row(y);
      std::copy(src.begin(), src.end(), merged.reconstructed.row(s.input_row_begin + y).begin());
    }
    merged.stats.merge(part.stats);
  }
  return merged;
}

core::CompressedRunResult run_compressed_rate_controlled(const core::EngineConfig& config,
                                                         const image::ImageU8& img,
                                                         std::size_t max_stripes,
                                                         core::RateController& controller) {
  config.validate();
  const auto stripes = plan_stripes(config.spec, max_stripes);
  std::vector<core::CompressedRunResult> parts(stripes.size());
  for (std::size_t i = 0; i < stripes.size(); ++i) {
    const Stripe& s = stripes[i];
    core::EngineConfig local = config;
    local.spec.image_height = s.input_rows;
    const core::CompressedEngine engine(local);
    const image::ImageU8 piece = extract_stripe(img, s);

    bitpack::ColumnCodecConfig codec = config.codec;
    codec.threshold = controller.threshold();
    parts[i] = engine.run_with_codec(piece, codec,
                                     [](std::size_t, std::size_t, const core::WindowView&) {});
    (void)controller.observe(core::achieved_rate(controller.config().mode, piece, parts[i]));
  }
  return merge_stripes(config.spec, stripes, std::move(parts));
}

}  // namespace swc::runtime
