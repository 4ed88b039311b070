// The planner's per-pair query-rate forecast (the λ the optimizers plan
// on).
//
// The paper's optimizers treat λ_ij as known; live, the authority only
// sees a stream of RRC reports per (cache, record) pair.  Each pair's
// forecast is an EWMA over those reports,
//
//   level = α·x_t + (1-α)·level,  α = 0.3,
//
// seeded by the first report.  It smooths report noise, and its whole
// state is the level (4 bytes in the demand table's per-pair state).
#pragma once

#include <algorithm>

namespace dnscup::planner {

struct LambdaEstimator {
  /// Smoothing weight of the newest report.
  static constexpr float kAlpha = 0.3f;

  /// < 0 marks "unseeded" (valid because observed rates are never
  /// negative).
  float level = -1.0f;

  bool seeded() const { return level >= 0.0f; }

  /// Forecast for the next window; 0 when unseeded.
  double forecast() const {
    return seeded() ? static_cast<double>(level) : 0.0;
  }

  /// Folds one observed rate in and returns the new forecast.
  double update(double observed) {
    const float x = static_cast<float>(std::max(observed, 0.0));
    level = seeded() ? kAlpha * x + (1.0f - kAlpha) * level : x;
    return forecast();
  }
};

}  // namespace dnscup::planner
