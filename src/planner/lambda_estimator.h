// Pluggable per-pair query-rate forecasting (the λ the optimizers plan
// on).
//
// The paper's optimizers treat λ_ij as known; live, the authority only
// sees a stream of RRC reports per (cache, record) pair, and PAPERS.md
// "Modeling and Predicting DNS Server Load" argues for planning on a
// *forecast* rather than the last window — lease lengths should track
// where load is going, not where it was.
//
// The estimator is a stateless policy over a tiny per-pair State kept in
// the demand table's per-pair state (8 bytes: level + trend), so
// switching estimators costs no memory:
//
//   last-window  level = x_t                       (the pre-planner status quo)
//   ewma         level = α·x_t + (1-α)·level       (smooths report noise)
//   holt         double-exponential smoothing      (tracks ramps: forecast
//                level + trend extrapolates one window ahead)
#pragma once

#include <optional>
#include <string_view>

namespace dnscup::planner {

enum class EstimatorKind { kLastWindow, kEwma, kHolt };

struct EstimatorParams {
  double alpha = 0.3;  ///< level smoothing (ewma, holt)
  double beta = 0.1;   ///< trend smoothing (holt)
};

class LambdaEstimator {
 public:
  /// Per-pair forecasting state.  level < 0 marks "unseeded" (valid
  /// because observed rates are never negative).
  struct State {
    float level = -1.0f;
    float trend = 0.0f;

    bool seeded() const { return level >= 0.0f; }
  };

  explicit LambdaEstimator(EstimatorKind kind, EstimatorParams params = {})
      : kind_(kind), params_(params) {}

  /// Folds one observed rate into `state` and returns the new forecast.
  double update(State& state, double observed) const;

  /// Forecast for the next window from the current state (0 when
  /// unseeded).  Clamped at 0: a steep negative Holt trend must not
  /// produce a negative demand rate.
  double forecast(const State& state) const;

  EstimatorKind kind() const { return kind_; }
  const EstimatorParams& params() const { return params_; }

  static std::optional<EstimatorKind> parse(std::string_view text);
  static const char* name(EstimatorKind kind);

 private:
  EstimatorKind kind_;
  EstimatorParams params_;
};

}  // namespace dnscup::planner
