#include "forecast/timeout.hpp"

#include <algorithm>

namespace ew {

namespace {
Duration g_static_override = 0;

constexpr double kSafetyFactor = 4.0;      // multiples of expected error
constexpr double kFailureInflation = 2.0;  // pseudo-sample on timeout
/// Response times are heavy-tailed (queueing); mean + k*MAE alone
/// misjudges live-but-slow servers. The time-out also covers an
/// observed high quantile with margin.
constexpr double kTailQuantile = 0.98;
constexpr double kTailMargin = 2.5;
}  // namespace

void AdaptiveTimeout::set_global_static_override(Duration value) {
  g_static_override = value;
}

Duration AdaptiveTimeout::global_static_override() { return g_static_override; }

Duration AdaptiveTimeout::timeout(const RttStream& s) const {
  if (g_static_override > 0) return g_static_override;
  const Forecast f = s.forecaster.forecast();
  if (f.samples == 0) return kInitial;
  // forecast + k * expected error; a floor on the error term keeps a
  // perfectly-predicted stream from collapsing to a hair-trigger time-out.
  const double error = std::max(f.error, 0.1 * std::max(f.value, 1.0));
  double raw = f.value + kSafetyFactor * error;
  // Cover the observed tail: response times are heavy-tailed and a live
  // server answering at its p98 must not be declared dead.
  if (!s.tail.empty()) {
    raw = std::max(raw, s.tail.quantile(kTailQuantile) * kTailMargin);
  }
  return std::clamp(static_cast<Duration>(raw), opts_.floor, opts_.ceiling);
}

Duration AdaptiveTimeout::observed_quantile(const RttStream& s, double q) {
  if (s.tail.empty()) return 0;
  return static_cast<Duration>(s.tail.quantile(q));
}

void AdaptiveTimeout::on_result(RttStream& s, Duration rtt, bool ok) const {
  if (ok) {
    s.forecaster.observe(static_cast<double>(rtt));
    s.tail.add(static_cast<double>(rtt));
    return;
  }
  // The request never completed, so its true service time is unknown; feed
  // an inflated pseudo-sample so consecutive failures raise the time-out
  // (the paper's alternative — static time-outs — "frequently misjudged the
  // availability" of servers and caused "needless retries").
  const Duration current = timeout(s);
  s.forecaster.observe(kFailureInflation * static_cast<double>(current));
}

}  // namespace ew
