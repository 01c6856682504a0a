#include "forecast/timeout.hpp"

#include <algorithm>

namespace ew {

namespace {
Duration g_static_override = 0;
}

void AdaptiveTimeout::set_global_static_override(Duration value) {
  g_static_override = value;
}

Duration AdaptiveTimeout::global_static_override() { return g_static_override; }

Duration AdaptiveTimeout::timeout(const RttStream& s) const {
  if (g_static_override > 0) return g_static_override;
  const Forecast f = s.forecaster.forecast();
  if (f.samples == 0) return opts_.initial;
  // forecast + k * expected error; a floor on the error term keeps a
  // perfectly-predicted stream from collapsing to a hair-trigger time-out.
  const double error = std::max(f.error, 0.1 * std::max(f.value, 1.0));
  double raw = f.value + opts_.safety_factor * error;
  // Cover the observed tail: response times are heavy-tailed and a live
  // server answering at its p98 must not be declared dead.
  if (!s.tail.empty()) {
    raw = std::max(raw, s.tail.quantile(opts_.tail_quantile) * opts_.tail_margin);
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
  s.forecaster.observe(opts_.failure_inflation * static_cast<double>(current));
}

}  // namespace ew
