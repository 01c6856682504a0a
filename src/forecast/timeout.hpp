// Dynamic time-out discovery (paper Section 2.2).
//
// "By forecasting how quickly a server would respond to each type of
// message, we were able to dynamically adjust the message time-out interval
// to account for ambient network and CPU load conditions. This dynamic
// time-out discovery proved crucial to overall program stability."
//
// AdaptiveTimeout prices one (server, message type) RTT stream: forecast +
// a fixed multiple of expected error, clamped to [floor, ceiling]. Failed
// requests feed back an inflated pseudo-sample so repeated timeouts push the
// interval up instead of thrashing. The streams themselves live with their
// owner (CallPolicy keeps one per destination and message type), so pricing
// a call never looks anything up.
#pragma once

#include <cstddef>

#include "common/clock.hpp"
#include "common/stats.hpp"
#include "forecast/selector.hpp"

namespace ew {

/// One (server, message type) RTT stream: the adaptive forecaster plus the
/// trailing window of successful RTTs behind the tail-quantile term. A new
/// stream is "never measured" until its first recorded result.
struct RttStream {
  explicit RttStream(std::size_t tail_window)
      : forecaster(AdaptiveForecaster::nws_default()), tail(tail_window) {}

  AdaptiveForecaster forecaster;
  // Ordered incrementally so timeout() reads the quantile in O(1) instead
  // of copying and partially sorting the window on every request. Fills
  // only on success.
  OrderedWindow tail;
};

/// Forecast-driven time-outs (the paper's approach). Stateless apart from
/// its options: it prices and updates whichever stream it is handed.
class AdaptiveTimeout {
 public:
  struct Options {
    Duration floor = 50 * kMillisecond;    // never spin-retry faster than this
    Duration ceiling = 60 * kSecond;       // never hang longer than this
  };

  static constexpr Duration kInitial = 5 * kSecond;  // before any measurement
  static constexpr std::size_t kTailWindow = 128;    // samples kept per stream

  AdaptiveTimeout() : AdaptiveTimeout(Options{}) {}
  explicit AdaptiveTimeout(Options opts) : opts_(opts) {}

  /// Time-out to use for the stream's next request.
  [[nodiscard]] Duration timeout(const RttStream& s) const;
  /// Report a request outcome: round-trip time and success flag.
  void on_result(RttStream& s, Duration rtt, bool ok) const;

  /// Observed RTT quantile for the stream's trailing window, or 0 when it
  /// has no successful samples yet. This is the hedging trigger: once a
  /// request outlives the q-quantile of past responses it is probably lost,
  /// and a second attempt is cheaper than waiting out the full time-out.
  [[nodiscard]] static Duration observed_quantile(const RttStream& s, double q);

  /// Experiment-wide switch for bench/ablation_timeouts: while set, every
  /// AdaptiveTimeout in the process answers with this fixed value instead of
  /// forecasting — turning the whole toolkit into the paper's rejected
  /// statically-timed-out configuration without rewiring any component.
  /// Pass 0 to restore adaptive behaviour. Not thread-safe by design: the
  /// simulator is single-threaded and scenarios toggle it around runs.
  static void set_global_static_override(Duration value);
  [[nodiscard]] static Duration global_static_override();

  /// RAII guard for the override.
  class StaticOverrideGuard {
   public:
    explicit StaticOverrideGuard(Duration value) { set_global_static_override(value); }
    ~StaticOverrideGuard() { set_global_static_override(0); }
    StaticOverrideGuard(const StaticOverrideGuard&) = delete;
    StaticOverrideGuard& operator=(const StaticOverrideGuard&) = delete;
  };

 private:
  Options opts_;
};

}  // namespace ew
