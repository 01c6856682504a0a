// Stochastic processes that drive resource fluctuation in the simulator.
//
// The paper's central experimental condition is that "Grid resource
// performance fluctuates" — CPUs are time-shared and reclaimed, hosts churn,
// networks clog. These small processes generate that behaviour:
//   * Ar1Process    — mean-reverting CPU availability fraction,
//   * DurationSampler — up/down episode lengths for host churn,
//   * SpikeSchedule — scripted events (the SC98 "judging at 11:00" spike).
#pragma once

#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"

namespace ew::sim {

/// Mean-reverting AR(1) process clamped to [lo, hi]:
///   x' = x + theta * (mu - x) + sigma * N(0,1)
/// Used for per-host CPU availability (fraction of peak rate a guest job
/// receives on a time-shared machine).
class Ar1Process {
 public:
  struct Params {
    double mu = 0.7;      // long-run mean
    double theta = 0.2;   // reversion strength per step
    double sigma = 0.1;   // innovation stddev per step
    double lo = 0.02;
    double hi = 1.0;
  };
  Ar1Process(Params p, Rng rng, double initial);

  /// Advance one step and return the new value.
  double step();
  [[nodiscard]] double value() const { return x_; }
  /// Temporarily depress the mean (ambient contention); factor in (0, 1].
  void set_pressure(double factor) { pressure_ = factor; }

 private:
  Params p_;
  Rng rng_;
  double x_;
  double pressure_ = 1.0;
};

/// Samples episode durations for host availability churn. Up-times are
/// lognormal (long tail: some hosts stay for hours), down-times exponential.
class DurationSampler {
 public:
  struct Params {
    Duration mean_up = 2 * kHour;
    Duration mean_down = 10 * kMinute;
    double up_sigma = 1.0;  // lognormal shape for up durations
  };
  DurationSampler(Params p, Rng rng) : p_(p), rng_(rng) {}

  [[nodiscard]] Duration next_up();
  [[nodiscard]] Duration next_down();

 private:
  Params p_;
  Rng rng_;
};

/// A scripted fluctuation event: between [start, end) the network congestion
/// multiplier is raised, extra message loss is injected, and a fraction of
/// hosts is reclaimed by competing demonstrations — the Figure-2 judging
/// spike.
struct Spike {
  TimePoint start = 0;
  TimePoint end = 0;
  double congestion = 1.0;      // network latency multiplier during the spike
  double cpu_pressure = 1.0;    // multiplier (<1) on host availability means
  double reclaim_fraction = 0;  // fraction of hosts reclaimed at spike start
  std::string label;
};

/// Ordered spike list with point queries.
class SpikeSchedule {
 public:
  void add(Spike s) { spikes_.push_back(std::move(s)); }
  /// The spike active at time t, or nullptr.
  [[nodiscard]] const Spike* active(TimePoint t) const;
  [[nodiscard]] const std::vector<Spike>& spikes() const { return spikes_; }

 private:
  std::vector<Spike> spikes_;
};

/// A pre-generated scalar measurement trace — the shape the dynamic
/// benchmarking layer sees when a recorded run is replayed rather than
/// measured live. synthetic_rtt() produces the SC98-style round-trip
/// profile: a lognormal service-time baseline modulated by a mean-reverting
/// AR(1) load factor, with occasional contention spikes.
class MeasurementTrace {
 public:
  struct RttParams {
    double base = 100.0e3;      // median service time (e.g. microseconds)
    double sigma = 0.25;        // lognormal shape of the per-request noise
    double spike_factor = 8.0;  // multiplier while a load spike is active
    double spike_prob = 0.01;   // per-sample probability a spike begins
    std::size_t spike_len = 20; // samples a spike lasts
  };

  explicit MeasurementTrace(std::vector<double> values)
      : values_(std::move(values)) {}

  static MeasurementTrace synthetic_rtt(std::size_t n, Rng rng, RttParams p);
  static MeasurementTrace synthetic_rtt(std::size_t n, Rng rng) {
    return synthetic_rtt(n, rng, RttParams{});
  }

  [[nodiscard]] const std::vector<double>& values() const { return values_; }
  [[nodiscard]] std::size_t size() const { return values_.size(); }

 private:
  std::vector<double> values_;
};

}  // namespace ew::sim
