#include "sim/traces.hpp"

#include <algorithm>
#include <cmath>

namespace ew::sim {

Ar1Process::Ar1Process(Params p, Rng rng, double initial)
    : p_(p), rng_(rng), x_(std::clamp(initial, p.lo, p.hi)) {}

double Ar1Process::step() {
  const double mu = p_.mu * pressure_;
  x_ += p_.theta * (mu - x_) + p_.sigma * rng_.normal(0.0, 1.0);
  x_ = std::clamp(x_, p_.lo, p_.hi);
  return x_;
}

Duration DurationSampler::next_up() {
  // Lognormal with the requested mean: mean = exp(mu + sigma^2/2).
  const double sigma = p_.up_sigma;
  const double mu = std::log(static_cast<double>(p_.mean_up)) - sigma * sigma / 2.0;
  const double v = rng_.lognormal(mu, sigma);
  return std::max<Duration>(static_cast<Duration>(v), kSecond);
}

Duration DurationSampler::next_down() {
  const double v = rng_.exponential(static_cast<double>(p_.mean_down));
  return std::max<Duration>(static_cast<Duration>(v), kSecond);
}

const Spike* SpikeSchedule::active(TimePoint t) const {
  for (const auto& s : spikes_) {
    if (t >= s.start && t < s.end) return &s;
  }
  return nullptr;
}

MeasurementTrace MeasurementTrace::synthetic_rtt(std::size_t n, Rng rng,
                                                 RttParams p) {
  std::vector<double> v;
  v.reserve(n);
  Ar1Process load(Ar1Process::Params{}, Rng(rng.next_u64()), 0.7);
  std::size_t spike_left = 0;
  const double mu = std::log(p.base) - p.sigma * p.sigma / 2.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (spike_left == 0 && rng.next_double() < p.spike_prob) {
      spike_left = p.spike_len;
    }
    // Low availability -> slow responses: divide by the AR(1) load factor.
    double rtt = rng.lognormal(mu, p.sigma) / std::max(load.step(), 0.05);
    if (spike_left > 0) {
      rtt *= p.spike_factor;
      --spike_left;
    }
    v.push_back(rtt);
  }
  return MeasurementTrace(std::move(v));
}

}  // namespace ew::sim
