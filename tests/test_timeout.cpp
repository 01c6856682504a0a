// Tests for dynamic time-out discovery (paper Section 2.2).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "forecast/timeout.hpp"

namespace ew {
namespace {

TEST(AdaptiveTimeout, InitialBeforeAnyMeasurement) {
  AdaptiveTimeout t;
  RttStream s(AdaptiveTimeout::kTailWindow);
  EXPECT_EQ(t.timeout(s), AdaptiveTimeout::kInitial);
}

TEST(AdaptiveTimeout, ConvergesAboveObservedRtt) {
  AdaptiveTimeout t;
  RttStream s(AdaptiveTimeout::kTailWindow);
  for (int i = 0; i < 50; ++i) t.on_result(s, 100 * kMillisecond, true);
  const Duration to = t.timeout(s);
  EXPECT_GT(to, 100 * kMillisecond);          // above the RTT
  EXPECT_LT(to, 2 * kSecond);                 // but not absurdly so
}

TEST(AdaptiveTimeout, RespectsFloor) {
  AdaptiveTimeout::Options o;
  o.floor = 200 * kMillisecond;
  AdaptiveTimeout t(o);
  RttStream s(AdaptiveTimeout::kTailWindow);
  for (int i = 0; i < 50; ++i) t.on_result(s, 1 * kMillisecond, true);
  EXPECT_GE(t.timeout(s), o.floor);
}

TEST(AdaptiveTimeout, RespectsCeiling) {
  AdaptiveTimeout::Options o;
  o.ceiling = 10 * kSecond;
  AdaptiveTimeout t(o);
  RttStream s(AdaptiveTimeout::kTailWindow);
  for (int i = 0; i < 50; ++i) t.on_result(s, 60 * kSecond, true);
  EXPECT_LE(t.timeout(s), o.ceiling);
}

TEST(AdaptiveTimeout, FailuresInflateTimeout) {
  AdaptiveTimeout t;
  RttStream s(AdaptiveTimeout::kTailWindow);
  for (int i = 0; i < 20; ++i) t.on_result(s, 100 * kMillisecond, true);
  const Duration before = t.timeout(s);
  for (int i = 0; i < 10; ++i) t.on_result(s, before, false);
  EXPECT_GT(t.timeout(s), before);
}

TEST(AdaptiveTimeout, RecoversAfterFailures) {
  AdaptiveTimeout t;
  RttStream s(AdaptiveTimeout::kTailWindow);
  for (int i = 0; i < 20; ++i) t.on_result(s, 100 * kMillisecond, true);
  for (int i = 0; i < 5; ++i) t.on_result(s, t.timeout(s), false);
  const Duration inflated = t.timeout(s);
  for (int i = 0; i < 100; ++i) t.on_result(s, 100 * kMillisecond, true);
  EXPECT_LT(t.timeout(s), inflated);
}

TEST(AdaptiveTimeout, TracksLoadIncrease) {
  // RTTs jump 10x; the time-out must follow within a modest number of
  // observations (the SCINet reconfiguration scenario).
  AdaptiveTimeout t;
  RttStream s(AdaptiveTimeout::kTailWindow);
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    t.on_result(s, static_cast<Duration>(100 * kMillisecond * rng.uniform(0.8, 1.2)),
                true);
  }
  for (int i = 0; i < 40; ++i) {
    const Duration rtt =
        static_cast<Duration>(1000 * kMillisecond * rng.uniform(0.8, 1.2));
    t.on_result(s, rtt, rtt <= t.timeout(s));
  }
  EXPECT_GT(t.timeout(s), 1000 * kMillisecond);
}

TEST(AdaptiveTimeout, PerTagIsolation) {
  // One stream per (server, message type) tag: what one learns, the other
  // does not.
  AdaptiveTimeout t;
  RttStream fast(AdaptiveTimeout::kTailWindow);
  RttStream slow(AdaptiveTimeout::kTailWindow);
  for (int i = 0; i < 30; ++i) {
    t.on_result(fast, 10 * kMillisecond, true);
    t.on_result(slow, 5 * kSecond, true);
  }
  EXPECT_LT(t.timeout(fast), t.timeout(slow));
}

TEST(AdaptiveTimeout, FailureIsAMeasurementButNeverATailSample) {
  AdaptiveTimeout t;
  RttStream s(AdaptiveTimeout::kTailWindow);
  EXPECT_EQ(AdaptiveTimeout::observed_quantile(s, 0.95), 0);
  // A failed request feeds the forecaster an inflated pseudo-sample of the
  // time-out it waited out, so the stream counts as measured ...
  t.on_result(s, t.timeout(s), false);
  EXPECT_EQ(s.forecaster.samples(), 1u);
  EXPECT_GT(t.timeout(s), AdaptiveTimeout::kInitial);
  // ... but the tail window holds successful RTTs only: no hedge trigger.
  EXPECT_TRUE(s.tail.empty());
  EXPECT_EQ(AdaptiveTimeout::observed_quantile(s, 0.95), 0);
  t.on_result(s, 100 * kMillisecond, true);
  EXPECT_EQ(AdaptiveTimeout::observed_quantile(s, 0.95), 100 * kMillisecond);
}

TEST(AdaptiveTimeout, GlobalOverrideFreezesPolicy) {
  AdaptiveTimeout t;
  RttStream s(AdaptiveTimeout::kTailWindow);
  for (int i = 0; i < 30; ++i) t.on_result(s, 100 * kMillisecond, true);
  {
    AdaptiveTimeout::StaticOverrideGuard guard(7 * kSecond);
    EXPECT_EQ(t.timeout(s), 7 * kSecond);
    EXPECT_EQ(AdaptiveTimeout::global_static_override(), 7 * kSecond);
  }
  EXPECT_EQ(AdaptiveTimeout::global_static_override(), 0);
  EXPECT_NE(t.timeout(s), 7 * kSecond);
}

/// Property sweep: across lognormal RTT distributions, the converged
/// adaptive time-out yields a low spurious-timeout rate while staying within
/// a small multiple of the typical RTT (tight AND safe).
class TimeoutProperty : public ::testing::TestWithParam<double> {};

TEST_P(TimeoutProperty, LowSpuriousRateTightBound) {
  const double sigma = GetParam();
  Rng rng(static_cast<std::uint64_t>(sigma * 100));
  AdaptiveTimeout t;
  RttStream s(AdaptiveTimeout::kTailWindow);
  const double median_ms = 200.0;
  // Warm up.
  for (int i = 0; i < 200; ++i) {
    const auto rtt = static_cast<Duration>(median_ms * kMillisecond *
                                           rng.lognormal(0.0, sigma));
    t.on_result(s, rtt, rtt <= t.timeout(s));
  }
  int spurious = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const auto rtt = static_cast<Duration>(median_ms * kMillisecond *
                                           rng.lognormal(0.0, sigma));
    const bool ok = rtt <= t.timeout(s);
    spurious += ok ? 0 : 1;
    t.on_result(s, rtt, ok);
  }
  EXPECT_LT(static_cast<double>(spurious) / n, 0.08) << "sigma=" << sigma;
}

INSTANTIATE_TEST_SUITE_P(JitterShapes, TimeoutProperty,
                         ::testing::Values(0.1, 0.25, 0.5, 0.8));

}  // namespace
}  // namespace ew
