// Property tests for the incremental forecaster battery: every O(log w) /
// O(1) incremental implementation must agree with a naive
// recompute-from-the-raw-window reference over long random observe/evict
// sequences. Exactness tiers (documented in DESIGN.md, "Forecasting hot
// path"):
//   * SlidingMedian, TrimmedMean — bit-identical (pure order statistics /
//     identical left-to-right sums over identically sorted arrays);
//   * SlidingMean, TrendForecaster — equal to within floating-point
//     accumulation tolerance (running sums vs. full recompute).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <deque>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "forecast/forecaster.hpp"
#include "forecast/selector.hpp"

namespace ew {
namespace {

// --- Naive reference implementations (the pre-optimization semantics) ------

class NaiveWindow {
 public:
  explicit NaiveWindow(std::size_t cap) : cap_(cap) {}
  void add(double v) {
    if (buf_.size() == cap_) buf_.pop_front();
    buf_.push_back(v);
  }
  [[nodiscard]] std::vector<double> sorted() const {
    std::vector<double> v(buf_.begin(), buf_.end());
    std::sort(v.begin(), v.end());
    return v;
  }
  [[nodiscard]] const std::deque<double>& values() const { return buf_; }

 private:
  std::size_t cap_;
  std::deque<double> buf_;
};

// The toolkit's nearest-rank median (lower middle element at even sizes),
// exactly what the naive SlidingWindow::quantile(0.5) battery computed.
double naive_median(const std::vector<double>& sorted) {
  return sorted[(sorted.size() - 1) / 2];
}

double naive_mean(const std::deque<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double naive_trimmed(const std::vector<double>& sorted, double trim) {
  const std::size_t n = sorted.size();
  const auto cut = static_cast<std::size_t>(trim * static_cast<double>(n));
  const std::size_t lo = cut, hi = n - cut;
  if (lo >= hi) return naive_median(sorted);
  double s = 0.0;
  for (std::size_t i = lo; i < hi; ++i) s += sorted[i];
  return s / static_cast<double>(hi - lo);
}

double naive_trend(const std::deque<double>& vals) {
  const std::size_t n = vals.size();
  if (n == 0) return 0.0;
  if (n == 1) return vals.back();
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  std::size_t i = 0;
  for (double v : vals) {
    const auto x = static_cast<double>(i++);
    sx += x;
    sy += v;
    sxx += x * x;
    sxy += x * v;
  }
  const auto dn = static_cast<double>(n);
  const double denom = dn * sxx - sx * sx;
  if (std::abs(denom) < 1e-12) return sy / dn;
  const double slope = (dn * sxy - sx * sy) / denom;
  const double intercept = (sy - slope * sx) / dn;
  return intercept + slope * dn;
}

// --- Value generators ------------------------------------------------------

/// NaN-free fuzz double in the measurement domain, test_fuzz style: random
/// 64-bit patterns bit-cast to double, rejecting non-finite values and
/// magnitudes beyond any plausible measurement (timings/rates stay far below
/// 1e12; astronomically large windows would make *any* floating-point
/// summation meaningless, incremental or not).
double fuzz_value(Rng& rng) {
  for (;;) {
    const double v = std::bit_cast<double>(rng.next_u64());
    if (std::isfinite(v) && std::abs(v) < 1e12) return v;
  }
}

using Gen = std::function<double(int, Rng&)>;

std::vector<std::pair<const char*, Gen>> generators() {
  return {
      {"uniform", [](int, Rng& r) { return r.uniform(0, 1000); }},
      {"spiky",
       [](int i, Rng& r) {
         return (i % 37 == 0 ? 5e6 : 100.0) + r.normal(0, 5);
       }},
      {"level-shift",
       [](int i, Rng& r) { return (i / 500 % 2 ? 2000.0 : 20.0) + r.normal(0, 1); }},
      {"tiny", [](int, Rng& r) { return r.uniform(0, 1e-6); }},
      {"fuzz", [](int, Rng& r) { return fuzz_value(r); }},
  };
}

// --- The equivalence property ---------------------------------------------

constexpr int kSteps = 10'000;

TEST(IncrementalEquivalence, SlidingMedianMatchesNaiveExactly) {
  for (std::size_t w : {1u, 2u, 3u, 5u, 30u, 31u, 128u}) {
    for (const auto& [name, gen] : generators()) {
      Rng rng(w * 1000003u + 17);
      SlidingMedian inc(w);
      NaiveWindow ref(w);
      for (int i = 0; i < kSteps; ++i) {
        const double v = gen(i, rng);
        const double got = inc.observe(v);
        ref.add(v);
        ASSERT_EQ(got, naive_median(ref.sorted()))
            << "w=" << w << " gen=" << name << " step=" << i;
        ASSERT_EQ(inc.predict(), got);
      }
    }
  }
}

TEST(IncrementalEquivalence, TrimmedMeanMatchesNaiveExactly) {
  for (std::size_t w : {1u, 2u, 5u, 30u, 100u}) {
    for (double trim : {0.0, 0.1, 0.3, 0.45, 0.5}) {
      for (const auto& [name, gen] : generators()) {
        Rng rng(w * 7919u + static_cast<std::uint64_t>(trim * 100));
        TrimmedMean inc(w, trim);
        NaiveWindow ref(w);
        for (int i = 0; i < kSteps / 4; ++i) {
          const double v = gen(i, rng);
          const double got = inc.observe(v);
          ref.add(v);
          ASSERT_EQ(got, naive_trimmed(ref.sorted(), trim))
              << "w=" << w << " trim=" << trim << " gen=" << name
              << " step=" << i;
        }
      }
    }
  }
}

TEST(IncrementalEquivalence, SlidingMeanMatchesNaiveToTolerance) {
  for (std::size_t w : {1u, 5u, 30u}) {
    for (const auto& [name, gen] : generators()) {
      Rng rng(w + 31337);
      SlidingMean inc(w);
      NaiveWindow ref(w);
      double max_abs = 1.0;
      for (int i = 0; i < kSteps; ++i) {
        const double v = gen(i, rng);
        max_abs = std::max(max_abs, std::abs(v));
        const double got = inc.observe(v);
        ref.add(v);
        ASSERT_NEAR(got, naive_mean(ref.values()), 1e-9 * max_abs)
            << "w=" << w << " gen=" << name << " step=" << i;
      }
    }
  }
}

TEST(IncrementalEquivalence, TrendMatchesNaiveToTolerance) {
  for (std::size_t w : {2u, 10u, 50u}) {
    for (const auto& [name, gen] : generators()) {
      Rng rng(w * 271u + 5);
      TrendForecaster inc(w);
      NaiveWindow ref(w);
      double max_abs = 1.0;
      for (int i = 0; i < kSteps; ++i) {
        const double v = gen(i, rng);
        max_abs = std::max(max_abs, std::abs(v));
        const double got = inc.observe(v);
        ref.add(v);
        // The rolling cross-sums accumulate rounding proportional to window
        // length and magnitude; 1e-7 relative headroom is ~1e9 ULPs of
        // slack while still catching any real re-indexing bug.
        ASSERT_NEAR(got, naive_trend(ref.values()),
                    1e-7 * max_abs * static_cast<double>(w))
            << "w=" << w << " gen=" << name << " step=" << i;
      }
    }
  }
}

// --- Selector-level properties ---------------------------------------------

TEST(AdaptiveForecasterIncremental, CachedPredictionsMatchMethodPredict) {
  // The selector's cached standing predictions must be exactly what each
  // method would answer if asked directly — same battery, same trace.
  auto selector = AdaptiveForecaster::nws_default();
  auto mirror = default_battery();
  Rng rng(404);
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.uniform(0, 500);
    selector.observe(v);
    for (auto& m : mirror) m->observe(v);
    const Forecast f = selector.forecast();
    // The winner's value must equal that method's own standing prediction.
    const auto names = selector.method_names();
    for (std::size_t k = 0; k < mirror.size(); ++k) {
      if (names[k] == f.method) {
        ASSERT_EQ(f.value, mirror[k]->predict()) << "step " << i;
      }
    }
  }
}

TEST(AdaptiveForecasterIncremental, BatchObserveEqualsSequential) {
  std::vector<double> trace;
  Rng rng(777);
  for (int i = 0; i < 5000; ++i) trace.push_back(rng.uniform(10, 90));

  auto one = AdaptiveForecaster::nws_default();
  auto batch = AdaptiveForecaster::nws_default();
  for (double v : trace) one.observe(v);
  batch.observe(std::span<const double>(trace));

  const Forecast a = one.forecast();
  const Forecast b = batch.forecast();
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.method, b.method);
}

TEST(AdaptiveForecasterIncremental, RecordBatchEqualsRepeatedRecord) {
  // A short trace over the full 0..100 range, recorded one sample at a time
  // and as one batch, must leave the same forecast.
  std::vector<double> trace;
  Rng rng(21);
  for (int i = 0; i < 500; ++i) trace.push_back(rng.uniform(0, 100));

  auto a = AdaptiveForecaster::nws_default();
  auto b = AdaptiveForecaster::nws_default();
  for (double v : trace) a.observe(v);
  b.observe(std::span<const double>(trace));
  EXPECT_EQ(a.forecast().value, b.forecast().value);
  EXPECT_EQ(a.forecast().samples, b.forecast().samples);
}

TEST(AdaptiveForecasterIncremental, BestIndexRegressionOnKnownTraces) {
  // Pin best-method selection on fixed traces so hot-path refactors cannot
  // silently change which forecaster wins.
  {
    // Perfectly constant: every method is exact, ties break to the first
    // battery member.
    auto f = AdaptiveForecaster::nws_default();
    for (int i = 0; i < 100; ++i) f.observe(42.0);
    EXPECT_EQ(f.forecast().method, "last");
  }
  {
    // Clean linear ramp: only the trend extrapolates it without lag.
    auto f = AdaptiveForecaster::nws_default();
    for (int i = 0; i < 200; ++i) f.observe(5.0 * i);
    EXPECT_EQ(f.forecast().method, "trend(10)");
  }
  {
    // Constant with rare large spikes: the wide median shrugs spikes off.
    auto f = AdaptiveForecaster::nws_default();
    Rng rng(9);
    for (int i = 0; i < 600; ++i) {
      f.observe((i % 40 == 0 ? 900.0 : 10.0) + rng.normal(0, 0.1));
    }
    const Forecast fc = f.forecast();
    EXPECT_EQ(fc.method, "median(31)");
    EXPECT_NEAR(fc.value, 10.0, 1.0);
  }
}

}  // namespace
}  // namespace ew
