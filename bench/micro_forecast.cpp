// Microbenchmark for the forecasting hot path (paper Section 2.2).
//
// The paper calls the NWS methods "light-weight" and runs them inline on
// every request/response event, so their cost IS the dynamic-benchmarking
// overhead. This harness times the battery and prints ONE machine-readable
// JSON line (see EXPERIMENTS.md, "Forecast hot-path microbenchmark") so the
// BENCH trajectory can track ns/observe across PRs:
//
//   {"bench":"micro_forecast","samples":...,"ns_per_observe":...,
//    "ns_per_forecast":...,"ns_per_on_result":...,
//    "ns_per_batch_observe":...,"per_method":{"last":...,...},
//    "checksum":...}
//
// `--quick` shrinks the iteration counts so the micro_forecast_smoke ctest
// entry can prove the harness still builds and runs without burning CI time.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/rng.hpp"
#include "forecast/forecaster.hpp"
#include "forecast/selector.hpp"
#include "forecast/timeout.hpp"
#include "sim/traces.hpp"

namespace ew {
namespace {

using bench::now_ns;
using bench::Timed;
using bench::time_per_op;

/// Pre-generated input series so the timed loops measure forecasting, not
/// random-number generation.
std::vector<double> make_series(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(50, 150);
  return v;
}

}  // namespace
}  // namespace ew

int main(int argc, char** argv) {
  using namespace ew;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::size_t kObs = quick ? 20'000 : 2'000'000;
  const std::size_t kFc = quick ? 20'000 : 5'000'000;
  double checksum = 0.0;

  const std::vector<double> series = make_series(kObs, 1);

  // Full-battery observe (the per-message cost of dynamic benchmarking).
  auto selector = AdaptiveForecaster::nws_default();
  {  // warm-up: fill every window before timing
    for (double v : make_series(512, 99)) selector.observe(v);
  }
  const Timed obs =
      time_per_op(kObs, [&](std::size_t i) {
        selector.observe(series[i]);
        return 0.0;
      });
  checksum += obs.checksum + selector.forecast().value;

  // forecast(): best-method selection + cached prediction read.
  const Timed fc = time_per_op(kFc, [&](std::size_t i) {
    (void)i;
    return selector.forecast().value;
  });
  checksum += fc.checksum;

  // AdaptiveTimeout::on_result on one RttStream: forecaster observe plus the
  // tail-window insert, the measurement every completed call feeds back.
  // RTTs are whole microseconds (the series read as milliseconds).
  const AdaptiveTimeout timeouts;
  RttStream stream(AdaptiveTimeout::kTailWindow);
  auto rtt = [](double ms) { return static_cast<Duration>(ms * kMillisecond); };
  for (double v : make_series(512, 98)) timeouts.on_result(stream, rtt(v), true);
  const Timed res = time_per_op(kObs, [&](std::size_t i) {
    timeouts.on_result(stream, rtt(series[i]), true);
    return 0.0;
  });
  checksum += res.checksum + stream.forecaster.forecast().value;

  // Batch observe of a synthetic RTT trace on a fresh forecaster.
  const auto trace =
      sim::MeasurementTrace::synthetic_rtt(quick ? 5'000 : 200'000, Rng(7));
  auto batch = AdaptiveForecaster::nws_default();
  const double tr0 = now_ns();
  batch.observe(trace.values());
  const double tr1 = now_ns();
  const double ns_batch = (tr1 - tr0) / static_cast<double>(trace.size());
  checksum += batch.forecast().value;

  // Per-method breakdown (observe cost of each battery member alone).
  bench::JsonWriter per_method;
  for (auto& method : default_battery()) {
    for (double v : make_series(256, 97)) method->observe(v);
    const Timed m = time_per_op(quick ? 20'000 : 1'000'000, [&](std::size_t i) {
      return method->observe(series[i % series.size()]);
    });
    checksum += m.checksum;
    per_method.f(method->name(), m.ns_per_op, 1);
  }

  bench::JsonWriter line;
  line.u64("samples", kObs)
      .f("ns_per_observe", obs.ns_per_op, 1)
      .f("ns_per_forecast", fc.ns_per_op, 1)
      .f("ns_per_on_result", res.ns_per_op, 1)
      .f("ns_per_batch_observe", ns_batch, 1)
      .raw("per_method", per_method.object())
      .g("checksum", checksum);
  bench::emit_json("micro_forecast", line);
  return 0;
}
