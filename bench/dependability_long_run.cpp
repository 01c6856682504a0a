// Section 7 "Dependable": "The Ramsey Number Search application ran
// continuously from early June, 1998, until the High-Performance Computing
// Challenge on November 12, 1998."
//
// We cannot simulate five months in a bench run, but we can run 48 hours of
// continuous churn and verify the application never stops delivering. On top
// of the background host/network turbulence the scenario already models, a
// seeded FaultPlan crash-restarts the *servers* themselves — schedulers and
// gossips cycle with exponential up/down times, and the control site takes
// one scripted outage — then the trace-level invariant checker proves no
// work unit was lost and every breaker that opened probed again.
//
// Flags: --quick (6 h window, smaller fleet — the chaos_smoke gate),
//        --seed N (chaos seed; the scenario seed stays fixed).
//
// Emits one machine-readable JSON line (see EXPERIMENTS.md): zero-delivery
// bins, day-over-day drift, fault/crash/restart counts, units re-issued vs
// lost, breaker opens vs re-probes, and crash-to-recovery percentiles.
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "bench/bench_util.hpp"
#include "obs/invariants.hpp"
#include "obs/trace.hpp"
#include "sim/chaos.hpp"

using namespace ew;
using namespace ew::bench;

namespace {

/// Crash-to-recovery times: for each chaos crash with a restart inside the
/// trace, the time from the crash until the first post-restart span tagged
/// with an endpoint on that host — i.e. until the role demonstrably acts
/// again, not merely until its process exists.
std::vector<double> recovery_times_s(const obs::TraceRecorder& rec) {
  const auto spans = rec.snapshot();
  std::vector<double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& crash = spans[i];
    if (crash.kind != obs::SpanKind::kChaosFault || crash.a != 0) continue;
    const std::string host = rec.tag_name(crash.tag);
    if (host.find('|') != std::string::npos) continue;  // link fault
    // The matching restart for this host, then its first sign of life.
    std::size_t j = i + 1;
    for (; j < spans.size(); ++j) {
      if (spans[j].kind == obs::SpanKind::kChaosFault && spans[j].a == 1 &&
          spans[j].tag == crash.tag) {
        break;
      }
    }
    if (j >= spans.size()) continue;  // restart past the horizon
    for (std::size_t k = j + 1; k < spans.size(); ++k) {
      if (spans[k].kind == obs::SpanKind::kChaosFault) continue;
      const std::string tag = rec.tag_name(spans[k].tag);
      if (tag.rfind(host + ":", 0) == 0) {
        out.push_back(static_cast<double>(spans[k].at - crash.at) / 1e6);
        break;
      }
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::uint64_t chaos_seed = 1998;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      chaos_seed = std::strtoull(argv[i + 1], nullptr, 10);
    }
  }

  std::printf("=== Section 7 'Dependable': %s continuous churn run, "
              "chaos seed %llu ===\n\n",
              quick ? "6-hour" : "48-hour",
              static_cast<unsigned long long>(chaos_seed));

  app::ScenarioOptions opts;
  opts.record = quick ? 6 * kHour : 48 * kHour;
  opts.enable_spike = false;
  opts.fleet_scale = quick ? 0.2 : 0.5;
  if (quick) opts.report_interval = kMinute;

  // Server churn: every scheduler and gossip host cycles with exponential
  // up/down times at roughly the paper's "resources fail continuously"
  // rates; the control site (logging + persistent state) takes one scripted
  // ten-minute outage so the state-reload path runs too.
  std::vector<std::string> hosts;
  for (int i = 0; i < app::ScenarioOptions::kNumSchedulers; ++i) {
    hosts.push_back("sched-" + std::to_string(i));
  }
  for (int i = 0; i < app::ScenarioOptions::kNumGossips; ++i) {
    hosts.push_back("gossip-" + std::to_string(i));
  }
  const TimePoint churn_start = opts.warmup + 20 * kMinute;
  const TimePoint churn_end = opts.warmup + opts.record - 30 * kMinute;
  const Duration mean_up = quick ? 90 * kMinute : 6 * kHour;
  const Duration mean_down = quick ? 6 * kMinute : 10 * kMinute;
  opts.chaos = sim::FaultPlan::churn(chaos_seed, hosts, churn_start, churn_end,
                                     mean_up, mean_down);
  opts.chaos.crash_restart(opts.warmup + opts.record / 2, "sdsc-control",
                           10 * kMinute);

  char storage[] = "/tmp/ew_dep_XXXXXX";
  if (!mkdtemp(storage)) {
    std::printf("cannot create state storage dir\n");
    return 1;
  }
  opts.state_storage_dir = storage;

  auto& tr = obs::trace();
  tr.reset();
  tr.set_capacity(std::size_t{1} << 22);
  tr.set_enabled(true);

  obs::InvariantReport inv;
  std::vector<double> recovery;
  std::uint64_t faults = 0, crashes = 0, restarts = 0;
  app::ScenarioResults res;
  {
    app::Sc98Scenario scenario(opts);
    res = scenario.run();
    if (sim::ChaosEngine* chaos = scenario.chaos_engine()) {
      faults = chaos->faults_injected();
      crashes = chaos->crashes();
      restarts = chaos->restarts();
    }
    obs::InvariantOptions iopts;
    // Units still assigned on a live scheduler are in flight, not lost; a
    // crash the churn tail never restarted is forgiven within one mean
    // downtime of the horizon.
    for (int i = 0; i < app::ScenarioOptions::kNumSchedulers; ++i) {
      if (core::SchedulerServer* s = scenario.scheduler_server(i)) {
        for (std::uint64_t id : s->pool().assigned_units()) {
          iopts.live_units.insert(id);
        }
      }
    }
    iopts.crash_grace_us = 2 * mean_down + 30 * kMinute;
    inv = obs::check_invariants(tr, iopts);
    recovery = recovery_times_s(tr);
  }
  tr.set_enabled(false);

  std::size_t zero_bins = 0;
  for (double v : res.total_rate) zero_bins += v <= 0.0 ? 1 : 0;
  // While the control site is down the logging server is too, so delivery in
  // those bins is unobservable (clients keep computing; their log calls
  // fail). Bins covered by the scripted outage are a measurement gap, not a
  // delivery gap.
  const std::size_t outage_bins =
      static_cast<std::size_t>(10 * kMinute / app::ScenarioOptions::kBinWidth) + 1;

  const std::size_t half = res.total_rate.size() / 2;
  const double day1 = series_mean(std::vector<double>(
      res.total_rate.begin(), res.total_rate.begin() + static_cast<std::ptrdiff_t>(half)));
  const double day2 = series_mean(std::vector<double>(
      res.total_rate.begin() + static_cast<std::ptrdiff_t>(half), res.total_rate.end()));
  const double recovery_p50 = percentile(recovery, 0.50);
  const double recovery_p99 = percentile(recovery, 0.99);

  std::printf("bins: %zu x 5 min, zero-delivery bins: %zu (logging-outage "
              "allowance: %zu)\n",
              res.total_rate.size(), zero_bins, outage_bins);
  std::printf("mean rate half 1: %.3e ops/s\n", day1);
  std::printf("mean rate half 2: %.3e ops/s (drift %+.1f%%)\n", day2,
              100.0 * (day2 - day1) / day1);
  std::printf("clients presumed dead and replaced: %llu\n",
              static_cast<unsigned long long>(res.presumed_dead));
  std::printf("server faults injected: %llu (%llu crashes, %llu restarts)\n",
              static_cast<unsigned long long>(faults),
              static_cast<unsigned long long>(crashes),
              static_cast<unsigned long long>(restarts));
  std::printf("work units issued %llu, reclaimed %llu, re-issued after "
              "crash %llu, lost %llu\n",
              static_cast<unsigned long long>(inv.units_issued),
              static_cast<unsigned long long>(inv.units_reclaimed),
              static_cast<unsigned long long>(inv.units_reissued_after_crash),
              static_cast<unsigned long long>(inv.units_lost));
  std::printf("breakers opened %llu, re-probed %llu; view changes %llu\n",
              static_cast<unsigned long long>(inv.breaker_opens),
              static_cast<unsigned long long>(inv.breaker_reprobes),
              static_cast<unsigned long long>(inv.view_changes));
  std::printf("crash-to-recovery: p50 %.1f s, p99 %.1f s over %zu cycles\n",
              recovery_p50, recovery_p99, recovery.size());
  for (const std::string& v : inv.violations) {
    std::printf("INVARIANT VIOLATION: %s\n", v.c_str());
  }

  const bool ok = zero_bins <= outage_bins &&
                  res.presumed_dead > (quick ? 10u : 100u) &&
                  day2 > 0.7 * day1 && day2 < 1.4 * day1 && crashes > 0 &&
                  inv.ok() && inv.units_lost == 0;
  std::printf("\ndependability: %s (continuous delivery through continuous "
              "failure, servers included)\n",
              ok ? "REPRODUCED" : "MISMATCH");

  JsonWriter j;
  j.u64("chaos_seed", chaos_seed)
      .u64("bins", res.total_rate.size())
      .u64("zero_bins", zero_bins)
      .g("rate_half1_ops", day1)
      .g("rate_half2_ops", day2)
      .f("drift_pct", day1 > 0 ? 100.0 * (day2 - day1) / day1 : 0.0, 1)
      .u64("presumed_dead", res.presumed_dead)
      .u64("faults", faults)
      .u64("crashes", crashes)
      .u64("restarts", restarts)
      .u64("units_issued", inv.units_issued)
      .u64("units_reclaimed", inv.units_reclaimed)
      .u64("units_reissued_after_crash", inv.units_reissued_after_crash)
      .u64("units_lost", inv.units_lost)
      .u64("breaker_opens", inv.breaker_opens)
      .u64("breaker_reprobes", inv.breaker_reprobes)
      .u64("view_changes", inv.view_changes)
      .f("recovery_p50_s", recovery_p50, 1)
      .f("recovery_p99_s", recovery_p99, 1)
      .u64("invariant_violations", inv.violations.size())
      .u64("ok", ok ? 1 : 0);
  emit_json("dependability_long_run", j);

  std::error_code ec;
  std::filesystem::remove_all(storage, ec);
  return ok ? 0 : 1;
}
