// Ablation (Section 2.2): dynamic time-out discovery vs static time-outs,
// plus the reliable-call policy layered on top of it.
//
// "Using the alternative of statically determined time-outs, the system
// frequently misjudged the availability (or lack thereof) of the different
// EveryWare state-management servers causing needless retries and dynamic
// reconfigurations. ... This dynamic time-out discovery proved crucial to
// overall program stability."
//
// Part 1 — the time-out itself. The metric is stability, exactly as the
// paper frames it: a *spurious time-out* is a call the policy abandoned
// whose response later arrived — the server was alive, the time-out
// misjudged it, and the caller performed a needless retry/re-registration.
// A *slow* policy instead wastes time waiting on genuinely-lost messages.
// The adaptive policy must sit in the corner statics cannot reach: few
// misjudgments AND short waits, without hand tuning.
//
// Part 2 — what the time-out actuates. With the forecast pricing each
// attempt, CallOptions can ask for in-call retries and forecast-triggered
// hedges. Under injected message loss the policy arms must complete more
// calls than the bare single-attempt arm while spending no more than 1.3x
// its packets. Emits ONE machine-readable JSON line (see EXPERIMENTS.md,
// "Reliable-call policy ablation"):
//
//   {"bench":"ablation_call_policy","loss":...,"calls":...,
//    "arms":[{"arm":...,"completion":...,"p99_s":...,
//             "packets_per_call":...,"attempts_per_call":...},...],
//    "extra_traffic_ratio":...,"completion_gain":...}
//
// `--quick` runs only Part 2 with a small call count so the
// ablation_timeouts_smoke ctest entry can prove the harness still builds
// and runs; `--policy` runs only Part 2 at full size.
#include <cstring>

#include "bench/bench_util.hpp"
#include "net/call_policy.hpp"
#include "net/node.hpp"
#include "obs/registry.hpp"
#include "sim/event_queue.hpp"
#include "sim/network_model.hpp"
#include "sim/sim_transport.hpp"

using namespace ew;
using namespace ew::bench;

namespace {

// ---------------------------------------------------------------------------
// Part 1: dynamic time-out discovery vs statics (full scenario).

struct Row {
  std::string label;
  std::uint64_t timeouts = 0;         // calls ended by the timer
  std::uint64_t spurious = 0;         // ...whose response later arrived
  double mean_wait_s = 0;             // mean time burned per fired time-out
  double total_ops = 0;
};

Row run_config(bool adaptive, Duration static_timeout, const std::string& label) {
  process_call_stats().reset();
  app::ScenarioOptions o;
  o.fleet_scale = 0.35;
  o.record = 5 * kHour;
  o.judging_offset = 3 * kHour;
  o.adaptive_timeouts = adaptive;
  o.static_timeout = static_timeout;
  app::Sc98Scenario scenario(o);
  const app::ScenarioResults res = scenario.run();
  obs::Registry& reg = process_call_stats().registry();
  Row row;
  row.label = label;
  row.timeouts = reg.counter(obs::names::kNetTimeoutsFired).value();
  row.spurious = reg.counter(obs::names::kNetLateResponses).value();
  row.mean_wait_s =
      row.timeouts
          ? to_seconds(static_cast<Duration>(
                reg.histogram(obs::names::kNetTimeoutWaitUs).sum())) /
                static_cast<double>(row.timeouts)
          : 0.0;
  row.total_ops = static_cast<double>(res.total_ops);
  return row;
}

int run_timeout_ablation() {
  std::printf("=== Ablation: dynamic time-out discovery (Section 2.2) ===\n");
  std::printf("5-hour spike scenario, 0.35 fleet scale, seed 42\n\n");

  std::vector<Row> rows;
  rows.push_back(run_config(true, 0, "adaptive (forecast-driven)"));
  for (Duration t : {250 * kMillisecond, 500 * kMillisecond, 1 * kSecond,
                     2 * kSecond, 5 * kSecond, 15 * kSecond}) {
    char label[64];
    std::snprintf(label, sizeof(label), "static %.2fs", to_seconds(t));
    rows.push_back(run_config(false, t, label));
  }

  std::printf("%-28s %10s %10s %12s %14s\n", "policy", "timeouts",
              "spurious", "mean-wait(s)", "total ops");
  for (const auto& r : rows) {
    std::printf("%-28s %10llu %10llu %12.2f %14.4e\n", r.label.c_str(),
                static_cast<unsigned long long>(r.timeouts),
                static_cast<unsigned long long>(r.spurious), r.mean_wait_s,
                r.total_ops);
  }

  // The adaptive policy must dominate: fewer misjudgments than any static
  // at or below its own mean wait, and shorter waits than any static with
  // comparable misjudgment counts — the "crucial to stability" corner.
  const Row& adaptive = rows[0];
  bool dominated = false;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].spurious <= adaptive.spurious &&
        rows[i].mean_wait_s <= adaptive.mean_wait_s) {
      dominated = true;  // some static is better on both axes
    }
  }
  double best_static_ops = 0;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    best_static_ops = std::max(best_static_ops, rows[i].total_ops);
  }
  const bool ops_ok = adaptive.total_ops >= 0.97 * best_static_ops;

  std::printf("\nadaptive: %.2fs mean wait with %llu spurious time-outs — "
              "no static value reaches both.\n",
              adaptive.mean_wait_s,
              static_cast<unsigned long long>(adaptive.spurious));
  const bool ok = !dominated && ops_ok;
  std::printf("claim ('dynamic time-out discovery proved crucial to overall "
              "program stability'): %s\n",
              ok ? "SUPPORTED" : "NOT SUPPORTED");
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Part 2: reliable-call policy arms under injected loss (isolated sim).

constexpr MsgType kOp = 0x42;

struct PolicyArm {
  std::string label;
  double completion = 0;
  double p99_s = 0;
  double packets_per_call = 0;
  double attempts_per_call = 0;
  std::uint64_t hedges = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t retries = 0;
};

/// One client/server pair over a lossy cross-site link. Every arm gets a
/// fresh world from the same seed; warm-up is lossless so the forecaster
/// learns the true RTT distribution before the tap opens.
PolicyArm run_policy_arm(const std::string& label, const CallOptions& proto,
                         std::size_t calls, double loss) {
  sim::EventQueue events;
  sim::NetworkModel network{Rng(42)};
  network.set_site("cli", "east");
  network.set_site("srv", "west");
  network.set_loss_rate(0.0);
  sim::SimTransport transport(events, network);
  Node server(events, transport, Endpoint{"srv", 1});
  Node client(events, transport, Endpoint{"cli", 1});
  server.start();
  client.start();
  server.handle(kOp, [](const IncomingMessage& m, Responder r) {
    r.ok(m.packet.payload);
  });

  AggregateCallStats stats;
  client.call_policy().set_stats_sink(&stats);

  for (int i = 0; i < 64; ++i) {
    events.schedule(static_cast<Duration>(i) * (100 * kMillisecond), [&] {
      client.call(server.self(), kOp, {0}, CallOptions{}, [](Result<Bytes>) {});
    });
  }
  events.run_until_idle();

  network.set_loss_rate(loss);
  stats.reset();
  const std::uint64_t packets_before = transport.packets_sent();

  std::vector<double> latency;
  latency.reserve(calls);
  std::size_t ok_calls = 0;
  for (std::size_t i = 0; i < calls; ++i) {
    events.schedule(static_cast<Duration>(i) * (150 * kMillisecond), [&] {
      const TimePoint start = events.clock().now();
      CallOptions o = proto;
      client.call(server.self(), kOp, {1}, std::move(o),
                  [&, start](Result<Bytes> r) {
                    latency.push_back(to_seconds(events.clock().now() - start));
                    if (r.ok()) ++ok_calls;
                  });
    });
  }
  events.run_until_idle();

  PolicyArm arm;
  arm.label = label;
  arm.completion = static_cast<double>(ok_calls) / static_cast<double>(calls);
  std::sort(latency.begin(), latency.end());
  arm.p99_s = latency.empty() ? 0.0 : latency[(latency.size() - 1) * 99 / 100];
  arm.packets_per_call =
      static_cast<double>(transport.packets_sent() - packets_before) /
      static_cast<double>(calls);
  obs::Registry& sreg = stats.registry();
  arm.attempts_per_call =
      static_cast<double>(sreg.counter(obs::names::kNetAttempts).value()) /
      static_cast<double>(calls);
  arm.hedges = sreg.counter(obs::names::kNetHedges).value();
  arm.hedge_wins = sreg.counter(obs::names::kNetHedgeWins).value();
  arm.retries = sreg.counter(obs::names::kNetRetries).value();
  client.call_policy().set_stats_sink(nullptr);
  client.stop();
  server.stop();
  return arm;
}

int run_policy_ablation(std::size_t calls) {
  const double loss = 0.10;  // per message: ~0.81 single-attempt completion

  CallOptions off;  // bare Node::call — one attempt, forecast time-out
  CallOptions retry;
  retry.retry = RetryPolicy::standard(3);
  CallOptions hedged;
  hedged.retry = RetryPolicy::standard(3);
  hedged.hedge = HedgePolicy::at(0.97);

  const std::vector<std::pair<std::string, const CallOptions*>> specs = {
      {"no-policy", &off}, {"retry", &retry}, {"retry+hedge", &hedged}};
  std::vector<PolicyArm> arms;
  for (const auto& [label, opts] : specs) {
    arms.push_back(run_policy_arm(label, *opts, calls, loss));
  }

  const PolicyArm& base = arms[0];
  double worst_traffic = 0;
  double best_completion = 0;
  for (std::size_t i = 1; i < arms.size(); ++i) {
    worst_traffic = std::max(
        worst_traffic, arms[i].packets_per_call / base.packets_per_call);
    best_completion = std::max(best_completion, arms[i].completion);
  }

  std::vector<std::string> arm_objs;
  arm_objs.reserve(arms.size());
  for (const PolicyArm& a : arms) {
    JsonWriter w;
    w.str("arm", a.label)
        .f("completion", a.completion, 4)
        .f("p99_s", a.p99_s, 4)
        .f("packets_per_call", a.packets_per_call, 3)
        .f("attempts_per_call", a.attempts_per_call, 3)
        .u64("retries", a.retries)
        .u64("hedges", a.hedges)
        .u64("hedge_wins", a.hedge_wins);
    arm_objs.push_back(w.object());
  }
  JsonWriter line;
  line.f("loss", loss, 3)
      .u64("calls", calls)
      .raw("arms", json_array(arm_objs))
      .f("extra_traffic_ratio", worst_traffic, 3)
      .f("completion_gain", best_completion - base.completion, 4);
  emit_json("ablation_call_policy", line);

  // Every policy arm must beat the bare arm on completion, at bounded cost.
  bool ok = true;
  for (std::size_t i = 1; i < arms.size(); ++i) {
    if (arms[i].completion <= base.completion) ok = false;
  }
  if (worst_traffic > 1.3) ok = false;
  if (!ok) {
    std::fprintf(stderr,
                 "ablation_call_policy: policy arms failed to dominate "
                 "(completion %.4f base vs %.4f best, traffic %.3fx)\n",
                 base.completion, best_completion, worst_traffic);
  }
  return ok ? 0 : 1;
}

// The whole point of the unified registry: ONE document answering "what did
// the call layer, the gossip layer and the scheduler do this run". Part 1's
// scenarios feed the process-wide registry (call attempts/retries/hedges and
// breaker opens via process_call_stats(), gossip sync rounds, scheduler
// dispatches), so a single snapshot_json() replaces a per-subsystem probe.
void emit_obs_snapshot() {
  JsonWriter line;
  line.raw("registry", obs::snapshot_json());
  emit_json("ablation_obs_snapshot", line);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool policy_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--policy") == 0) policy_only = true;
  }
  if (quick) {
    const int rc = run_policy_ablation(400);
    emit_obs_snapshot();
    return rc;
  }
  if (policy_only) {
    const int rc = run_policy_ablation(4000);
    emit_obs_snapshot();
    return rc;
  }
  const int rc_timeouts = run_timeout_ablation();
  std::printf("\n=== Ablation: reliable-call policy under 10%% loss ===\n");
  const int rc_policy = run_policy_ablation(4000);
  emit_obs_snapshot();
  return rc_timeouts != 0 ? rc_timeouts : rc_policy;
}
