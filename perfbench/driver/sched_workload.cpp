// sched_sim: a seeded episode of the batched scheduler in the deterministic
// simulator.
//
// One scheduler over an 8-shard pool; 128 clients hold 2,048-unit leases,
// 262,144 outstanding units in all. The benchmark is its own client
// driver and keeps a holder model of who holds which unit, allocated and
// touched before the ramp so the ramp's RSS growth (pool.bytes_per_unit) is
// the scheduler's and the pool's alone. After three
// steady report rounds a seeded cohort of 12 clients dies; survivors keep
// reporting until the sweep has reclaimed every dead lease; 12
// replacements register and refill from the reclaimed frontier; two more
// rounds follow. The output checks reconcile the pool's assigned set
// exactly against the holder model (zero lost, phantom or double-issued
// units) and replay one report batch, which must be answered from the reply
// cache bit-identically without touching the pool.
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/scheduler.hpp"
#include "driver/sim_support.hpp"
#include "driver/traced_transport.hpp"
#include "obs/registry.hpp"
#include "ramsey/graph.hpp"
#include "sim/network_model.hpp"
#include "sim/sim_transport.hpp"

namespace perfbench {
namespace {

namespace core = ew::core;

constexpr std::size_t kClients = 128;
constexpr std::uint32_t kLease = 2048;
constexpr std::uint32_t kShards = 8;
constexpr std::size_t kKills = 12;
constexpr std::uint64_t kTarget = static_cast<std::uint64_t>(kClients) * kLease;
constexpr ew::Duration kReportInterval = 60 * ew::kSecond;
constexpr std::size_t kProbeCalls = 1024;
// Extra worlds built and torn down per process, timed for setup_s.
constexpr int kSetupCycles = 20;

constexpr std::uint32_t kNoHolder = UINT32_MAX;

struct DriverClient {
  ew::Endpoint ep;
  std::uint64_t seq = 0;
  std::vector<std::uint64_t> held;  // unit ids, in no particular order
  bool alive = true;
};

DriverClient make_client(std::string host) {
  DriverClient c;
  c.ep = ew::Endpoint{std::move(host), 2000};
  return c;
}

/// The benchmark's client driver: one Node speaking for every synthetic
/// client, plus the holder model the reconciliation checks against.
struct Driver {
  Driver(ew::sim::EventQueue& q, ew::Transport& t, ew::Endpoint sched)
      : node(q, t, ew::Endpoint{"driver", 3000}), sched(std::move(sched)) {
    clients.reserve(kClients + kKills);
    ew::Rng g(99);
    graph_blob = ew::ramsey::ColoredGraph::random(10, g).serialize();
    issue_name = Tracer::intern("call.issue");
    callback_name = Tracer::intern("driver.callback");
    report_name = Tracer::intern("driver.report");
  }

  /// Apply a DirectiveBatch to client i, cross-checking the holder model.
  /// A unit assigned to i while a live client holds it is double-issued;
  /// one a dead client held passes to i.
  void apply(std::size_t i, core::DirectiveBatch&& d) {
    const auto me = static_cast<std::uint32_t>(i);
    for (auto id : d.revoke) {
      if (id < holder.size() && holder[id] == me) release(id);
    }
    for (auto& spec : d.assign) {
      const std::uint64_t id = spec.unit_id;
      grow(id);
      if (holder[id] == me) continue;  // replayed assign
      if (holder[id] != kNoHolder) {
        if (clients[holder[id]].alive) ++double_issued;
        release(id);
      }
      auto& held = clients[i].held;
      holder[id] = me;
      slot[id] = static_cast<std::uint32_t>(held.size());
      held.push_back(id);
    }
  }

  /// Allocate and touch the holder model before the ramp (after the timed
  /// set-up): room for every unit the episode mints, as ids run about one
  /// per unit issued (grow() covers any beyond), and a full lease per
  /// client.
  void prepare_model() {
    holder.assign(kTarget + kTarget / 4, kNoHolder);
    slot.assign(holder.size(), 0);
    for (auto& c : clients) {
      c.held.resize(kLease);
      c.held.clear();
    }
  }

  void grow(std::uint64_t id) {
    if (id < holder.size()) return;
    holder.resize(id + 1, kNoHolder);
    slot.resize(id + 1, 0);
  }

  /// Take unit `id` from its holder's list (swap with the last entry).
  void release(std::uint64_t id) {
    auto& held = clients[holder[id]].held;
    const std::uint32_t pos = slot[id];
    held[pos] = held.back();
    slot[held[pos]] = pos;
    held.pop_back();
    holder[id] = kNoHolder;
  }

  void on_directives(std::size_t i, const ew::Result<ew::Bytes>& r, ew::Bytes* keep) {
    Scope span(callback_name, i);
    --pending;
    if (!r.ok()) {
      ++call_failures;
      return;
    }
    if (keep) *keep = *r;
    auto d = core::DirectiveBatch::deserialize(*r);
    if (d) apply(i, std::move(*d));
  }

  void register_client(std::size_t i) {
    core::ClientHello hello;
    hello.client = clients[i].ep;
    hello.infra = core::Infra::kUnix;
    hello.host = clients[i].ep.host;
    hello.want_units = kLease;
    ew::CallOptions o;
    o.retry = ew::RetryPolicy::standard(2);
    o.trace_tag = "bench.register";
    ++pending;
    Scope span(issue_name, i);
    node.call(sched, core::msgtype::kSchedRegister, hello.serialize(), std::move(o),
              [this, i](ew::Result<ew::Bytes> r) { on_directives(i, r, nullptr); });
  }

  /// One report batch covering client i's whole lease; retried and hedged
  /// (the scheduler's seq dedupe makes duplicates safe).
  void send_report(std::size_t i, int round, bool keep_wire) {
    auto& c = clients[i];
    ew::Bytes wire;
    {
      Scope span(report_name, i);
      core::ReportBatch batch;
      batch.client = c.ep;
      batch.seq = ++c.seq;
      batch.want_units = kLease;
      batch.reports.reserve(c.held.size());
      for (auto id : c.held) {
        ew::ramsey::WorkReport rep;
        rep.unit_id = id;
        rep.ops_done = 60'000'000;
        rep.best_energy = std::max<std::uint64_t>(15, 300 - 20 * round + id % 10);
        rep.found = false;
        rep.best_graph = graph_blob;
        batch.reports.push_back(std::move(rep));
      }
      wire = batch.serialize();
      if (keep_wire) probe_wire = wire;
    }
    ew::CallOptions o;
    o.retry = ew::RetryPolicy::standard(1);
    o.hedge = ew::HedgePolicy::at(0.95);
    o.trace_tag = "bench.report";
    ++pending;
    Scope span(issue_name, i);
    node.call(sched, core::msgtype::kSchedReportBatch, std::move(wire), std::move(o),
              [this, i, keep_wire](ew::Result<ew::Bytes> r) {
                on_directives(i, r, keep_wire ? &probe_reply : nullptr);
              });
  }

  ew::Node node;
  ew::Endpoint sched;
  ew::Bytes graph_blob;
  std::vector<DriverClient> clients;
  std::vector<std::uint32_t> holder;  // unit id -> client, or kNoHolder
  std::vector<std::uint32_t> slot;    // unit id -> index in its holder's held
  ew::Bytes probe_wire;   // last wire bytes of the replay-probe client
  ew::Bytes probe_reply;  // the reply those bytes earned
  std::uint64_t double_issued = 0;
  std::uint64_t call_failures = 0;
  int pending = 0;
  std::uint32_t issue_name, callback_name, report_name;
};

/// Everything the episode runs on. Constructing it is the set-up.
struct World {
  World(std::uint64_t seed, bool traced)
      : net(ew::Rng(seed)), sim_transport(events, net) {
    net.set_loss_rate(0.0);
    net.set_jitter_sigma(0.0);
    transport = &sim_transport;
    if (traced) {
      wrapper = std::make_unique<TracedTransport>(sim_transport, [](const ew::Endpoint& e) {
        if (is_probe_endpoint(e)) return std::string("probe.call.dispatch");
        if (e.host == "driver") return std::string("call.dispatch");
        return std::string("sched.handler:");
      });
      transport = wrapper.get();
    }
    sched_node = std::make_unique<ew::Node>(events, *transport, ew::Endpoint{"sched", 601});
    ok = sched_node->start().ok();
    core::SchedulerServer::Options so;
    so.pool.n = 10;
    so.pool.k = 4;
    so.pool.seed_base = 0xBE9C ^ seed;
    // Reclaimed leases must be reusable, not trimmed: the refill leg
    // drains the orphaned frontier.
    so.pool.max_idle_frontier = kTarget;
    so.pool_shards = kShards;
    so.max_units_per_client = kLease;
    so.migration_period = 12 * ew::kHour;  // keep the holder model transfer-free
    sched = std::make_unique<core::SchedulerServer>(*sched_node, so);
    driver = std::make_unique<Driver>(events, *transport, sched_node->self());
    ok = ok && driver->node.start().ok();
    for (std::size_t i = 0; i < kClients; ++i) {
      driver->clients.push_back(make_client(host_name("c", i)));
    }
  }

  ew::sim::EventQueue events;
  ew::sim::NetworkModel net;
  ew::sim::SimTransport sim_transport;
  std::unique_ptr<TracedTransport> wrapper;
  ew::Transport* transport = nullptr;
  std::unique_ptr<ew::Node> sched_node;
  std::unique_ptr<core::SchedulerServer> sched;
  std::unique_ptr<Driver> driver;
  bool ok = true;
};

}  // namespace

int run_sched(const Options& opts, Report& out) {
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupCycles; ++i) {
    const std::int64_t t0 = now_ns();
    World w(opts.seed, false);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    if (!w.ok) return 2;
  }
  const std::int64_t t0 = now_ns();
  World w(opts.seed, opts.trace);
  setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  if (!w.ok) return 2;

  namespace n = ew::obs::names;
  auto& reg = ew::obs::registry();
  Driver& driver = *w.driver;
  driver.prepare_model();
  core::SchedulerServer& sched = *w.sched;
  ew::sim::EventQueue& events = w.events;
  const std::uint64_t reports0 = reg.counter(n::kSchedReports).value();
  const NetCounters net0 = NetCounters::read();
  EpisodeClock clock(events);
  ew::Rng rng(opts.seed * 0x9E3779B97F4A7C15ull + 0xC0FFEE);

  auto run_round = [&](int round, std::size_t probe) {
    for (std::size_t i = 0; i < driver.clients.size(); ++i) {
      if (!driver.clients[i].alive) continue;
      events.schedule(static_cast<ew::Duration>(i) * 20 * ew::kMillisecond,
                      [&driver, i, round, probe] { driver.send_report(i, round, i == probe); });
    }
    clock.run_for(kReportInterval);
  };

  if (opts.trace) Tracer::set_enabled(true);
  const std::uint32_t episode_name = Tracer::intern("sim.episode");
  const CpuSample proc0 = process_cpu();
  const CpuSample thread0 = thread_cpu();
  const std::int64_t start = now_ns();
  std::int64_t ramp_rss_bytes = 0;
  std::uint64_t ramp_units = 0;
  std::uint64_t issued_before_refill = 0;
  {
    Scope episode(episode_name);
    // Ramp: register the fleet, staggered; each leaves with a full lease.
    const std::int64_t rss0 = current_rss_bytes();
    sched.start();
    for (std::size_t i = 0; i < kClients; ++i) {
      events.schedule(static_cast<ew::Duration>(i) * 50 * ew::kMillisecond,
                      [&driver, i] { driver.register_client(i); });
    }
    clock.run_for(30 * ew::kSecond);
    ramp_rss_bytes = current_rss_bytes() - rss0;
    ramp_units = sched.pool().assigned_count();

    int round = 0;
    for (; round < 3; ++round) run_round(round, SIZE_MAX);  // steady state
    // Churn: a seeded cohort dies without deregistering.
    std::size_t killed = 0;
    while (killed < kKills) {
      auto& victim = driver.clients[rng.below(driver.clients.size())];
      if (!victim.alive) continue;
      victim.alive = false;
      ++killed;
    }
    for (int spin = 0; spin < 30 && sched.clients_presumed_dead() < kKills; ++spin) {
      run_round(round++, SIZE_MAX);
    }
    // Refill from the reclaimed frontier.
    issued_before_refill = sched.pool().units_issued();
    const std::size_t first = driver.clients.size();
    for (std::size_t i = 0; i < kKills; ++i) {
      driver.clients.push_back(make_client(host_name("r", i)));
    }
    for (std::size_t i = 0; i < kKills; ++i) {
      events.schedule(static_cast<ew::Duration>(i) * 100 * ew::kMillisecond,
                      [&driver, first, i] { driver.register_client(first + i); });
    }
    clock.run_for(30 * ew::kSecond);
    run_round(round++, SIZE_MAX);
    // Keep the last wire bytes of the first live client for the replay.
    std::size_t probe = 0;
    while (!driver.clients[probe].alive) ++probe;
    run_round(round++, probe);
  }
  const double wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  const CpuSample proc = process_cpu() - proc0;
  const CpuSample thread = thread_cpu() - thread0;
  const NetCounters net = NetCounters::read() - net0;
  const std::uint64_t reports = reg.counter(n::kSchedReports).value() - reports0;
  const std::uint64_t events_run = clock.events();
  Tracer::set_enabled(false);

  // Output checks. Reconcile: the pool's assigned set must be exactly the
  // disjoint union of what live clients hold.
  Checks checks;
  const auto pool_ids = sched.pool().assigned_units();  // sorted
  std::vector<std::uint64_t> held_ids;
  for (const auto& c : driver.clients) {
    if (c.alive) held_ids.insert(held_ids.end(), c.held.begin(), c.held.end());
  }
  std::sort(held_ids.begin(), held_ids.end());
  std::vector<std::uint64_t> lost, phantom;
  std::set_difference(pool_ids.begin(), pool_ids.end(), held_ids.begin(), held_ids.end(),
                      std::back_inserter(lost));
  std::set_difference(held_ids.begin(), held_ids.end(), pool_ids.begin(), pool_ids.end(),
                      std::back_inserter(phantom));
  checks.attempted += pool_ids.size() + phantom.size();
  checks.failed += lost.size() + phantom.size() + driver.double_issued;
  checks.expect(pool_ids.size() >= kTarget);
  checks.expect(driver.call_failures == 0);
  checks.expect(sched.clients_presumed_dead() >= kKills);
  checks.expect(sched.pool().steals() > 0);

  // Replay probe: one client's last batch again, answered from the reply
  // cache bit-identically and without touching the pool.
  const std::uint64_t replays_before = sched.batch_replays();
  const auto assigned_before = sched.pool().assigned_count();
  ew::Bytes replay_reply;
  bool replay_ok = false;
  driver.node.call(w.sched_node->self(), core::msgtype::kSchedReportBatch,
                   ew::Bytes(driver.probe_wire), ew::CallOptions::fixed(5 * ew::kSecond),
                   [&](ew::Result<ew::Bytes> r) {
                     replay_ok = r.ok();
                     if (r.ok()) replay_reply = *r;
                   });
  events.run_for(10 * ew::kSecond);
  checks.expect(replay_ok && replay_reply == driver.probe_reply);
  checks.expect(sched.batch_replays() > replays_before);
  checks.expect(sched.pool().assigned_count() == assigned_before);
  if (checks.failed) {
    std::fprintf(stderr,
                 "sched_sim: %zu lost, %zu phantom, %llu double-issued units; "
                 "%llu failed checks in all\n",
                 lost.size(), phantom.size(),
                 static_cast<unsigned long long>(driver.double_issued),
                 static_cast<unsigned long long>(checks.failed));
  }

  Report e2e, layers;
  report_episode(clock, events_run, wall_s, proc, thread, net, e2e, layers);
  layers.integer("sched.reports", reports)
      .num("pool.bytes_per_unit",
           ramp_units ? static_cast<double>(ramp_rss_bytes) / static_cast<double>(ramp_units) : 0);
  if (opts.trace) {
    Tracer::set_enabled(true);
    run_echo_probe(events, *w.transport, kProbeCalls, checks);
    Tracer::set_enabled(false);
    const auto spans = Tracer::summarize();
    report_traced_episode(spans, find_stats(spans, "sim.episode"), events_run,
                          w.wrapper->sampled_sizes(), opts.seed, layers);
    char name[32];
    std::snprintf(name, sizeof(name), "sched.handler:0x%04x",
                  unsigned{core::msgtype::kSchedReportBatch});
    const SpanStats batch = find_stats(spans, name);
    layers.num("sched.report_batch_ns", mean_ns(batch, false))
        .num("sched.ns_per_unit_report",
             reports ? static_cast<double>(batch.total_ns) / static_cast<double>(reports) : 0)
        .num("call.issue_self_ns", mean_ns(find_stats(spans, "call.issue"), true))
        .num("call.dispatch_self_ns", mean_ns(find_stats(spans, "call.dispatch"), true))
        .str("call.source", "the benchmark driver's own register and report calls")
        .integer("spans", Tracer::span_count());
    if (!opts.trace_out.empty()) Tracer::write_csv(opts.trace_out);
  }

  Report counts;
  counts.integer("sim.events", events_run)
      .integer("sched.reports", reports)
      .integer("sched.batches", sched.report_batches_received())
      .integer("units_issued", sched.pool().units_issued())
      .integer("minted_in_refill", sched.pool().units_issued() - issued_before_refill);
  out.list("setup_s", setup_s)
      .num("peak_rss_mb", peak_rss_mb())
      .num("failed_frac", net.started ? static_cast<double>(net.failed) /
                                            static_cast<double>(net.started)
                                      : 0)
      .integer("attempted", checks.attempted)
      .integer("failed", checks.failed)
      .raw("counts", counts.json())
      .raw("e2e", e2e.json())
      .raw("layers", layers.json());
  sched.stop();
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace perfbench
