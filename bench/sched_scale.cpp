// Scheduler scale gate: one scheduler, a sharded work pool, and a million
// outstanding work units under seeded client churn (DESIGN.md §13,
// EXPERIMENTS.md "Scheduler scale").
//
// The point of the batched directive API is that scheduler traffic is a
// function of the CLIENT population, not the unit population: a client
// holding an 8192-unit lease costs one kSchedReportBatch round-trip per
// quantum, and the range-sharded pool behind the scheduler absorbs the whole
// batch with one router call. This harness drives 128 synthetic clients
// (the bench is its own client driver, so it can keep a reference model of
// who holds what) to 1,048,576 outstanding units across 8 shards, kills a
// seeded cohort mid-run, lets the sweep reclaim their leases, registers
// replacements that drain the orphaned frontier back out, and gates:
//
//   * outstanding units return to the full clients x lease target;
//   * ZERO lost units (pool-assigned but held by nobody alive) and ZERO
//     double-issued units (held by two live clients at once), checked by
//     exact reconciliation of pool.assigned_units() against the driver's
//     holder model;
//   * p99 directive latency (report sent -> directive applied) stays
//     bounded, across every batch call in the run;
//   * a replayed report batch (same client, same seq) is answered from the
//     reply cache bit-identically and mutates nothing;
//   * the replacement refill reuses reclaimed frontier work across shard
//     boundaries (steals > 0) instead of minting from scratch.
//
// Emits ONE machine-readable JSON line:
//
//   {"bench":"sched_scale","clients":128,"lease":8192,"shards":8,
//    "outstanding":...,"units_issued":...,"frontier":...,"reports":...,
//    "batches":...,"replays":...,"steals":...,"presumed_dead":...,
//    "double_issued":0,"lost":0,"p99_directive_us":...,"sim_events":...}
//
// --quick shrinks the fleet (64 clients x 512 units, 4 shards) for the CI
// smoke run but keeps every correctness gate.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/rng.hpp"
#include "core/scheduler.hpp"
#include "ramsey/graph.hpp"
#include "sim/event_queue.hpp"
#include "sim/network_model.hpp"
#include "sim/sim_transport.hpp"

namespace ew::core {
namespace {

constexpr Duration kReportInterval = 60 * kSecond;

struct DriverClient {
  Endpoint ep;
  std::uint64_t seq = 0;
  std::unordered_set<std::uint64_t> held;
  bool alive = true;
};

struct Driver {
  Driver(sim::EventQueue& events, Transport& transport, Endpoint sched)
      : node(events, transport, Endpoint{"driver", 3000}), sched(sched) {
    if (!node.start().ok()) std::abort();
    Rng g(99);
    graph_blob = ramsey::ColoredGraph::random(10, g).serialize();
  }

  /// Apply a DirectiveBatch to client i, cross-checking the holder model.
  void apply(std::size_t i, DirectiveBatch&& d) {
    auto& c = clients[i];
    for (auto id : d.revoke) {
      if (c.held.erase(id) > 0) {
        auto h = holder.find(id);
        if (h != holder.end() && h->second == i) holder.erase(h);
      }
    }
    for (auto& spec : d.assign) {
      if (!c.held.insert(spec.unit_id).second) continue;  // replayed assign
      auto h = holder.find(spec.unit_id);
      if (h != holder.end() && h->second != i && clients[h->second].alive) {
        ++double_issued;
        std::fprintf(stderr,
                     "sched_scale: unit %llu issued to client %zu while "
                     "client %zu still holds it\n",
                     static_cast<unsigned long long>(spec.unit_id), i,
                     h->second);
      }
      holder[spec.unit_id] = i;
    }
  }

  void register_client(std::size_t i, std::uint32_t lease) {
    ClientHello hello;
    hello.client = clients[i].ep;
    hello.infra = Infra::kUnix;
    hello.host = clients[i].ep.host;
    hello.want_units = lease;
    CallOptions o;
    o.retry = RetryPolicy::standard(2);
    o.trace_tag = "bench.register";
    ++pending;
    node.call(sched, msgtype::kSchedRegister, hello.serialize(), std::move(o),
              [this, i](Result<Bytes> r) {
                --pending;
                if (!r.ok()) {
                  ++call_failures;
                  return;
                }
                auto d = DirectiveBatch::deserialize(*r);
                if (d) apply(i, std::move(*d));
              });
  }

  /// One report batch for client i covering its whole lease. Retried and
  /// hedged: the scheduler's seq dedupe makes the duplicates safe, which is
  /// exactly the property under test.
  void send_report(std::size_t i, std::uint32_t lease, int round,
                   bool keep_wire = false) {
    auto& c = clients[i];
    ReportBatch batch;
    batch.client = c.ep;
    batch.seq = ++c.seq;
    batch.want_units = lease;
    batch.reports.reserve(c.held.size());
    for (auto id : c.held) {
      ramsey::WorkReport rep;
      rep.unit_id = id;
      rep.ops_done = 60'000'000;
      rep.best_energy =
          std::max<std::uint64_t>(15, 300 - 20 * round + id % 10);
      rep.found = false;
      rep.best_graph = graph_blob;
      batch.reports.push_back(std::move(rep));
    }
    Bytes wire = batch.serialize();
    if (keep_wire) probe_wire = wire;
    CallOptions o;
    o.retry = RetryPolicy::standard(1);
    o.hedge = HedgePolicy::at(0.95);
    o.trace_tag = "bench.report";
    const TimePoint sent = node.executor().now();
    ++pending;
    node.call(sched, msgtype::kSchedReportBatch, std::move(wire), std::move(o),
              [this, i, sent, keep_wire](Result<Bytes> r) {
                --pending;
                if (!r.ok()) {
                  ++call_failures;
                  return;
                }
                latencies_us.push_back(
                    static_cast<std::uint64_t>(node.executor().now() - sent));
                if (keep_wire) probe_reply = *r;
                auto d = DirectiveBatch::deserialize(*r);
                if (d) apply(i, std::move(*d));
              });
  }

  Node node;
  Endpoint sched;
  Bytes graph_blob;
  std::vector<DriverClient> clients;
  std::unordered_map<std::uint64_t, std::size_t> holder;  // unit -> client
  std::vector<std::uint64_t> latencies_us;
  Bytes probe_wire;   // last wire bytes of the replay-probe client
  Bytes probe_reply;  // the reply those bytes earned
  std::uint64_t double_issued = 0;
  std::uint64_t call_failures = 0;
  int pending = 0;
};

}  // namespace
}  // namespace ew::core

int main(int argc, char** argv) {
  using namespace ew;
  using namespace ew::core;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::size_t kClients = quick ? 64 : 128;
  const std::uint32_t kLease = quick ? 512 : 8192;
  const std::uint32_t kShards = quick ? 4 : 8;
  const std::size_t kKills = quick ? 8 : 12;
  const std::uint64_t target =
      static_cast<std::uint64_t>(kClients) * kLease;

  sim::EventQueue events;
  sim::NetworkModel net{Rng(0x5CED)};
  net.set_loss_rate(0.0);
  net.set_jitter_sigma(0.0);
  sim::SimTransport transport(events, net);

  Node sched_node(events, transport, Endpoint{"sched", 601});
  if (!sched_node.start().ok()) std::abort();
  SchedulerServer::Options so;
  so.pool.n = 10;
  so.pool.k = 4;
  so.pool.seed_base = 0xBE9C;
  // Reclaimed leases must be reusable, not trimmed: the refill leg gates on
  // replacements draining the orphaned frontier.
  so.pool.max_idle_frontier = target;
  so.pool_shards = kShards;
  so.max_units_per_client = kLease;
  so.migration_period = 12 * kHour;  // migration has its own tests; keep the
                                     // reconciliation model transfer-free
  SchedulerServer sched(sched_node, so);
  sched.start();

  Driver driver(events, transport, sched_node.self());
  Rng rng(0xC0FFEE);

  // Ramp: register the fleet staggered across a few seconds; every client
  // leaves with a full lease of freshly minted units.
  for (std::size_t i = 0; i < kClients; ++i) {
    driver.clients.push_back(DriverClient{
        .ep = Endpoint{"c" + std::to_string(i), 2000}, .held = {}});
  }
  for (std::size_t i = 0; i < kClients; ++i) {
    events.schedule(static_cast<Duration>(i) * 50 * kMillisecond,
                    [&driver, i, kLease] { driver.register_client(i, kLease); });
  }
  events.run_for(30 * kSecond);

  auto run_round = [&](int round, std::size_t probe = SIZE_MAX) {
    for (std::size_t i = 0; i < driver.clients.size(); ++i) {
      if (!driver.clients[i].alive) continue;
      events.schedule(static_cast<Duration>(i) * 20 * kMillisecond,
                      [&driver, i, kLease, round, probe] {
                        driver.send_report(i, kLease, round, i == probe);
                      });
    }
    events.run_for(kReportInterval);
  };

  int round = 0;
  for (; round < 3; ++round) run_round(round);  // steady state
  const std::uint64_t outstanding_steady = sched.pool().assigned_count();

  // Churn leg: a seeded cohort dies without deregistering (Condor eviction,
  // closed browser). Their reports stop; the sweep must notice and reclaim.
  std::size_t killed = 0;
  while (killed < kKills) {
    auto& victim = driver.clients[rng.below(driver.clients.size())];
    if (!victim.alive) continue;
    victim.alive = false;
    ++killed;
  }
  // Survivors keep reporting until every dead lease is swept back in.
  for (int spin = 0; spin < 30 && sched.clients_presumed_dead() < kKills;
       ++spin) {
    run_round(round++);
  }

  // Refill: replacements register and are fed from the reclaimed frontier
  // (cross-shard steals), not from fresh mints.
  const std::uint64_t issued_before_refill = sched.pool().units_issued();
  const std::size_t first_replacement = driver.clients.size();
  for (std::size_t i = 0; i < kKills; ++i) {
    driver.clients.push_back(DriverClient{
        .ep = Endpoint{"r" + std::to_string(i), 2000}, .held = {}});
  }
  for (std::size_t i = 0; i < kKills; ++i) {
    events.schedule(static_cast<Duration>(i) * 100 * kMillisecond,
                    [&driver, first_replacement, i, kLease] {
                      driver.register_client(first_replacement + i, kLease);
                    });
  }
  events.run_for(30 * kSecond);
  run_round(round++);
  run_round(round++, /*probe=*/0);  // final round; keep client 0's wire bytes

  // Reconcile: the pool's assigned set must be EXACTLY the disjoint union
  // of what live clients hold.
  std::uint64_t lost = 0, phantom = 0;
  {
    const auto pool_ids = sched.pool().assigned_units();  // sorted
    std::vector<std::uint64_t> held_ids;
    for (const auto& c : driver.clients) {
      if (!c.alive) continue;
      held_ids.insert(held_ids.end(), c.held.begin(), c.held.end());
    }
    std::sort(held_ids.begin(), held_ids.end());
    std::vector<std::uint64_t> diff;
    std::set_difference(pool_ids.begin(), pool_ids.end(), held_ids.begin(),
                        held_ids.end(), std::back_inserter(diff));
    lost = diff.size();  // assigned in the pool, held by nobody alive
    diff.clear();
    std::set_difference(held_ids.begin(), held_ids.end(), pool_ids.begin(),
                        pool_ids.end(), std::back_inserter(diff));
    phantom = diff.size();  // held by a client, unknown to the pool
  }

  // Replay probe: the exact bytes of client 0's last batch, again. The
  // scheduler must answer from its reply cache, bit-identically, without
  // touching the pool.
  const std::uint64_t replays_before = sched.batch_replays();
  const auto assigned_before_probe = sched.pool().assigned_count();
  Bytes replay_reply;
  bool replay_ok = false;
  driver.node.call(sched_node.self(), msgtype::kSchedReportBatch,
                   Bytes(driver.probe_wire), CallOptions::fixed(5 * kSecond),
                   [&](Result<Bytes> r) {
                     replay_ok = r.ok();
                     if (r.ok()) replay_reply = *r;
                   });
  events.run_for(10 * kSecond);
  const bool replay_identical = replay_ok && replay_reply == driver.probe_reply;
  const bool replay_counted = sched.batch_replays() > replays_before;
  const bool replay_pure =
      sched.pool().assigned_count() == assigned_before_probe;

  const std::uint64_t outstanding = sched.pool().assigned_count();
  const std::uint64_t p99 = bench::percentile(driver.latencies_us, 0.99);
  const std::uint64_t p50 = bench::percentile(driver.latencies_us, 0.50);

  bench::JsonWriter w;
  w.u64("clients", kClients)
      .u64("lease", kLease)
      .u64("shards", kShards)
      .u64("outstanding", outstanding)
      .u64("outstanding_steady", outstanding_steady)
      .u64("units_issued", sched.pool().units_issued())
      .u64("minted_in_refill",
           sched.pool().units_issued() - issued_before_refill)
      .u64("frontier", sched.pool().idle_frontier_size())
      .u64("reports", sched.reports_received())
      .u64("batches", sched.report_batches_received())
      .u64("replays", sched.batch_replays())
      .u64("steals", sched.pool().steals())
      .u64("presumed_dead", sched.clients_presumed_dead())
      .u64("double_issued", driver.double_issued)
      .u64("lost", lost)
      .u64("phantom", phantom)
      .u64("call_failures", driver.call_failures)
      .u64("p50_directive_us", p50)
      .u64("p99_directive_us", p99)
      .u64("sim_events", events.executed());
  bench::emit_json("sched_scale", w);

  int rc = 0;
  if (outstanding < target) {
    std::fprintf(stderr, "FAIL: %llu outstanding units, target %llu\n",
                 static_cast<unsigned long long>(outstanding),
                 static_cast<unsigned long long>(target));
    rc = 1;
  }
  if (driver.double_issued != 0) {
    std::fprintf(stderr, "FAIL: %llu double-issued units\n",
                 static_cast<unsigned long long>(driver.double_issued));
    rc = 1;
  }
  if (lost != 0 || phantom != 0) {
    std::fprintf(stderr, "FAIL: reconciliation found %llu lost / %llu phantom units\n",
                 static_cast<unsigned long long>(lost),
                 static_cast<unsigned long long>(phantom));
    rc = 1;
  }
  if (p99 > 5 * kSecond) {
    std::fprintf(stderr, "FAIL: p99 directive latency %llu us (cap 5s)\n",
                 static_cast<unsigned long long>(p99));
    rc = 1;
  }
  if (sched.clients_presumed_dead() < kKills) {
    std::fprintf(stderr, "FAIL: only %llu of %zu dead clients swept\n",
                 static_cast<unsigned long long>(sched.clients_presumed_dead()),
                 kKills);
    rc = 1;
  }
  if (!replay_identical || !replay_counted || !replay_pure) {
    std::fprintf(stderr,
                 "FAIL: replay probe (identical=%d counted=%d pure=%d)\n",
                 replay_identical, replay_counted, replay_pure);
    rc = 1;
  }
  if (sched.pool().steals() == 0) {
    std::fprintf(stderr, "FAIL: refill never reused the reclaimed frontier\n");
    rc = 1;
  }
  return rc;
}
