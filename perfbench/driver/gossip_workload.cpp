// gossip_sim: a seeded episode of the Gossip state-exchange service in the
// deterministic simulator.
//
// 4 Gossip servers in 2 cliques and 2,000 registered components over a
// 64-type universe, each component exposing two versioned-counter types.
// Four phases: registration (staggered, 500 components per simulated
// second, then two quiet minutes), three minutes of seeded version bumps,
// a chaos leg (25% link loss, one gossip host down for 20 s, concurrent
// bumps), and six minutes of heal. The output checks demand zero
// divergence: every owned type at its reference version on every server,
// each clique's rollup checksum in agreement, and no component left stale.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "driver/sim_support.hpp"
#include "driver/traced_transport.hpp"
#include "gossip/gossip_server.hpp"
#include "gossip/sync_client.hpp"
#include "obs/registry.hpp"
#include "sim/network_model.hpp"
#include "sim/sim_transport.hpp"

namespace perfbench {
namespace {

using ew::gossip::GossipServer;
using ew::gossip::SyncClient;

constexpr int kGossips = 4;
constexpr std::uint32_t kCliques = 2;
constexpr int kTypes = 64;
constexpr std::size_t kComponents = 2000;
constexpr std::size_t kProbeCalls = 4096;
// Extra worlds built and torn down per process, timed for setup_s.
constexpr int kSetupCycles = 3;

/// One registered application component: a Node, its SyncClient, and the
/// component's own versions of the two types it exposes.
struct Component {
  Component(ew::sim::EventQueue& q, ew::Transport& t, const std::string& host,
            const ew::gossip::ComparatorRegistry& comparators,
            std::vector<ew::Endpoint> gossips, ew::MsgType a, ew::MsgType b)
      : node(std::make_unique<ew::Node>(q, t, ew::Endpoint{host, 2000})) {
    static const std::uint32_t state_name = Tracer::intern("driver.state");
    SyncClient::Options o;
    o.reregister_period = 4 * ew::kHour;
    o.retry_delay = 5 * ew::kSecond;
    sync = std::make_unique<SyncClient>(*node, comparators, std::move(gossips), o);
    for (ew::MsgType type : {a, b}) {
      versions[type] = 0;
      sync->expose(type, SyncClient::StateHandlers{
                             [this, type] {
                               Scope span(state_name);
                               return ew::gossip::versioned_blob(versions.at(type), {});
                             },
                             [this, type](const ew::Bytes& fresh) {
                               Scope span(state_name);
                               versions.at(type) = *ew::gossip::blob_version(fresh);
                             },
                         });
    }
  }

  std::unique_ptr<ew::Node> node;
  std::unique_ptr<SyncClient> sync;
  std::map<ew::MsgType, std::uint64_t> versions;
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
        if (e.host.rfind("comp-", 0) == 0) return std::string("component.deliver");
        return std::string("gossip.handler:");
      });
      transport = wrapper.get();
    }
    for (int i = 0; i < kGossips; ++i) {
      well_known.push_back(ew::Endpoint{host_name("g", i), 501});
    }
    GossipServer::Options o;
    o.poll_period = 30 * ew::kSecond;
    o.peer_sync_period = 10 * ew::kSecond;
    o.parent_sync_period = 10 * ew::kSecond;
    o.lease = 2 * ew::kHour;
    o.num_cliques = kCliques;
    o.clique.token_period = 5 * ew::kSecond;
    o.clique.probe_period = 10 * ew::kSecond;
    for (const ew::Endpoint& ep : well_known) {
      nodes.push_back(std::make_unique<ew::Node>(events, *transport, ep));
      ok = ok && nodes.back()->start().ok();
      servers.push_back(std::make_unique<GossipServer>(*nodes.back(), comparators, well_known, o));
    }
    ew::Rng rng(seed * 6364136223846793005ull + 1442695040888963407ull);
    for (std::size_t i = 0; i < kComponents; ++i) {
      const ew::MsgType a = static_cast<ew::MsgType>(0x0500 + rng.below(kTypes));
      ew::MsgType b = a;
      while (b == a) b = static_cast<ew::MsgType>(0x0500 + rng.below(kTypes));
      comps.push_back(std::make_unique<Component>(events, *transport, host_name("comp-", i),
                                                  comparators, well_known, a, b));
      ok = ok && comps.back()->node->start().ok();
    }
    bump_rng = rng;
  }

  ew::sim::EventQueue events;
  ew::sim::NetworkModel net;
  ew::sim::SimTransport sim_transport;
  std::unique_ptr<TracedTransport> wrapper;
  ew::Transport* transport = nullptr;
  ew::gossip::ComparatorRegistry comparators;
  std::vector<ew::Endpoint> well_known;
  std::vector<std::unique_ptr<ew::Node>> nodes;
  std::vector<std::unique_ptr<GossipServer>> servers;
  std::vector<std::unique_ptr<Component>> comps;
  ew::Rng bump_rng;
  bool ok = true;  // every endpoint bound
};

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

int run_gossip(const Options& opts, Report& out) {
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
  const std::uint64_t polls0 = reg.counter(n::kGossipPolls).value();
  const std::uint64_t pushed0 = reg.counter(n::kGossipUpdatesPushed).value();
  const NetCounters net0 = NetCounters::read();
  EpisodeClock clock(w.events);
  ew::Rng& rng = w.bump_rng;
  std::map<ew::MsgType, std::uint64_t> reference;
  const std::uint32_t bump_name = Tracer::intern("driver.bump");
  auto bump_some = [&](std::size_t how_many) {
    Scope span(bump_name);
    for (std::size_t i = 0; i < how_many; ++i) {
      auto& c = *w.comps[rng.below(w.comps.size())];
      for (auto& [type, v] : c.versions) {
        if (rng.below(2) == 0) continue;
        v += 1 + rng.below(5);
        reference[type] = std::max(reference[type], v);
      }
    }
  };

  if (opts.trace) Tracer::set_enabled(true);
  const std::uint32_t episode_name = Tracer::intern("sim.episode");
  const CpuSample proc0 = process_cpu();
  const CpuSample thread0 = thread_cpu();
  const std::int64_t start = now_ns();
  {
    Scope episode(episode_name);
    // Registration.
    for (auto& s : w.servers) s->start();
    for (std::size_t i = 0; i < w.comps.size(); ++i) {
      w.comps[i]->sync->start();
      if (i % 500 == 499) clock.run_for(ew::kSecond);
    }
    clock.run_for(2 * ew::kMinute);
    for (const auto& c : w.comps) {
      for (const auto& [type, v] : c->versions) reference.emplace(type, v);
    }
    // Quiet churn.
    for (int round = 0; round < 3; ++round) {
      bump_some(std::min<std::size_t>(200, w.comps.size() / 4 + 1));
      clock.run_for(ew::kMinute);
    }
    // Chaos: link loss, one gossip host flap, concurrent bumps.
    w.net.set_loss_rate(0.25);
    bump_some(std::min<std::size_t>(200, w.comps.size() / 4 + 1));
    const std::string victim = host_name("g", rng.below(kGossips));
    w.sim_transport.set_host_up(victim, false);
    clock.run_for(20 * ew::kSecond);
    w.sim_transport.set_host_up(victim, true);
    clock.run_for(40 * ew::kSecond);
    // Heal.
    w.net.set_loss_rate(0.0);
    clock.run_for(6 * ew::kMinute);
  }
  const double wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  const CpuSample proc = process_cpu() - proc0;
  const CpuSample thread = thread_cpu() - thread0;
  const NetCounters net = NetCounters::read() - net0;
  const std::uint64_t polls = reg.counter(n::kGossipPolls).value() - polls0;
  const std::uint64_t pushed = reg.counter(n::kGossipUpdatesPushed).value() - pushed0;
  const std::uint64_t events_run = clock.events();

  // Output checks: zero divergence.
  Checks checks;
  for (const auto& [type, want] : reference) {
    for (const auto& s : w.servers) {
      if (!s->owns_type(type)) continue;
      const auto stored = s->store().get(type);
      const bool ok = stored.has_value() && *ew::gossip::blob_version(stored->content) == want;
      if (!ok) std::fprintf(stderr, "gossip_sim: type 0x%04x not at reference\n", unsigned{type});
      checks.expect(ok);
    }
  }
  std::string rollups;
  for (std::uint32_t k = 0; k < kCliques; ++k) {
    std::vector<std::uint64_t> sums;
    for (const auto& s : w.servers) {
      if (s->clique_id() == k) sums.push_back(s->store().rollup_checksum());
    }
    const bool agree = !sums.empty() && std::all_of(sums.begin(), sums.end(),
                                                    [&](auto v) { return v == sums[0]; });
    if (!agree) std::fprintf(stderr, "gossip_sim: clique %u stores diverged\n", k);
    checks.expect(agree);
    if (k) rollups += ',';
    rollups += hex64(sums.empty() ? 0 : sums[0]);
  }
  std::size_t stale = 0;
  for (const auto& c : w.comps) {
    for (const auto& [type, v] : c->versions) {
      stale += v != reference[type] ? 1 : 0;
      ++checks.attempted;
    }
  }
  checks.failed += stale;
  if (stale) std::fprintf(stderr, "gossip_sim: %zu component states left stale\n", stale);

  Report e2e, layers;
  report_episode(clock, events_run, wall_s, proc, thread, net, e2e, layers);
  layers.integer("gossip.polls", polls).integer("gossip.updates_pushed", pushed);
  if (opts.trace) {
    run_echo_probe(w.events, *w.transport, kProbeCalls, checks);
    Tracer::set_enabled(false);
    const auto spans = Tracer::summarize();
    report_traced_episode(spans, find_stats(spans, "sim.episode"), events_run,
                          w.wrapper->sampled_sizes(), opts.seed, layers);
    const SpanStats handlers = sum_prefix(spans, "gossip.handler:");
    Report by_type;
    for (const SpanStats& s : spans) {
      if (s.name.rfind("gossip.handler:", 0) == 0) {
        by_type.num(s.name.substr(15), mean_ns(s, false));
      }
    }
    layers.num("gossip.handler_ns", mean_ns(handlers, false))
        .raw("gossip.handler_ns_by_type", by_type.json())
        .num("call.issue_self_ns", mean_ns(find_stats(spans, "probe.call.issue"), true))
        .num("call.dispatch_self_ns", mean_ns(find_stats(spans, "probe.call.dispatch"), true))
        .str("call.source", "post-episode echo probe (the episode's calls are issued "
                            "inside gossip code, out of the benchmark's reach)")
        .integer("spans", Tracer::span_count());
    if (!opts.trace_out.empty()) Tracer::write_csv(opts.trace_out);
  }

  Report counts;
  counts.integer("sim.events", events_run)
      .integer("gossip.polls", polls)
      .integer("gossip.updates_pushed", pushed)
      .str("clique_rollups", rollups);
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
  for (auto& s : w.servers) s->stop();
  for (auto& c : w.comps) c->sync->stop();
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace perfbench
