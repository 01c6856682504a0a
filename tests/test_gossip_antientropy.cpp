// Property test for the versioned-digest/delta anti-entropy redesign.
//
// The old protocol shipped the full state set every round, so convergence to
// "everyone holds the freshest copy of everything" was trivially true. The
// digest/delta protocol only moves blobs a summary proves stale — this test
// checks that the end state is still exactly the reference full-state
// exchange would produce, across seeded runs with link loss, gossip host
// flaps, and concurrent version bumps, for both the flat pool and the
// hierarchical (sharded) one.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "gossip/gossip_server.hpp"
#include "gossip/sync_client.hpp"
#include "sim/event_queue.hpp"
#include "sim/network_model.hpp"
#include "sim/sim_transport.hpp"

namespace ew::gossip {
namespace {

/// A component exposing several versioned-counter state types.
struct MultiComponent {
  MultiComponent(sim::EventQueue& events, Transport& transport,
                 const std::string& host, const ComparatorRegistry& comparators,
                 std::vector<Endpoint> gossips, const std::vector<MsgType>& types)
      : node(std::make_unique<Node>(events, transport, Endpoint{host, 2000})) {
    EXPECT_TRUE(node->start().ok());
    SyncClient::Options o;
    o.reregister_period = 30 * kSecond;
    o.retry_delay = 2 * kSecond;
    sync = std::make_unique<SyncClient>(*node, comparators, std::move(gossips), o);
    for (MsgType t : types) {
      versions[t] = 0;
      sync->expose(t, SyncClient::StateHandlers{
                          [this, t] { return versioned_blob(versions.at(t), {}); },
                          [this, t](const Bytes& fresh) {
                            versions.at(t) = *blob_version(fresh);
                          },
                      });
    }
    sync->start();
  }

  std::unique_ptr<Node> node;
  std::unique_ptr<SyncClient> sync;
  std::map<MsgType, std::uint64_t> versions;
};

/// Run one seeded chaos episode and check the pool's final state against the
/// reference model (for these counters: the max version ever written per
/// type, which is exactly what merging every blob full-state would keep).
/// Optionally writes a fingerprint of the final stores (for the determinism
/// check). ASSERT_* needs a void return, hence the out-parameter.
void run_convergence_property(std::uint64_t seed, std::uint32_t num_cliques,
                              std::uint64_t* fingerprint = nullptr) {
  SCOPED_TRACE(std::string("seed=")
                   .append(std::to_string(seed))
                   .append(" cliques=")
                   .append(std::to_string(num_cliques)));
  sim::EventQueue events;
  sim::NetworkModel net{Rng(seed)};
  net.set_loss_rate(0.0);
  net.set_jitter_sigma(0.0);
  sim::SimTransport transport(events, net);
  ComparatorRegistry comparators;
  Rng rng(seed * 7919 + 17);

  constexpr int kNumGossips = 4;
  std::vector<Endpoint> well_known;
  for (int i = 0; i < kNumGossips; ++i) {
    well_known.push_back(Endpoint{std::string("g").append(std::to_string(i)), 501});
  }
  GossipServer::Options opts;
  opts.poll_period = 5 * kSecond;
  opts.peer_sync_period = 8 * kSecond;
  opts.parent_sync_period = 8 * kSecond;
  opts.lease = 10 * kMinute;
  opts.num_cliques = num_cliques;
  opts.clique.token_period = 2 * kSecond;
  opts.clique.probe_period = 4 * kSecond;
  std::vector<std::unique_ptr<Node>> nodes;
  std::vector<std::unique_ptr<GossipServer>> servers;
  for (int i = 0; i < kNumGossips; ++i) {
    auto node = std::make_unique<Node>(events, transport,
                                       well_known[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(node->start().ok());
    auto server =
        std::make_unique<GossipServer>(*node, comparators, well_known, opts);
    server->start();
    nodes.push_back(std::move(node));
    servers.push_back(std::move(server));
  }

  std::vector<MsgType> all_types;
  for (int i = 0; i < 6; ++i) {
    all_types.push_back(static_cast<MsgType>(0x0460 + i));
  }
  std::vector<std::unique_ptr<MultiComponent>> comps;
  for (int i = 0; i < 5; ++i) {
    // Each component exposes a seeded subset (at least two types, overlapping
    // with other components so freshness races actually happen).
    std::vector<MsgType> mine;
    for (MsgType t : all_types) {
      if (rng.below(2) == 0) mine.push_back(t);
    }
    while (mine.size() < 2) {
      const MsgType t = all_types[rng.below(all_types.size())];
      if (std::find(mine.begin(), mine.end(), t) == mine.end()) mine.push_back(t);
    }
    comps.push_back(std::make_unique<MultiComponent>(
        events, transport, std::string("comp-").append(std::to_string(i)), comparators, well_known,
        mine));
  }
  events.run_for(1 * kMinute);  // registration + clique formation

  // Reference model: the freshest version ever written per type.
  std::map<MsgType, std::uint64_t> reference;
  for (const auto& c : comps) {
    for (const auto& [t, v] : c->versions) {
      if (!reference.count(t)) reference[t] = v;
    }
  }

  // Chaos: eight segments of concurrent version bumps, link loss, and gossip
  // host flaps, all driven by the seed.
  for (int seg = 0; seg < 8; ++seg) {
    for (auto& c : comps) {
      for (auto& [t, v] : c->versions) {
        if (rng.below(2) == 0) {
          v += 1 + rng.below(5);
          if (v > reference[t]) reference[t] = v;
        }
      }
    }
    net.set_loss_rate(seg % 2 == 1 ? 0.15 : 0.0);
    if (rng.below(2) == 0) {
      const auto victim = rng.below(kNumGossips);
      transport.set_host_up(std::string("g").append(std::to_string(victim)), false);
      events.run_for(30 * kSecond);
      transport.set_host_up(std::string("g").append(std::to_string(victim)), true);
    }
    events.run_for(40 * kSecond);
  }

  // Heal and let anti-entropy finish.
  net.set_loss_rate(0.0);
  for (int i = 0; i < kNumGossips; ++i) {
    transport.set_host_up(std::string("g").append(std::to_string(i)), true);
  }
  events.run_for(10 * kMinute);

  // Property 1: every gossip that owns a type holds exactly the reference
  // copy — the digest/delta protocol lost nothing and resurrected nothing.
  for (const auto& [t, want] : reference) {
    for (const auto& s : servers) {
      if (!s->owns_type(t)) continue;
      const auto stored = s->store().get(t);
      ASSERT_TRUE(stored.has_value()) << "type " << t << " missing";
      EXPECT_EQ(*blob_version(stored->content), want) << "type " << t;
    }
  }
  // Property 2: within a clique the stores are bit-identical (same rollup).
  for (std::uint32_t k = 0; k < num_cliques; ++k) {
    std::uint64_t rollup = 0;
    bool first = true;
    for (const auto& s : servers) {
      if (s->clique_id() != k) continue;
      if (first) {
        rollup = s->store().rollup_checksum();
        first = false;
      } else {
        EXPECT_EQ(s->store().rollup_checksum(), rollup) << "clique " << k;
      }
    }
  }
  // Property 3: the components themselves were pulled up to the freshest
  // version of everything they expose.
  for (const auto& c : comps) {
    for (const auto& [t, v] : c->versions) {
      EXPECT_EQ(v, reference[t]) << "component type " << t;
    }
  }
  if (fingerprint != nullptr) {
    std::uint64_t fp = 0;
    for (const auto& s : servers) {
      fp = fp * 1099511628211ull + s->store().rollup_checksum();
    }
    *fingerprint = fp;
  }
  for (auto& s : servers) s->stop();
  for (auto& c : comps) c->sync->stop();
}

TEST(GossipAntiEntropy, ConvergesToFullStateReferenceFlat) {
  for (std::uint64_t seed : {1u, 2u, 3u}) run_convergence_property(seed, 1);
}

TEST(GossipAntiEntropy, ConvergesToFullStateReferenceHierarchical) {
  for (std::uint64_t seed : {1u, 2u, 3u}) run_convergence_property(seed, 2);
}

TEST(GossipAntiEntropy, SameSeedSameFinalRollups) {
  // Determinism spot-check: two runs of the same seed end in identical
  // rollup checksums (the sim replays bit-for-bit, so any divergence here
  // is nondeterminism inside the gossip tier itself).
  for (std::uint32_t cliques : {1u, 2u}) {
    std::uint64_t first = 0, second = 0;
    run_convergence_property(11, cliques, &first);
    run_convergence_property(11, cliques, &second);
    EXPECT_EQ(first, second) << "cliques=" << cliques;
  }
}

}  // namespace
}  // namespace ew::gossip
