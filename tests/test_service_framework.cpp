// Tests for the Section 6 service framework and the volatile-but-replicated
// server directory built on it.
#include <gtest/gtest.h>

#include <memory>

#include "core/server_directory.hpp"
#include "core/service_framework.hpp"
#include "gossip/gossip_server.hpp"
#include "sim/event_queue.hpp"
#include "sim/network_model.hpp"
#include "sim/sim_transport.hpp"

namespace ew::core {
namespace {

constexpr MsgType kPing = 0x0460;

/// A trivial module: answers pings, counts ticks.
class PingModule final : public ServiceModule {
 public:
  [[nodiscard]] const char* name() const override { return "ping"; }
  void attach(ServiceContext& ctx) override {
    ctx.handle(kPing, [this](const IncomingMessage& m, Responder r) {
      ++pings_;
      r.ok(m.packet.payload);
    });
    ctx.every(10 * kSecond, [this] { ++ticks_; });
    ctx.after(kSecond, [this] { ++one_shots_; });
  }
  void detach() override { detached_ = true; }

  int pings_ = 0;
  int ticks_ = 0;
  int one_shots_ = 0;
  bool detached_ = false;
};

class ServiceFrameworkTest : public ::testing::Test {
 protected:
  ServiceFrameworkTest() : net_(Rng(77)), transport_(events_, net_) {
    net_.set_loss_rate(0.0);
    net_.set_jitter_sigma(0.0);
  }
  sim::EventQueue events_;
  sim::NetworkModel net_;
  sim::SimTransport transport_;
  gossip::ComparatorRegistry comparators_;
};

TEST_F(ServiceFrameworkTest, ModulesAttachAndServe) {
  ServiceFramework fw(events_, transport_, Endpoint{"svc", 100});
  auto module = std::make_unique<PingModule>();
  auto* ping = module.get();
  fw.install(std::move(module));
  ASSERT_TRUE(fw.start().ok());
  EXPECT_EQ(fw.module_count(), 1u);

  Node client(events_, transport_, Endpoint{"cli", 1});
  ASSERT_TRUE(client.start().ok());
  std::optional<Result<Bytes>> got;
  client.call(Endpoint{"svc", 100}, kPing, {7}, CallOptions::fixed(kSecond),
              [&](Result<Bytes> r) { got = std::move(r); });
  events_.run_for(5 * kSecond);
  ASSERT_TRUE(got && got->ok());
  EXPECT_EQ(got->value(), Bytes{7});
  EXPECT_EQ(ping->pings_, 1);
}

TEST_F(ServiceFrameworkTest, TicksFireUntilStopped) {
  ServiceFramework fw(events_, transport_, Endpoint{"svc", 100});
  auto module = std::make_unique<PingModule>();
  auto* ping = module.get();
  fw.install(std::move(module));
  ASSERT_TRUE(fw.start().ok());
  events_.run_for(65 * kSecond);
  EXPECT_EQ(ping->ticks_, 6);
  EXPECT_EQ(ping->one_shots_, 1);
  fw.stop();
  EXPECT_TRUE(ping->detached_);
  events_.run_for(kMinute);
  EXPECT_EQ(ping->ticks_, 6);  // no ticks after stop
}

TEST_F(ServiceFrameworkTest, DoubleStartRejected) {
  ServiceFramework fw(events_, transport_, Endpoint{"svc", 100});
  ASSERT_TRUE(fw.start().ok());
  EXPECT_EQ(fw.start().code(), Err::kRejected);
}

TEST_F(ServiceFrameworkTest, ContextCallFeedsTimeoutForecasts) {
  ServiceFramework server(events_, transport_, Endpoint{"svc", 100});
  server.install(std::make_unique<PingModule>());
  ASSERT_TRUE(server.start().ok());

  // A second framework acting as the caller, via a calling module.
  class CallerModule final : public ServiceModule {
   public:
    [[nodiscard]] const char* name() const override { return "caller"; }
    void attach(ServiceContext& ctx) override {
      ctx.every(5 * kSecond, [this, &ctx] {
        ctx.call(Endpoint{"svc", 100}, kPing, {}, [this](Result<Bytes> r) {
          if (r.ok()) ++ok_;
        });
      });
    }
    int ok_ = 0;
  };
  ServiceFramework caller(events_, transport_, Endpoint{"caller", 100});
  auto module = std::make_unique<CallerModule>();
  auto* cm = module.get();
  caller.install(std::move(module));
  ASSERT_TRUE(caller.start().ok());
  events_.run_for(2 * kMinute);
  EXPECT_GE(cm->ok_, 20);
  // The caller's (destination, type) stream has learned this event.
  const Forecast f =
      caller.node().call_policy().forecast(Endpoint{"svc", 100}, kPing);
  EXPECT_GT(f.samples, 10u);
}

TEST_F(ServiceFrameworkTest, ExposeStateWithoutGossipIsSafeNoOp) {
  ServiceFramework fw(events_, transport_, Endpoint{"svc", 100});
  class StateModule final : public ServiceModule {
   public:
    [[nodiscard]] const char* name() const override { return "state"; }
    void attach(ServiceContext& ctx) override {
      ctx.expose_state(0x0777, gossip::SyncClient::StateHandlers{
                                   [] { return Bytes{}; },
                                   [](const Bytes&) {},
                               });
    }
  };
  fw.install(std::make_unique<StateModule>());
  EXPECT_TRUE(fw.start().ok());
  events_.run_for(kMinute);
}

// --- ServerList value semantics -------------------------------------------------

TEST(ServerList, MergeKeepsNewestHeartbeat) {
  ServerList l;
  EXPECT_TRUE(l.merge(ServerEntry{Endpoint{"a", 1}, 5}));
  EXPECT_FALSE(l.merge(ServerEntry{Endpoint{"a", 1}, 3}));
  EXPECT_TRUE(l.merge(ServerEntry{Endpoint{"a", 1}, 9}));
  EXPECT_EQ(l.entries()[0].heartbeat, 9u);
}

TEST(ServerList, SerializeRoundTrip) {
  ServerList l;
  l.merge(ServerEntry{Endpoint{"a", 1}, 5});
  l.merge(ServerEntry{Endpoint{"b", 2}, 7});
  auto out = ServerList::deserialize(l.serialize());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 2u);
  EXPECT_TRUE(out->contains(Endpoint{"b", 2}));
}

TEST(ServerList, PruneDropsLaggards) {
  ServerList l;
  l.merge(ServerEntry{Endpoint{"old", 1}, 2});
  l.merge(ServerEntry{Endpoint{"new", 1}, 12});
  l.prune(6);
  EXPECT_FALSE(l.contains(Endpoint{"old", 1}));
  EXPECT_TRUE(l.contains(Endpoint{"new", 1}));
}

TEST(ServerList, CompareDetectsNovelty) {
  ServerList a, b;
  a.merge(ServerEntry{Endpoint{"x", 1}, 5});
  b.merge(ServerEntry{Endpoint{"x", 1}, 5});
  EXPECT_EQ(ServerList::compare(a.serialize(), b.serialize()), 0);
  a.merge(ServerEntry{Endpoint{"y", 1}, 1});
  EXPECT_GT(ServerList::compare(a.serialize(), b.serialize()), 0);
  EXPECT_LT(ServerList::compare(b.serialize(), a.serialize()), 0);
}

TEST(ServerList, CompareMutualNoveltyBreaksByMass) {
  ServerList a, b;
  a.merge(ServerEntry{Endpoint{"x", 1}, 10});
  b.merge(ServerEntry{Endpoint{"y", 1}, 3});
  EXPECT_GT(ServerList::compare(a.serialize(), b.serialize()), 0);
}

TEST(ServerList, MergeBlobsUnionsNewestBeatPerServer) {
  ServerList a, b;
  a.merge(ServerEntry{Endpoint{"x", 1}, 10});
  a.merge(ServerEntry{Endpoint{"y", 1}, 3});
  b.merge(ServerEntry{Endpoint{"y", 1}, 8});
  b.merge(ServerEntry{Endpoint{"z", 1}, 1});
  auto merged = ServerList::deserialize(
      ServerList::merge_blobs(a.serialize(), b.serialize()));
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->size(), 3u);
  for (const auto& e : merged->entries()) {
    if (e.server.host == "x") {
      EXPECT_EQ(e.heartbeat, 10u);
    }
    if (e.server.host == "y") {
      EXPECT_EQ(e.heartbeat, 8u);
    }
    if (e.server.host == "z") {
      EXPECT_EQ(e.heartbeat, 1u);
    }
  }
  // A malformed side contributes nothing; the other survives whole.
  auto survived =
      ServerList::deserialize(ServerList::merge_blobs(Bytes{1}, b.serialize()));
  ASSERT_TRUE(survived.ok());
  EXPECT_EQ(survived->size(), 2u);
}

// --- Directory replication through real gossips ---------------------------------

TEST_F(ServiceFrameworkTest, DirectoriesConvergeThroughGossip) {
  ServerDirectoryModule::register_comparator(comparators_);
  const std::vector<Endpoint> gossip_eps = {Endpoint{"g0", 501},
                                            Endpoint{"g1", 501}};
  // Gossip pool.
  std::vector<std::unique_ptr<Node>> gnodes;
  std::vector<std::unique_ptr<gossip::GossipServer>> gossips;
  gossip::GossipServer::Options gopts;
  gopts.poll_period = 5 * kSecond;
  gopts.peer_sync_period = 7 * kSecond;
  gopts.clique.token_period = 2 * kSecond;
  gopts.clique.probe_period = 4 * kSecond;
  for (const auto& ep : gossip_eps) {
    gnodes.push_back(std::make_unique<Node>(events_, transport_, ep));
    ASSERT_TRUE(gnodes.back()->start().ok());
    gossips.push_back(std::make_unique<gossip::GossipServer>(
        *gnodes.back(), comparators_, gossip_eps, gopts));
    gossips.back()->start();
  }
  // Three servers, each a framework with a directory module.
  std::vector<std::unique_ptr<ServiceFramework>> fws;
  std::vector<ServerDirectoryModule*> dirs;
  ServerDirectoryModule::Options dopts;
  dopts.heartbeat_period = 10 * kSecond;
  for (int i = 0; i < 3; ++i) {
    auto fw = std::make_unique<ServiceFramework>(
        events_, transport_, Endpoint{"srv" + std::to_string(i), 601},
        gossip_eps, comparators_);
    auto module = std::make_unique<ServerDirectoryModule>(dopts);
    dirs.push_back(module.get());
    fw->install(std::move(module));
    ASSERT_TRUE(fw->start().ok());
    fws.push_back(std::move(fw));
  }
  events_.run_for(10 * kMinute);
  // Converged — and STAYS converged at every later sample. Before the
  // union merger, whole-blob LWW at the gossip stores kept destroying the
  // freshest heartbeat one side alone knew; propagation lag then tripped
  // the staleness prune and live peers oscillated out of the directories,
  // so this assertion only held at phase-lucky instants.
  for (int minute = 0; minute < 5; ++minute) {
    events_.run_for(kMinute);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(dirs[static_cast<std::size_t>(i)]->directory().size(), 3u)
          << "at minute " << minute << " server " << i << " sees "
          << dirs[static_cast<std::size_t>(i)]->directory().size();
    }
  }

  // Kill server 2; its entry must age out of the survivors' directories.
  fws[2]->stop();
  transport_.set_host_up("srv2", false);
  events_.run_for(10 * kMinute);
  EXPECT_FALSE(dirs[0]->directory().contains(Endpoint{"srv2", 601}));
  EXPECT_FALSE(dirs[1]->directory().contains(Endpoint{"srv2", 601}));
  EXPECT_TRUE(dirs[0]->directory().contains(Endpoint{"srv0", 601}));
  EXPECT_TRUE(dirs[0]->directory().contains(Endpoint{"srv1", 601}));

  // A client can query any surviving server for the viable-server list.
  Node client(events_, transport_, Endpoint{"cli", 1});
  ASSERT_TRUE(client.start().ok());
  std::optional<Result<Bytes>> got;
  client.call(Endpoint{"srv0", 601}, msgtype::kDirectoryQuery, {}, CallOptions::fixed(5 * kSecond),
              [&](Result<Bytes> r) { got = std::move(r); });
  events_.run_for(10 * kSecond);
  ASSERT_TRUE(got && got->ok());
  auto list = ServerList::deserialize(*got.value());
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 2u);
}

}  // namespace
}  // namespace ew::core
