// WISH subsystem tests: the wire codecs (round-trips, truncation, hostile
// counts, deterministic fuzz), the EnvStore LWW map (read-your-writes,
// convergence, the crash-restart ghost re-mint), the crash-stop JobTable,
// the daemon's primitives end-to-end on the sim (jobs over the wire,
// barrier, leader-once, scatter/gather, env through a gossip pool), and the
// model-checker fixture for the crash-safe barrier protocol.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "gossip/gossip_server.hpp"
#include "net/node.hpp"
#include "sim/event_queue.hpp"
#include "sim/mc/explorer.hpp"
#include "sim/network_model.hpp"
#include "sim/sim_transport.hpp"
#include "wish/daemon.hpp"
#include "wish/env_store.hpp"
#include "wish/job_table.hpp"
#include "wish/mc_world.hpp"
#include "wish/protocol.hpp"

namespace ew::wish {
namespace {

// ---- Codec round-trips ----------------------------------------------------

TEST(WishCodec, SpawnRoundTrip) {
  SpawnRequest req;
  req.owner = Endpoint{"client-3", 9000};
  req.jobs.push_back({"sort /tmp/in", 3 * kSecond});
  req.jobs.push_back({"", 0});
  auto back = SpawnRequest::deserialize(req.serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->owner, req.owner);
  ASSERT_EQ(back->jobs.size(), 2u);
  EXPECT_EQ(back->jobs[0].command, "sort /tmp/in");
  EXPECT_EQ(back->jobs[0].runtime, 3 * kSecond);
  EXPECT_EQ(back->jobs[1].runtime, 0);

  SpawnReply rep;
  rep.incarnation = 7;
  rep.ids = {(7ull << 32) | 1, (7ull << 32) | 2};
  auto rback = SpawnReply::deserialize(rep.serialize());
  ASSERT_TRUE(rback.ok());
  EXPECT_EQ(rback->incarnation, 7u);
  EXPECT_EQ(rback->ids, rep.ids);
}

TEST(WishCodec, PollSignalReapRoundTrip) {
  PollRequest poll;
  poll.ids = {1, 2, 99};
  auto pback = PollRequest::deserialize(poll.serialize());
  ASSERT_TRUE(pback.ok());
  EXPECT_EQ(pback->ids, poll.ids);

  PollReply rep;
  rep.incarnation = 2;
  rep.jobs.push_back({1, JobState::kExited, 0});
  rep.jobs.push_back({99, JobState::kLost, 0});
  auto rback = PollReply::deserialize(rep.serialize());
  ASSERT_TRUE(rback.ok());
  ASSERT_EQ(rback->jobs.size(), 2u);
  EXPECT_EQ(rback->jobs[0].state, JobState::kExited);
  EXPECT_EQ(rback->jobs[1].state, JobState::kLost);

  SignalRequest sig{42, 9};
  auto sback = SignalRequest::deserialize(sig.serialize());
  ASSERT_TRUE(sback.ok());
  EXPECT_EQ(sback->id, 42u);
  EXPECT_EQ(sback->signum, 9);

  SignalReply srep{JobState::kKilled};
  auto srback = SignalReply::deserialize(srep.serialize());
  ASSERT_TRUE(srback.ok());
  EXPECT_EQ(srback->state, JobState::kKilled);

  ReapRequest reap;
  reap.ids = {1};
  auto reback = ReapRequest::deserialize(reap.serialize());
  ASSERT_TRUE(reback.ok());
  EXPECT_EQ(reback->ids, reap.ids);

  ReapReply rr{1};
  auto rrback = ReapReply::deserialize(rr.serialize());
  ASSERT_TRUE(rrback.ok());
  EXPECT_EQ(rrback->reaped, 1u);
}

TEST(WishCodec, EnvRoundTrip) {
  EnvSetRequest set{"WISH_ROOT", "/grid/wish"};
  auto sback = EnvSetRequest::deserialize(set.serialize());
  ASSERT_TRUE(sback.ok());
  EXPECT_EQ(sback->key, "WISH_ROOT");
  EXPECT_EQ(sback->value, "/grid/wish");

  EnvSetReply srep{5};
  auto srback = EnvSetReply::deserialize(srep.serialize());
  ASSERT_TRUE(srback.ok());
  EXPECT_EQ(srback->version, 5u);

  EnvGetRequest get{"WISH_ROOT"};
  auto gback = EnvGetRequest::deserialize(get.serialize());
  ASSERT_TRUE(gback.ok());
  EXPECT_EQ(gback->key, "WISH_ROOT");

  EnvGetReply grep;
  grep.found = true;
  grep.value = "/grid/wish";
  grep.version = 5;
  auto grback = EnvGetReply::deserialize(grep.serialize());
  ASSERT_TRUE(grback.ok());
  EXPECT_TRUE(grback->found);
  EXPECT_EQ(grback->value, "/grid/wish");
  EXPECT_EQ(grback->version, 5u);
}

TEST(WishCodec, SyncPrimitivesRoundTrip) {
  BarrierEnter enter;
  enter.name = "bar0";
  enter.epoch = 3;
  enter.expected = 8;
  enter.participant = Endpoint{"wish-1", 701};
  enter.released_seen = true;  // the contagion bit must survive the wire
  auto eback = BarrierEnter::deserialize(enter.serialize());
  ASSERT_TRUE(eback.ok());
  EXPECT_EQ(eback->name, "bar0");
  EXPECT_EQ(eback->epoch, 3u);
  EXPECT_EQ(eback->expected, 8u);
  EXPECT_EQ(eback->participant, enter.participant);
  EXPECT_TRUE(eback->released_seen);

  BarrierEnterReply erep;
  erep.released = true;
  erep.coordinator_incarnation = 4;
  auto erback = BarrierEnterReply::deserialize(erep.serialize());
  ASSERT_TRUE(erback.ok());
  EXPECT_TRUE(erback->released);
  EXPECT_EQ(erback->coordinator_incarnation, 4u);

  BarrierRelease rel{"bar0", 3};
  auto rback = BarrierRelease::deserialize(rel.serialize());
  ASSERT_TRUE(rback.ok());
  EXPECT_EQ(rback->name, "bar0");
  EXPECT_EQ(rback->epoch, 3u);

  LeaderClaim claim{"lead0", 1, "wish-2"};
  auto cback = LeaderClaim::deserialize(claim.serialize());
  ASSERT_TRUE(cback.ok());
  EXPECT_EQ(cback->claimant, "wish-2");

  LeaderReply lrep{"wish-2", 9};
  auto lback = LeaderReply::deserialize(lrep.serialize());
  ASSERT_TRUE(lback.ok());
  EXPECT_EQ(lback->winner, "wish-2");
  EXPECT_EQ(lback->coordinator_incarnation, 9u);

  ScatterRequest sc;
  sc.name = "sc0";
  sc.epoch = 2;
  sc.payload = {0xde, 0xad, 0xbe, 0xef};
  sc.subtree = {Endpoint{"wish-3", 701}, Endpoint{"wish-4", 701}};
  auto scback = ScatterRequest::deserialize(sc.serialize());
  ASSERT_TRUE(scback.ok());
  EXPECT_EQ(scback->payload, sc.payload);
  EXPECT_EQ(scback->subtree, sc.subtree);

  ScatterReply screp{5, 0x1234567890abcdefull};
  auto scrback = ScatterReply::deserialize(screp.serialize());
  ASSERT_TRUE(scrback.ok());
  EXPECT_EQ(scrback->delivered, 5u);
  EXPECT_EQ(scrback->checksum, screp.checksum);
}

// ---- Codec negatives ------------------------------------------------------

/// Every WISH decoder, type-erased ("parse and tell me if it was ok"), with
/// one valid encoding each — the seed corpus for truncation and bit flips.
struct CodecCase {
  const char* name;
  std::function<bool(const Bytes&)> parse;
  Bytes valid;
};

std::vector<CodecCase> codec_cases() {
  SpawnRequest spawn;
  spawn.owner = Endpoint{"c", 9000};
  spawn.jobs.push_back({"cmd", kSecond});
  SpawnReply spawn_rep;
  spawn_rep.incarnation = 1;
  spawn_rep.ids = {1, 2};
  PollRequest poll;
  poll.ids = {1};
  PollReply poll_rep;
  poll_rep.jobs.push_back({1, JobState::kRunning, 0});
  ReapRequest reap;
  reap.ids = {1};
  BarrierEnter enter;
  enter.name = "b";
  enter.epoch = 1;
  enter.expected = 3;
  enter.participant = Endpoint{"w", 701};
  ScatterRequest sc;
  sc.name = "s";
  sc.payload = {1, 2, 3};
  sc.subtree = {Endpoint{"w", 701}};
  return {
      {"SpawnRequest",
       [](const Bytes& b) { return SpawnRequest::deserialize(b).ok(); },
       spawn.serialize()},
      {"SpawnReply",
       [](const Bytes& b) { return SpawnReply::deserialize(b).ok(); },
       spawn_rep.serialize()},
      {"PollRequest",
       [](const Bytes& b) { return PollRequest::deserialize(b).ok(); },
       poll.serialize()},
      {"PollReply",
       [](const Bytes& b) { return PollReply::deserialize(b).ok(); },
       poll_rep.serialize()},
      {"SignalRequest",
       [](const Bytes& b) { return SignalRequest::deserialize(b).ok(); },
       SignalRequest{1, 9}.serialize()},
      {"SignalReply",
       [](const Bytes& b) { return SignalReply::deserialize(b).ok(); },
       SignalReply{JobState::kExited}.serialize()},
      {"ReapRequest",
       [](const Bytes& b) { return ReapRequest::deserialize(b).ok(); },
       reap.serialize()},
      {"ReapReply",
       [](const Bytes& b) { return ReapReply::deserialize(b).ok(); },
       ReapReply{1}.serialize()},
      {"EnvSetRequest",
       [](const Bytes& b) { return EnvSetRequest::deserialize(b).ok(); },
       EnvSetRequest{"k", "v"}.serialize()},
      {"EnvSetReply",
       [](const Bytes& b) { return EnvSetReply::deserialize(b).ok(); },
       EnvSetReply{1}.serialize()},
      {"EnvGetRequest",
       [](const Bytes& b) { return EnvGetRequest::deserialize(b).ok(); },
       EnvGetRequest{"k"}.serialize()},
      {"EnvGetReply",
       [](const Bytes& b) { return EnvGetReply::deserialize(b).ok(); },
       EnvGetReply{true, "v", 1}.serialize()},
      {"BarrierEnter",
       [](const Bytes& b) { return BarrierEnter::deserialize(b).ok(); },
       enter.serialize()},
      {"BarrierEnterReply",
       [](const Bytes& b) { return BarrierEnterReply::deserialize(b).ok(); },
       BarrierEnterReply{true, 1}.serialize()},
      {"BarrierRelease",
       [](const Bytes& b) { return BarrierRelease::deserialize(b).ok(); },
       BarrierRelease{"b", 1}.serialize()},
      {"LeaderClaim",
       [](const Bytes& b) { return LeaderClaim::deserialize(b).ok(); },
       LeaderClaim{"l", 1, "w"}.serialize()},
      {"LeaderReply",
       [](const Bytes& b) { return LeaderReply::deserialize(b).ok(); },
       LeaderReply{"w", 1}.serialize()},
      {"ScatterRequest",
       [](const Bytes& b) { return ScatterRequest::deserialize(b).ok(); },
       sc.serialize()},
      {"ScatterReply",
       [](const Bytes& b) { return ScatterReply::deserialize(b).ok(); },
       ScatterReply{1, 2}.serialize()},
  };
}

TEST(WishCodecNegative, EveryValidEncodingParses) {
  for (const auto& c : codec_cases()) {
    EXPECT_TRUE(c.parse(c.valid)) << c.name;
  }
}

TEST(WishCodecNegative, EveryStrictPrefixIsRejected) {
  for (const auto& c : codec_cases()) {
    for (std::size_t len = 0; len < c.valid.size(); ++len) {
      Bytes prefix(c.valid.begin(),
                   c.valid.begin() + static_cast<std::ptrdiff_t>(len));
      EXPECT_FALSE(c.parse(prefix)) << c.name << " prefix " << len;
    }
  }
}

TEST(WishCodecNegative, EnvelopeVersionAndKindAreEnforced) {
  for (const auto& c : codec_cases()) {
    Bytes v0 = c.valid;
    v0[0] = 0;  // version 0: never valid
    EXPECT_FALSE(c.parse(v0)) << c.name << " version 0";
    Bytes vfuture = c.valid;
    vfuture[0] = kWishWireVersion + 1;
    EXPECT_FALSE(c.parse(vfuture)) << c.name << " future version";
    Bytes wrong_kind = c.valid;
    wrong_kind[1] ^= 0xff;  // low byte of the u16 kind
    EXPECT_FALSE(c.parse(wrong_kind)) << c.name << " wrong kind";
  }
}

TEST(WishCodecNegative, HostileCountsCannotDriveAllocation) {
  // A count field past the batch ceiling, and a "plausible" count with no
  // bytes behind it, must both be rejected before any vector is sized.
  for (std::uint32_t count : {kMaxWishBatch + 1, 0xffffffffu, 1000u}) {
    {
      Writer w;
      write_envelope(w, kWishWireVersion, msgtype::kJobPoll);
      w.u32(count);  // ids follow on the real wire; none here
      EXPECT_FALSE(PollRequest::deserialize(w.take()).ok()) << count;
    }
    {
      Writer w;
      write_envelope(w, kWishWireVersion, msgtype::kJobSpawn);
      gossip::write_endpoint(w, Endpoint{"c", 9000});
      w.u32(count);
      EXPECT_FALSE(SpawnRequest::deserialize(w.take()).ok()) << count;
    }
    {
      Writer w;
      write_envelope(w, kWishWireVersion, msgtype::kScatter);
      w.str("s");
      w.u64(1);
      w.blob(Bytes{});
      w.u32(count);
      EXPECT_FALSE(ScatterRequest::deserialize(w.take()).ok()) << count;
    }
  }
}

TEST(WishCodecNegative, NegativeJobRuntimeIsRejected) {
  Writer w;
  write_envelope(w, kWishWireVersion, msgtype::kJobSpawn);
  gossip::write_endpoint(w, Endpoint{"c", 9000});
  w.u32(1);
  w.str("cmd");
  w.i64(-1);
  EXPECT_FALSE(SpawnRequest::deserialize(w.take()).ok());
}

TEST(WishCodecFuzz, RandomBytesNeverCrashDecoders) {
  Rng rng(0x3157u);
  auto cases = codec_cases();
  for (int i = 0; i < 2000; ++i) {
    const std::size_t len = rng.below(129);
    Bytes noise(len);
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng.below(256));
    for (const auto& c : cases) c.parse(noise);  // must not crash
  }
}

TEST(WishCodecFuzz, BitFlipsOfValidEncodingsNeverCrashDecoders) {
  for (const auto& c : codec_cases()) {
    for (std::size_t pos = 0; pos < c.valid.size(); ++pos) {
      for (std::uint8_t flip : {0x01, 0x80, 0xFF}) {
        Bytes mutated = c.valid;
        mutated[pos] ^= flip;
        c.parse(mutated);  // ok or error, never UB
      }
    }
  }
}

// ---- EnvStore -------------------------------------------------------------

TEST(EnvStore, ReadYourWritesAndPerKeyVersions) {
  EnvStore s(fnv1a64("wish-0"));
  EXPECT_FALSE(s.get("PATH").has_value());
  const std::uint64_t v1 = s.set("PATH", "/bin");
  EXPECT_EQ(s.get("PATH"), "/bin");
  const std::uint64_t v2 = s.set("PATH", "/usr/bin");
  EXPECT_GT(v2, v1);
  EXPECT_EQ(s.get("PATH"), "/usr/bin");
  EXPECT_EQ(s.sets(), 2u);
}

TEST(EnvStore, TwoReplicasConvergeAfterOneExchangeEachWay) {
  EnvStore a(fnv1a64("wish-0"));
  EnvStore b(fnv1a64("wish-1"));
  a.set("A", "from-a");
  a.set("SHARED", "a-wins-ties-maybe");
  b.set("B", "from-b");
  b.set("SHARED", "b-version-equal");

  ASSERT_TRUE(a.apply(b.snapshot()).ok());
  ASSERT_TRUE(b.apply(a.snapshot()).ok());

  EXPECT_EQ(a.content_digest(), b.content_digest());
  EXPECT_EQ(a.get("A"), "from-a");
  EXPECT_EQ(a.get("B"), "from-b");
  EXPECT_EQ(a.get("SHARED"), b.get("SHARED"));
}

TEST(EnvStore, MalformedBlobIsRejectedWhole) {
  EnvStore a(1);
  a.set("K", "V");
  const std::uint64_t digest = a.content_digest();
  EXPECT_FALSE(a.apply(Bytes{0x01, 0x02}).ok());
  EXPECT_EQ(a.content_digest(), digest);  // no partial merge
}

TEST(EnvStore, CrashRestartReMintsAboveItsOwnGhost) {
  // Incarnation 1 writes K twice (per-key version 2), then "crashes" — the
  // grid still holds its snapshot. Incarnation 2 of the SAME daemon (same
  // writer id, counters reset) writes K once (version 1) and then receives
  // its own pre-crash blob back via gossip. Without the ghost re-mint the
  // higher-version dead write would shadow the live one forever (the
  // StateStore hazard pinned in test_gossip_state.cpp).
  const std::uint64_t writer = fnv1a64("wish-0");
  Bytes ghost;
  {
    EnvStore before(writer);
    before.set("K", "old-1");
    before.set("K", "old-2");
    ghost = before.snapshot();
  }
  EnvStore after(writer);
  after.set("K", "new");
  ASSERT_TRUE(after.apply(ghost).ok());
  EXPECT_EQ(after.get("K"), "new") << "pre-crash ghost shadowed a live write";
  EXPECT_EQ(after.ghost_remints(), 1u);
  ASSERT_TRUE(after.entry("K").has_value());
  EXPECT_GT(after.entry("K")->version, 2u);  // re-stamped above the ghost

  // The re-minted write now dominates the ghost at any other replica too.
  EnvStore other(fnv1a64("wish-1"));
  ASSERT_TRUE(other.apply(ghost).ok());
  ASSERT_TRUE(other.apply(after.snapshot()).ok());
  EXPECT_EQ(other.get("K"), "new");
}

// ---- JobTable -------------------------------------------------------------

TEST(JobTable, IdsEmbedIncarnationAndUnknownPollsAreLost) {
  JobTable t(/*incarnation=*/3);
  auto& job = t.spawn({"cmd", kSecond}, Endpoint{"c", 9000});
  EXPECT_EQ(job.id >> 32, 3u);
  EXPECT_EQ(job.state, JobState::kQueued);
  EXPECT_EQ(t.status_of(job.id).state, JobState::kQueued);
  // A restarted daemon (fresh incarnation) has no record: kLost.
  JobTable t2(/*incarnation=*/4);
  EXPECT_EQ(t2.status_of(job.id).state, JobState::kLost);
  auto& job2 = t2.spawn({"cmd", kSecond}, Endpoint{"c", 9000});
  EXPECT_NE(job2.id, job.id) << "restart re-issued a live id";
}

TEST(JobTable, OnlyTerminalJobsReap) {
  JobTable t(1);
  auto& job = t.spawn({"cmd", kSecond}, Endpoint{"c", 9000});
  const std::uint64_t id = job.id;
  job.state = JobState::kRunning;
  EXPECT_FALSE(t.reap(id));
  EXPECT_EQ(t.size(), 1u);
  t.find(id)->state = JobState::kExited;
  EXPECT_TRUE(t.reap(id));
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE(t.reap(id));  // already gone
  EXPECT_EQ(t.status_of(id).state, JobState::kLost);
}

// ---- Daemon end-to-end on the sim ----------------------------------------

class WishDaemonTest : public ::testing::Test {
 protected:
  WishDaemonTest() : net_(Rng(0x3157)), transport_(events_, net_) {
    net_.set_loss_rate(0.0);
    net_.set_jitter_sigma(0.0);
  }

  ~WishDaemonTest() override {
    for (auto& d : daemons_) {
      if (d->daemon) d->daemon->stop();
    }
    for (auto& g : gossips_) g->stop();
  }

  void build(int num_daemons, int num_gossips = 0) {
    std::vector<Endpoint> gossip_eps;
    for (int i = 0; i < num_gossips; ++i) {
      gossip_eps.push_back(Endpoint{"g" + std::to_string(i), 501});
    }
    for (int i = 0; i < num_gossips; ++i) {
      gossip::GossipServer::Options o;
      o.poll_period = 5 * kSecond;
      o.peer_sync_period = 8 * kSecond;
      o.parent_sync_period = 8 * kSecond;
      auto node = std::make_unique<Node>(
          events_, transport_, gossip_eps[static_cast<std::size_t>(i)]);
      ASSERT_TRUE(node->start().ok());
      auto server = std::make_unique<gossip::GossipServer>(*node, comparators_,
                                                           gossip_eps, o);
      server->start();
      gossip_nodes_.push_back(std::move(node));
      gossips_.push_back(std::move(server));
    }
    for (int i = 0; i < num_daemons; ++i) {
      peers_.push_back(Endpoint{"w" + std::to_string(i), 701});
    }
    for (int i = 0; i < num_daemons; ++i) {
      auto unit = std::make_unique<DaemonUnit>();
      unit->node = std::make_unique<Node>(events_, transport_,
                                          peers_[static_cast<std::size_t>(i)]);
      ASSERT_TRUE(unit->node->start().ok());
      WishDaemon::Options o;
      o.incarnation = 1;
      o.peers = peers_;
      o.gossips = gossip_eps;
      unit->daemon = std::make_unique<WishDaemon>(*unit->node, comparators_, o);
      unit->daemon->start();
      daemons_.push_back(std::move(unit));
    }
    client_node_ = std::make_unique<Node>(events_, transport_,
                                          Endpoint{"client", 9000});
    ASSERT_TRUE(client_node_->start().ok());
  }

  WishDaemon& daemon(int i) {
    return *daemons_[static_cast<std::size_t>(i)]->daemon;
  }

  /// One client call against a daemon, run to completion. Fails the test if
  /// the call errors; returns the raw reply payload.
  Bytes rpc(const Endpoint& to, MsgType type, Bytes payload) {
    Bytes reply;
    bool done = false;
    bool ok = false;
    client_node_->call(to, type, std::move(payload),
                       CallOptions::fixed(2 * kSecond),
                       [&](Result<Bytes> r) {
                         done = true;
                         ok = r.ok();
                         if (r.ok()) reply = std::move(*r);
                       });
    events_.run_for(5 * kSecond);
    EXPECT_TRUE(done);
    EXPECT_TRUE(ok);
    return reply;
  }

  struct DaemonUnit {
    std::unique_ptr<Node> node;
    std::unique_ptr<WishDaemon> daemon;
  };

  sim::EventQueue events_;
  sim::NetworkModel net_;
  sim::SimTransport transport_;
  gossip::ComparatorRegistry comparators_;
  std::vector<Endpoint> peers_;
  std::vector<std::unique_ptr<Node>> gossip_nodes_;
  std::vector<std::unique_ptr<gossip::GossipServer>> gossips_;
  std::vector<std::unique_ptr<DaemonUnit>> daemons_;
  std::unique_ptr<Node> client_node_;
};

TEST_F(WishDaemonTest, JobLifecycleOverTheWire) {
  build(1);
  // Spawn two jobs: one short (exits), one long (killed then reaped).
  SpawnRequest spawn;
  spawn.owner = client_node_->self();
  spawn.jobs.push_back({"short", 3 * kSecond});
  spawn.jobs.push_back({"long", kHour});
  auto srep = SpawnReply::deserialize(
      rpc(peers_[0], msgtype::kJobSpawn, spawn.serialize()));
  ASSERT_TRUE(srep.ok());
  ASSERT_EQ(srep->ids.size(), 2u);
  EXPECT_EQ(srep->incarnation, 1u);
  const std::uint64_t short_id = srep->ids[0];
  const std::uint64_t long_id = srep->ids[1];

  // rpc() already ran 5 s: the short job exited, the long one still runs.
  PollRequest poll;
  poll.ids = {short_id, long_id, 0xdeadbeef};
  auto prep = PollReply::deserialize(
      rpc(peers_[0], msgtype::kJobPoll, poll.serialize()));
  ASSERT_TRUE(prep.ok());
  ASSERT_EQ(prep->jobs.size(), 3u);
  EXPECT_EQ(prep->jobs[0].state, JobState::kExited);
  EXPECT_EQ(prep->jobs[0].exit_code, 0);
  EXPECT_EQ(prep->jobs[1].state, JobState::kRunning);
  EXPECT_EQ(prep->jobs[2].state, JobState::kLost);  // unknown id

  SignalRequest sig{long_id, 9};
  auto sigrep = SignalReply::deserialize(
      rpc(peers_[0], msgtype::kJobSignal, sig.serialize()));
  ASSERT_TRUE(sigrep.ok());
  EXPECT_EQ(sigrep->state, JobState::kKilled);

  ReapRequest reap;
  reap.ids = {short_id, long_id};
  auto rrep = ReapReply::deserialize(
      rpc(peers_[0], msgtype::kJobReap, reap.serialize()));
  ASSERT_TRUE(rrep.ok());
  EXPECT_EQ(rrep->reaped, 2u);
  EXPECT_EQ(daemon(0).jobs().size(), 0u);
  EXPECT_EQ(daemon(0).jobs_completed(), 1u);
}

TEST_F(WishDaemonTest, BarrierReleasesEveryParticipantExactlyOnce) {
  build(3);
  std::vector<int> released(3, 0);
  for (int i = 0; i < 3; ++i) {
    daemon(i).enter_barrier("bar", 1, 3, [&released, i] { ++released[i]; });
  }
  events_.run_for(30 * kSecond);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(released[i], 1) << "w" << i;
    EXPECT_EQ(daemon(i).open_barrier_waits(), 0u) << "w" << i;
  }
  // Exactly one daemon coordinates "bar" and it counted exactly one round.
  std::uint64_t rounds = 0;
  for (int i = 0; i < 3; ++i) rounds += daemon(i).barrier_rounds();
  EXPECT_EQ(rounds, 1u);
}

TEST_F(WishDaemonTest, LeaderOncePicksExactlyOneWinner) {
  build(3);
  std::vector<std::string> winners;
  int wins = 0;
  for (int i = 0; i < 3; ++i) {
    daemon(i).leader_once(
        "lead", 1, "w" + std::to_string(i),
        [&, i](bool won, const std::string& winner, std::uint64_t inc) {
          EXPECT_EQ(inc, 1u);
          winners.push_back(winner);
          if (won) ++wins;
        });
  }
  events_.run_for(10 * kSecond);
  ASSERT_EQ(winners.size(), 3u);
  EXPECT_EQ(wins, 1);
  EXPECT_EQ(winners[0], winners[1]);
  EXPECT_EQ(winners[1], winners[2]);
}

TEST_F(WishDaemonTest, ScatterReachesEveryPeerWithMatchingChecksum) {
  build(5);
  const Bytes payload = {0x42, 0x13, 0x37};
  std::optional<ScatterReply> reply;
  daemon(0).scatter("sc", 1, payload, [&](ScatterReply r) { reply = r; });
  events_.run_for(30 * kSecond);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->delivered, 5u);
  std::uint64_t want = 0;
  for (const auto& ep : peers_) want += scatter_fold(ep, payload);
  EXPECT_EQ(reply->checksum, want);
  for (int i = 0; i < 5; ++i) {
    auto applied = daemon(i).scatter_payload("sc");
    ASSERT_TRUE(applied.has_value()) << "w" << i;
    EXPECT_EQ(applied->first, 1u);
    EXPECT_EQ(applied->second, payload);
  }
}

TEST_F(WishDaemonTest, EnvWritesPropagateThroughTheGossipPool) {
  build(3, /*num_gossips=*/1);
  events_.run_for(30 * kSecond);  // registrations settle
  daemon(0).env_set("GREETING", "hello-grid");
  EXPECT_EQ(daemon(0).env_get("GREETING"), "hello-grid");  // read-your-writes
  events_.run_for(2 * kMinute);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(daemon(i).env_get("GREETING"), "hello-grid") << "w" << i;
    EXPECT_EQ(daemon(i).env().content_digest(),
              daemon(0).env().content_digest())
        << "w" << i;
  }
  // A later write from another daemon wins everywhere (LWW per key).
  daemon(2).env_set("GREETING", "hello-again");
  events_.run_for(2 * kMinute);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(daemon(i).env_get("GREETING"), "hello-again") << "w" << i;
  }
}

TEST_F(WishDaemonTest, ConcurrentWritersAtEqualVersionsStillConverge) {
  // Regression: both daemons write BEFORE any gossip round, so both publish
  // their env blob under the same leading version (mint 1). The SyncClient
  // used to drop a pushed update on a comparator tie ("equally fresh"), so
  // tied-but-different blobs never exchanged and the stores diverged
  // forever; the fix resolves ties like StateStore::merge does, by larger
  // content checksum.
  build(3, /*num_gossips=*/1);
  daemon(0).env_set("FROM_W0", "zero");
  daemon(1).env_set("FROM_W1", "one");
  EXPECT_EQ(daemon(0).env().mint_version(), daemon(1).env().mint_version());
  events_.run_for(3 * kMinute);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(daemon(i).env_get("FROM_W0"), "zero") << "w" << i;
    EXPECT_EQ(daemon(i).env_get("FROM_W1"), "one") << "w" << i;
    EXPECT_EQ(daemon(i).env().content_digest(),
              daemon(0).env().content_digest())
        << "w" << i;
  }
}

// ---- Model checker over the barrier/leader fixture ------------------------

TEST(WishExplorer, BarrierNeverBothReleasesAndReformsUnderCoordinatorChaos) {
  sim::mc::Options o;
  o.max_steps = 6;
  o.window = 4 * kSecond;
  o.max_faults = 2;  // crash, then restart, of the coordinator host
  sim::mc::Report r =
      sim::mc::Explorer([] { return make_wish_world(0x5eed0a01); }, o)
          .explore();
  EXPECT_GT(r.branches, 0u);
  EXPECT_TRUE(r.ok());
  for (const auto& v : r.violations) {
    ADD_FAILURE() << v.repro.to_string() << ": " << v.messages[0];
  }
}

}  // namespace
}  // namespace ew::wish
