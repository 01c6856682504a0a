// Integration tests for the NWS clique protocol on the simulated network:
// formation, leader failure, member failure, partition and merge.
#include <gtest/gtest.h>

#include <memory>

#include "gossip/clique.hpp"
#include "sim/event_queue.hpp"
#include "sim/network_model.hpp"
#include "sim/sim_transport.hpp"

namespace ew::gossip {
namespace {

class CliqueHarness {
 public:
  explicit CliqueHarness(int n, bool lossy = false)
      : net_(Rng(99)), transport_(events_, net_) {
    net_.set_loss_rate(lossy ? 0.02 : 0.0);
    net_.set_jitter_sigma(lossy ? 0.3 : 0.0);
    for (int i = 0; i < n; ++i) {
      well_known_.push_back(Endpoint{host(i), 700});
    }
    CliqueMember::Options opts;
    opts.token_period = 2 * kSecond;
    opts.probe_period = 5 * kSecond;
    opts.hop_timeout = kSecond;
    for (int i = 0; i < n; ++i) {
      auto node = std::make_unique<Node>(events_, transport_, well_known_[static_cast<std::size_t>(i)]);
      EXPECT_TRUE(node->start().ok());
      auto member = std::make_unique<CliqueMember>(*node, well_known_, opts);
      member->start();
      nodes_.push_back(std::move(node));
      members_.push_back(std::move(member));
    }
  }

  static std::string host(int i) { return std::string("m").append(std::to_string(i)); }

  void run(Duration d) { events_.run_for(d); }
  void set_host_up(int i, bool up) { transport_.set_host_up(host(i), up); }
  void partition(const std::string& a, const std::string& b, bool cut) {
    net_.set_partitioned(a, b, cut);
  }
  void set_site(int i, const std::string& site) { net_.set_site(host(i), site); }

  CliqueMember& member(int i) { return *members_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] int size() const { return static_cast<int>(members_.size()); }

  /// True if every *up* member agrees on one view of the given size.
  bool converged(std::size_t expect_size, const std::vector<int>& up) {
    const View& ref = member(up[0]).view();
    if (ref.members.size() != expect_size) return false;
    for (int i : up) {
      const View& v = member(i).view();
      if (v.generation != ref.generation || v.leader != ref.leader ||
          v.members != ref.members) {
        return false;
      }
    }
    return true;
  }

  std::vector<int> all_up() {
    std::vector<int> v;
    for (int i = 0; i < size(); ++i) v.push_back(i);
    return v;
  }

  sim::EventQueue events_;
  sim::NetworkModel net_;
  sim::SimTransport transport_;
  std::vector<Endpoint> well_known_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<CliqueMember>> members_;
};

class CliqueFormation : public ::testing::TestWithParam<int> {};

TEST_P(CliqueFormation, ConvergesToSingleClique) {
  CliqueHarness h(GetParam());
  h.run(5 * kMinute);
  EXPECT_TRUE(h.converged(static_cast<std::size_t>(GetParam()), h.all_up()))
      << "n=" << GetParam() << " view size " << h.member(0).view().members.size();
  // Leader is the lexicographically smallest member (deterministic merges).
  EXPECT_EQ(h.member(0).view().leader, (Endpoint{"m0", 700}));
}

INSTANTIATE_TEST_SUITE_P(Sizes, CliqueFormation, ::testing::Values(2, 3, 4, 5, 8));

TEST(Clique, SingletonIsItsOwnLeader) {
  CliqueHarness h(1);
  h.run(kMinute);
  EXPECT_TRUE(h.member(0).is_leader());
  EXPECT_EQ(h.member(0).view().members.size(), 1u);
}

TEST(Clique, TokensCirculate) {
  CliqueHarness h(3);
  h.run(5 * kMinute);
  // Non-leader members see tokens regularly.
  EXPECT_GT(h.member(1).tokens_seen(), 20u);
  EXPECT_GT(h.member(2).tokens_seen(), 20u);
}

TEST(Clique, ViewListenerFires) {
  CliqueHarness h(3);
  int changes = 0;
  h.member(2).on_view_change([&](const View&) { ++changes; });
  h.run(2 * kMinute);
  EXPECT_GT(changes, 0);
}

TEST(Clique, MemberFailureShrinksClique) {
  CliqueHarness h(4);
  h.run(5 * kMinute);
  ASSERT_TRUE(h.converged(4, h.all_up()));
  h.set_host_up(3, false);
  h.run(3 * kMinute);
  EXPECT_TRUE(h.converged(3, {0, 1, 2}))
      << "view size " << h.member(0).view().members.size();
  EXPECT_FALSE(h.member(0).view().contains(Endpoint{"m3", 700}));
}

TEST(Clique, FailedMemberRejoinsOnRecovery) {
  CliqueHarness h(4);
  h.run(5 * kMinute);
  h.set_host_up(3, false);
  h.run(3 * kMinute);
  ASSERT_TRUE(h.converged(3, {0, 1, 2}));
  h.set_host_up(3, true);
  h.run(4 * kMinute);
  EXPECT_TRUE(h.converged(4, h.all_up()));
}

TEST(Clique, LeaderFailureElectsNewLeader) {
  CliqueHarness h(4);
  h.run(5 * kMinute);
  ASSERT_EQ(h.member(1).view().leader, (Endpoint{"m0", 700}));
  h.set_host_up(0, false);
  h.run(5 * kMinute);
  EXPECT_TRUE(h.converged(3, {1, 2, 3}))
      << "view size " << h.member(1).view().members.size();
  EXPECT_EQ(h.member(1).view().leader, (Endpoint{"m1", 700}));
  // Members fragmented when tokens stopped, then re-merged.
  EXPECT_GT(h.member(1).fragmentations() + h.member(2).fragmentations() +
                h.member(3).fragmentations(),
            0u);
}

TEST(Clique, OldLeaderReturnsAndReclaimsLeadership) {
  CliqueHarness h(3);
  h.run(5 * kMinute);
  h.set_host_up(0, false);
  h.run(5 * kMinute);
  ASSERT_TRUE(h.converged(2, {1, 2}));
  h.set_host_up(0, true);
  h.run(5 * kMinute);
  EXPECT_TRUE(h.converged(3, h.all_up()));
  // m0 is smallest, so merges converge back onto it.
  EXPECT_EQ(h.member(1).view().leader, (Endpoint{"m0", 700}));
}

TEST(Clique, PartitionFormsSubcliquesThenMerges) {
  CliqueHarness h(4);
  h.set_site(0, "west");
  h.set_site(1, "west");
  h.set_site(2, "east");
  h.set_site(3, "east");
  h.run(5 * kMinute);
  ASSERT_TRUE(h.converged(4, h.all_up()));

  h.partition("west", "east", true);
  h.run(6 * kMinute);
  // Two subcliques: {m0,m1} led by m0 and {m2,m3} led by m2.
  EXPECT_TRUE(h.converged(2, {0, 1})) << h.member(0).view().members.size();
  EXPECT_TRUE(h.converged(2, {2, 3})) << h.member(2).view().members.size();
  EXPECT_EQ(h.member(2).view().leader, (Endpoint{"m2", 700}));

  h.partition("west", "east", false);
  h.run(6 * kMinute);
  EXPECT_TRUE(h.converged(4, h.all_up()))
      << "view size " << h.member(0).view().members.size();
}

TEST(Clique, SurvivesLossyNetwork) {
  CliqueHarness h(5, /*lossy=*/true);
  h.run(10 * kMinute);
  // With 2% loss the clique must still assemble and hold.
  EXPECT_TRUE(h.converged(5, h.all_up()))
      << "view size " << h.member(0).view().members.size();
}

TEST(Clique, StopIsQuiescent) {
  CliqueHarness h(3);
  h.run(2 * kMinute);
  for (int i = 0; i < 3; ++i) h.member(i).stop();
  // No further activity should keep the queue alive indefinitely: the
  // remaining events drain without rescheduling.
  h.events_.run_until_idle();
  EXPECT_EQ(h.events_.pending(), 0u);
}

}  // namespace
}  // namespace ew::gossip
