// Tests for the scheduler's heuristic-directive policy (Section 3.1.1):
// "Servers are programmed to issue different control directives based on
// the type of algorithm the client is executing [and] how much progress the
// client has made."
#include <gtest/gtest.h>

#include <map>

#include "core/scheduler.hpp"
#include "net/inproc_transport.hpp"
#include "sim/event_queue.hpp"

namespace ew::core {
namespace {

class DirectivePolicyTest : public ::testing::Test {
 protected:
  DirectivePolicyTest()
      : transport_(events_),
        sched_node_(events_, transport_, Endpoint{"sched", 601}),
        client_node_(events_, transport_, Endpoint{"fake", 2000}) {
    EXPECT_TRUE(sched_node_.start().ok());
    EXPECT_TRUE(client_node_.start().ok());
    SchedulerServer::Options o;
    o.pool.n = 20;
    o.pool.k = 4;
    sched_ = std::make_unique<SchedulerServer>(sched_node_, o);
    sched_->start();
  }

  /// Register a synthetic client and return its first work spec.
  ramsey::WorkSpec register_client(const std::string& host) {
    ClientHello hello;
    hello.client = Endpoint{host, 2000};
    hello.infra = Infra::kUnix;
    hello.host = host;
    std::optional<ramsey::WorkSpec> spec;
    client_node_.call(sched_node_.self(), msgtype::kSchedRegister,
                      hello.serialize(), CallOptions::fixed(kSecond), [&](Result<Bytes> r) {
                        ASSERT_TRUE(r.ok());
                        auto d = DirectiveBatch::deserialize(*r);
                        ASSERT_TRUE(d.ok() && !d->assign.empty());
                        spec = d->assign.front();
                      });
    events_.run_for(5 * kSecond);
    EXPECT_TRUE(spec.has_value());
    return *spec;
  }

  /// Send one progress report for a unit on behalf of `host`, over the
  /// batch wire with a fresh per-client sequence number.
  void report(const std::string& host, std::uint64_t unit_id,
              std::uint64_t ops, std::uint64_t best_energy) {
    ReportBatch batch;
    batch.client = Endpoint{host, 2000};
    batch.seq = ++seq_[host];
    batch.want_units = 1;
    ramsey::WorkReport rep;
    rep.unit_id = unit_id;
    rep.ops_done = ops;
    rep.best_energy = best_energy;
    Rng rng(unit_id);
    rep.best_graph = ramsey::ColoredGraph::random(20, rng).serialize();
    batch.reports.push_back(std::move(rep));
    client_node_.call(sched_node_.self(), msgtype::kSchedReportBatch,
                      batch.serialize(), CallOptions::fixed(kSecond),
                      [](Result<Bytes>) {});
    events_.run_for(5 * kSecond);
  }

  sim::EventQueue events_;
  InProcTransport transport_;
  Node sched_node_;
  Node client_node_;
  std::unique_ptr<SchedulerServer> sched_;
  std::map<std::string, std::uint64_t> seq_;  // per-client report sequence
};

TEST_F(DirectivePolicyTest, RotatesKindsBeforeEvidence) {
  std::map<ramsey::HeuristicKind, int> seen;
  for (int i = 0; i < 6; ++i) {
    const auto spec = register_client(std::string("c").append(std::to_string(i)));
    ++seen[spec.kind];
  }
  EXPECT_EQ(seen.size(), 3u) << "all three heuristics must stay in play";
}

TEST_F(DirectivePolicyTest, KindStatsAccumulateFromReports) {
  const auto spec = register_client("c0");
  report("c0", spec.unit_id, 500'000'000, 100);
  report("c0", spec.unit_id, 500'000'000, 60);  // 40 energy for 0.5 Gop
  const auto& ks = sched_->kind_stats()[static_cast<std::size_t>(spec.kind)];
  EXPECT_DOUBLE_EQ(ks.gops, 1.0);
  EXPECT_DOUBLE_EQ(ks.improvement, 40.0);
  EXPECT_DOUBLE_EQ(ks.yield(), 40.0);
}

TEST_F(DirectivePolicyTest, ExploitsHighYieldKindOnceMeasured) {
  // Feed evidence: annealing buys 10x the energy reduction per op.
  std::map<ramsey::HeuristicKind, std::vector<std::pair<std::string, std::uint64_t>>>
      holders;
  int idx = 0;
  while (holders.size() < 3 || holders.begin()->second.empty()) {
    const std::string host = std::string("seed").append(std::to_string(idx++));
    const auto spec = register_client(host);
    holders[spec.kind].emplace_back(host, spec.unit_id);
    if (idx > 20) break;
  }
  ASSERT_EQ(holders.size(), 3u);
  for (auto& [kind, units] : holders) {
    for (auto& [host, unit] : units) {
      const std::uint64_t drop =
          kind == ramsey::HeuristicKind::kAnneal ? 50 : 5;
      report(host, unit, 600'000'000, 500);
      report(host, unit, 600'000'000, 500 - drop);
    }
  }
  for (const auto& ks : sched_->kind_stats()) ASSERT_GE(ks.gops, 1.0);

  // Fresh units should now be mostly annealing (modulo the explore slots).
  int anneal = 0, total = 0;
  for (int i = 0; i < 16; ++i) {
    const auto spec = register_client(std::string("x").append(std::to_string(i)));
    ++total;
    anneal += spec.kind == ramsey::HeuristicKind::kAnneal ? 1 : 0;
  }
  EXPECT_GE(anneal * 2, total) << "exploitation must dominate";
  EXPECT_LT(anneal, total) << "exploration must continue";
}

TEST_F(DirectivePolicyTest, YieldIsZeroWithoutSpend) {
  SchedulerServer::KindStats ks;
  EXPECT_DOUBLE_EQ(ks.yield(), 0.0);
}

}  // namespace
}  // namespace ew::core
