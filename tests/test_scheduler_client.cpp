// Integration tests for the scheduling servers and computational clients:
// registration, progress reporting, logging, failure detection, migration,
// and the counter-example path end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>

#include "core/client.hpp"
#include "core/logging_service.hpp"
#include "core/persistent_state.hpp"
#include "core/scheduler.hpp"
#include "sim/event_queue.hpp"
#include "sim/network_model.hpp"
#include "sim/sim_transport.hpp"

namespace ew::core {
namespace {

class SchedulerClientTest : public ::testing::Test {
 protected:
  SchedulerClientTest() : net_(Rng(13)), transport_(events_, net_) {
    net_.set_loss_rate(0.0);
    net_.set_jitter_sigma(0.0);

    log_node_ = std::make_unique<Node>(events_, transport_, Endpoint{"log", 401});
    log_node_->start();
    logging_ = std::make_unique<LoggingServer>(*log_node_);
    logging_->start();

    state_node_ = std::make_unique<Node>(events_, transport_, Endpoint{"state", 402});
    state_node_->start();
    state_ = std::make_unique<PersistentStateManager>(*state_node_);
    state_->register_validator("ramsey/best/",
                               PersistentStateManager::ramsey_validator());
    state_->start();
  }

  SchedulerServer& add_scheduler(const std::string& host, int n, int k,
                                 std::uint32_t pool_shards = 1) {
    auto node = std::make_unique<Node>(events_, transport_, Endpoint{host, 601});
    node->start();
    SchedulerServer::Options o;
    o.logging = log_node_->self();
    o.state_manager = state_node_->self();
    o.pool.n = n;
    o.pool.k = k;
    o.pool_shards = pool_shards;
    o.sweep_period = 20 * kSecond;
    o.migration_period = 30 * kSecond;
    auto server = std::make_unique<SchedulerServer>(*node, o);
    server->start();
    sched_nodes_.push_back(std::move(node));
    schedulers_.push_back(std::move(server));
    return *schedulers_.back();
  }

  /// A modeled client on `host` delivering `rate` ops/sec.
  RamseyClient& add_client(const std::string& host, double rate,
                           std::vector<Endpoint> schedulers,
                           std::uint32_t units_per_client = 1) {
    auto node = std::make_unique<Node>(events_, transport_, Endpoint{host, 2000});
    node->start();
    RamseyClient::Options o;
    o.schedulers = std::move(schedulers);
    o.infra = Infra::kUnix;
    o.host_label = host;
    auto shared_rate = std::make_shared<double>(rate);
    rates_[host] = shared_rate;
    o.rate_source = [shared_rate] { return *shared_rate; };
    o.report_interval = 30 * kSecond;
    o.initial_sleep_max = 5 * kSecond;
    o.retry_delay = 5 * kSecond;
    o.seed = std::hash<std::string>{}(host);
    o.units_per_client = units_per_client;
    if (units_per_client > 1) {
      o.executor_factory = [] { return std::make_unique<ModeledWorkExecutor>(); };
    }
    auto client = std::make_unique<RamseyClient>(
        *node, std::make_unique<ModeledWorkExecutor>(), o);
    client->start();
    client_nodes_.push_back(std::move(node));
    clients_.push_back(std::move(client));
    return *clients_.back();
  }

  void set_rate(const std::string& host, double rate) { *rates_[host] = rate; }

  sim::EventQueue events_;
  sim::NetworkModel net_;
  sim::SimTransport transport_;
  std::unique_ptr<Node> log_node_;
  std::unique_ptr<LoggingServer> logging_;
  std::unique_ptr<Node> state_node_;
  std::unique_ptr<PersistentStateManager> state_;
  std::vector<std::unique_ptr<Node>> sched_nodes_;
  std::vector<std::unique_ptr<SchedulerServer>> schedulers_;
  std::vector<std::unique_ptr<Node>> client_nodes_;
  std::vector<std::unique_ptr<RamseyClient>> clients_;
  std::map<std::string, std::shared_ptr<double>> rates_;
};

TEST_F(SchedulerClientTest, ClientRegistersAndReports) {
  auto& sched = add_scheduler("sched", 42, 5);
  auto& client = add_client("c1", 1e7, {Endpoint{"sched", 601}});
  events_.run_for(5 * kMinute);
  EXPECT_EQ(sched.active_clients(), 1u);
  EXPECT_GT(sched.reports_received(), 5u);
  EXPECT_GT(client.ops_reported(), 0u);
  EXPECT_TRUE(client.has_work());
}

TEST_F(SchedulerClientTest, LoggingServiceRecordsProgress) {
  add_scheduler("sched", 42, 5);
  add_client("c1", 1e7, {Endpoint{"sched", 601}});
  add_client("c2", 2e7, {Endpoint{"sched", 601}});
  events_.run_for(10 * kMinute);
  EXPECT_GT(logging_->records_received(), 10u);
  EXPECT_GT(logging_->total_ops(Infra::kUnix), 1e9);
  // Reported ops over 10 min at ~3e7/s total.
  EXPECT_NEAR(static_cast<double>(logging_->total_ops()), 3e7 * 600, 3e7 * 600 * 0.4);
}

TEST_F(SchedulerClientTest, DeadClientDetectedAndWorkReclaimed) {
  auto& sched = add_scheduler("sched", 42, 5);
  add_client("c1", 1e7, {Endpoint{"sched", 601}});
  events_.run_for(5 * kMinute);
  ASSERT_EQ(sched.active_clients(), 1u);
  // Kill the client silently (host reclaimed).
  clients_[0]->stop();
  transport_.set_host_up("c1", false);
  events_.run_for(15 * kMinute);
  EXPECT_EQ(sched.active_clients(), 0u);
  EXPECT_EQ(sched.clients_presumed_dead(), 1u);
  // The unit survived with its coloring.
  EXPECT_EQ(sched.pool().idle_frontier_size(), 1u);
}

TEST_F(SchedulerClientTest, ClientFailsOverBetweenSchedulers) {
  add_scheduler("sched-a", 42, 5);
  add_scheduler("sched-b", 42, 5);
  auto& client = add_client(
      "c1", 1e7, {Endpoint{"sched-a", 601}, Endpoint{"sched-b", 601}});
  events_.run_for(3 * kMinute);
  ASSERT_EQ(schedulers_[0]->active_clients(), 1u);
  // sched-a dies; the client must re-register with sched-b and keep working.
  transport_.set_host_up("sched-a", false);
  events_.run_for(15 * kMinute);
  EXPECT_EQ(schedulers_[1]->active_clients(), 1u);
  EXPECT_TRUE(client.has_work());
  EXPECT_GE(client.registrations(), 2u);
}

TEST_F(SchedulerClientTest, SchedulerRestartForcesReRegistration) {
  auto& sched = add_scheduler("sched", 42, 5);
  auto& client = add_client("c1", 1e7, {Endpoint{"sched", 601}});
  events_.run_for(3 * kMinute);
  ASSERT_EQ(sched.active_clients(), 1u);
  // Simulate a stateless scheduler restart: wipe by stop/start of a fresh
  // server on the same endpoint.
  schedulers_[0]->stop();
  sched_nodes_[0]->stop();
  sched_nodes_[0] = std::make_unique<Node>(events_, transport_, Endpoint{"sched", 601});
  sched_nodes_[0]->start();
  SchedulerServer::Options o;
  o.logging = log_node_->self();
  o.state_manager = state_node_->self();
  o.pool.n = 42;
  o.pool.k = 5;
  schedulers_[0] = std::make_unique<SchedulerServer>(*sched_nodes_[0], o);
  schedulers_[0]->start();
  events_.run_for(10 * kMinute);
  // The client hit "unregistered client", re-registered, and continued.
  EXPECT_EQ(schedulers_[0]->active_clients(), 1u);
  EXPECT_TRUE(client.has_work());
  EXPECT_GE(client.registrations(), 2u);
}

TEST_F(SchedulerClientTest, MigrationMovesPromisingWorkToFastClient) {
  auto& sched = add_scheduler("sched", 42, 5);
  add_client("slow", 5e5, {Endpoint{"sched", 601}});
  add_client("fast", 5e7, {Endpoint{"sched", 601}});
  add_client("mid", 2e7, {Endpoint{"sched", 601}});
  events_.run_for(30 * kMinute);
  EXPECT_GT(sched.migrations(), 0u);
}

TEST_F(SchedulerClientTest, NoMigrationWhenRatesAreComparable) {
  auto& sched = add_scheduler("sched", 42, 5);
  add_client("a", 1.0e7, {Endpoint{"sched", 601}});
  add_client("b", 1.1e7, {Endpoint{"sched", 601}});
  add_client("c", 0.9e7, {Endpoint{"sched", 601}});
  events_.run_for(30 * kMinute);
  EXPECT_EQ(sched.migrations(), 0u);
}

TEST_F(SchedulerClientTest, CounterExampleFlowsToPersistentState) {
  // Real executor on the easy R(3,3) instance: found quickly, then stored
  // (and sanity-checked) at the persistent state manager.
  add_scheduler("sched", 5, 3);
  auto node = std::make_unique<Node>(events_, transport_, Endpoint{"real", 2000});
  node->start();
  RamseyClient::Options o;
  o.schedulers = {Endpoint{"sched", 601}};
  o.host_label = "real";
  o.simulated_time = false;
  o.initial_sleep_max = kSecond;
  auto client = std::make_unique<RamseyClient>(
      *node, std::make_unique<RealWorkExecutor>(), o);
  client->start();
  for (int i = 0; i < 100 && !state_->fetch(best_graph_name(5, 3)); ++i) {
    events_.run_for(10 * kSecond);
  }
  client->stop();
  ASSERT_TRUE(state_->fetch(best_graph_name(5, 3)).has_value());
  EXPECT_GE(schedulers_[0]->counterexamples_stored(), 1u);
  EXPECT_EQ(state_->stores_rejected(), 0u);  // every claim was genuine
}

TEST_F(SchedulerClientTest, BestGraphStateSharedViaApply) {
  auto& a = add_scheduler("sched-a", 42, 5);
  auto& b = add_scheduler("sched-b", 42, 5);
  add_client("c1", 1e7, {Endpoint{"sched-a", 601}});
  events_.run_for(10 * kMinute);
  // Simulate a gossip delivering a's state to b.
  const Bytes state = a.best_graph_state();
  ASSERT_TRUE(gossip::blob_body(state).ok());
  b.apply_best_graph_state(state);
  EXPECT_EQ(b.best_graph_state(), state);
}

TEST_F(SchedulerClientTest, FrontierSurvivesSchedulerRestartViaCheckpoint) {
  // The scheduler checkpoints its work frontier to the persistent state
  // manager; a restarted scheduler resumes the search instead of starting
  // from fresh random colorings.
  add_scheduler("sched", 42, 5);
  add_client("c1", 1e7, {Endpoint{"sched", 601}});
  add_client("c2", 1e7, {Endpoint{"sched", 601}});
  events_.run_for(20 * kMinute);  // several reports + checkpoints
  ASSERT_TRUE(state_->fetch("sched/frontier/sched:601/shard-0").has_value());

  // Hard restart: a brand-new scheduler object on the same endpoint.
  schedulers_[0]->stop();
  sched_nodes_[0]->stop();
  sched_nodes_[0] = std::make_unique<Node>(events_, transport_, Endpoint{"sched", 601});
  sched_nodes_[0]->start();
  SchedulerServer::Options o;
  o.logging = log_node_->self();
  o.state_manager = state_node_->self();
  o.pool.n = 42;
  o.pool.k = 5;
  schedulers_[0] = std::make_unique<SchedulerServer>(*sched_nodes_[0], o);
  schedulers_[0]->start();
  events_.run_for(5 * kMinute);
  EXPECT_GE(schedulers_[0]->frontier_units_restored(), 2u);
  // Re-registering clients get resumed units, not fresh ones.
  events_.run_for(15 * kMinute);
  EXPECT_EQ(schedulers_[0]->active_clients(), 2u);
}

TEST_F(SchedulerClientTest, MultiUnitLeaseReportedInBatches) {
  // A client with units_per_client=8 holds a lease of eight units, reports
  // all of them in one kSchedReportBatch per quantum, and the sharded pool
  // spreads the mints across its range-shards.
  auto& sched = add_scheduler("sched", 42, 5, /*pool_shards=*/4);
  auto& client = add_client("c1", 1e7, {Endpoint{"sched", 601}}, /*units=*/8);
  events_.run_for(5 * kMinute);
  EXPECT_EQ(sched.active_clients(), 1u);
  EXPECT_EQ(client.units_held(), 8u);
  EXPECT_EQ(sched.pool().assigned_count(), 8u);
  EXPECT_GT(sched.report_batches_received(), 3u);
  // Every batch covers the whole lease.
  EXPECT_EQ(sched.reports_received(), sched.report_batches_received() * 8);
  // Round-robin minting touched every shard: two units per residue class.
  ASSERT_EQ(sched.pool().shard_count(), 4u);
  EXPECT_EQ(sched.pool().units_issued(), 8u);
  std::array<int, 4> per_shard{};
  for (std::uint64_t id : sched.pool().assigned_units()) ++per_shard[(id - 1) % 4];
  EXPECT_EQ(per_shard, (std::array<int, 4>{2, 2, 2, 2}));
}

TEST_F(SchedulerClientTest, RetiredPerUnitReportWireIsRejected) {
  // Wire parity: the per-unit kSchedReport shim is gone. A frame sent at the
  // retired message id must be rejected as unhandled — not silently decoded,
  // not routed through the batch core — and must leave no trace on the pool.
  auto& sched = add_scheduler("sched", 20, 4);
  auto fake = std::make_unique<Node>(events_, transport_, Endpoint{"fake", 2100});
  fake->start();

  const Endpoint worker{"worker", 2000};
  ClientHello hello;
  hello.client = worker;
  hello.infra = Infra::kUnix;
  hello.host = "worker";
  hello.want_units = 1;
  std::optional<ramsey::WorkSpec> spec;
  fake->call(Endpoint{"sched", 601}, msgtype::kSchedRegister, hello.serialize(),
             CallOptions::fixed(kSecond), [&spec](Result<Bytes> r) {
               ASSERT_TRUE(r.ok());
               auto d = DirectiveBatch::deserialize(*r);
               ASSERT_TRUE(d.ok() && !d->assign.empty());
               spec = d->assign.front();
             });
  events_.run_for(5 * kSecond);
  ASSERT_TRUE(spec.has_value());

  // A well-formed v2 batch payload aimed at the retired id: the old shim
  // would have decoded its own envelope, but nothing listens there now.
  ReportBatch batch;
  batch.client = worker;
  batch.seq = 1;
  batch.want_units = 1;
  ramsey::WorkReport rep;
  rep.unit_id = spec->unit_id;
  rep.ops_done = 500'000'000;
  rep.best_energy = 88;
  batch.reports.push_back(rep);
  bool rejected = false;
  fake->call(Endpoint{"sched", 601}, msgtype::kSchedReport, batch.serialize(),
             CallOptions::fixed(kSecond), [&rejected](Result<Bytes> r) {
               rejected = !r.ok();
             });
  events_.run_for(5 * kSecond);
  EXPECT_TRUE(rejected);
  EXPECT_EQ(sched.reports_received(), 0u);  // nothing reached the batch core

  // The same payload at the batch id is accepted: only the id was retired.
  bool accepted = false;
  fake->call(Endpoint{"sched", 601}, msgtype::kSchedReportBatch,
             batch.serialize(), CallOptions::fixed(kSecond),
             [&accepted](Result<Bytes> r) { accepted = r.ok(); });
  events_.run_for(5 * kSecond);
  EXPECT_TRUE(accepted);
  EXPECT_EQ(sched.reports_received(), 1u);
}

TEST_F(SchedulerClientTest, DuplicateUnitInBatchCreditedAgainstRunningEnergy) {
  // A batch that names one unit twice: each copy's per-kind credit is taken
  // against the energy the pool holds when it absorbs that copy, so the
  // second copy is measured from the first copy's result, not from the
  // energy before the batch.
  auto& sched = add_scheduler("sched", 20, 4);
  auto fake = std::make_unique<Node>(events_, transport_, Endpoint{"fake", 2100});
  fake->start();
  const Endpoint worker{"worker", 2000};
  ClientHello hello;
  hello.client = worker;
  hello.infra = Infra::kUnix;
  hello.host = "worker";
  hello.want_units = 1;
  std::optional<ramsey::WorkSpec> spec;
  fake->call(Endpoint{"sched", 601}, msgtype::kSchedRegister, hello.serialize(),
             CallOptions::fixed(kSecond), [&spec](Result<Bytes> r) {
               ASSERT_TRUE(r.ok());
               auto d = DirectiveBatch::deserialize(*r);
               ASSERT_TRUE(d.ok() && !d->assign.empty());
               spec = d->assign.front();
             });
  events_.run_for(5 * kSecond);
  ASSERT_TRUE(spec.has_value());

  std::uint64_t seq = 0;
  auto send = [&](std::vector<std::uint64_t> energies) {
    ReportBatch batch;
    batch.client = worker;
    batch.seq = ++seq;
    batch.want_units = 1;
    for (std::uint64_t e : energies) {
      ramsey::WorkReport rep;
      rep.unit_id = spec->unit_id;
      rep.ops_done = 1'000'000'000;
      rep.best_energy = e;
      batch.reports.push_back(rep);
    }
    bool ok = false;
    fake->call(Endpoint{"sched", 601}, msgtype::kSchedReportBatch,
               batch.serialize(), CallOptions::fixed(kSecond),
               [&ok](Result<Bytes> r) { ok = r.ok(); });
    events_.run_for(5 * kSecond);
    EXPECT_TRUE(ok);
  };
  send({100});     // first report: no earlier energy, no credit
  send({80, 60});  // 100 -> 80, then 80 -> 60: credit 20 + 20
  send({50, 55});  // 60 -> 50, then 55 is no better than 50: credit 10
  EXPECT_EQ(sched.reports_received(), 5u);
  EXPECT_EQ(sched.pool().best_energy(spec->unit_id),
            std::optional<std::uint64_t>(50));
  const auto kind = static_cast<std::size_t>(spec->kind);
  for (std::size_t k = 0; k < 3; ++k) {
    const auto& ks = sched.kind_stats()[k];
    EXPECT_EQ(ks.improvement, k == kind ? 50.0 : 0.0) << "kind " << k;
    EXPECT_EQ(ks.gops, k == kind ? 5.0 : 0.0) << "kind " << k;
  }
}

TEST_F(SchedulerClientTest, ShardedRestartReplaysPerShardWithoutDoubleIssue) {
  // Per-shard checkpoints: a restarted 2-shard scheduler re-imports each
  // shard from its own record, every unit lands back in its residue class,
  // and re-registered clients never see the same unit twice.
  add_scheduler("sched", 42, 5, /*pool_shards=*/2);
  add_client("c1", 1e7, {Endpoint{"sched", 601}}, /*units=*/4);
  add_client("c2", 1e7, {Endpoint{"sched", 601}}, /*units=*/4);
  events_.run_for(20 * kMinute);
  ASSERT_TRUE(state_->fetch("sched/frontier/sched:601/shard-0").has_value());
  ASSERT_TRUE(state_->fetch("sched/frontier/sched:601/shard-1").has_value());

  schedulers_[0]->stop();
  sched_nodes_[0]->stop();
  sched_nodes_[0] = std::make_unique<Node>(events_, transport_, Endpoint{"sched", 601});
  sched_nodes_[0]->start();
  SchedulerServer::Options o;
  o.logging = log_node_->self();
  o.state_manager = state_node_->self();
  o.pool.n = 42;
  o.pool.k = 5;
  o.pool_shards = 2;
  schedulers_[0] = std::make_unique<SchedulerServer>(*sched_nodes_[0], o);
  schedulers_[0]->start();
  events_.run_for(5 * kMinute);
  EXPECT_GE(schedulers_[0]->frontier_units_restored(), 2u);

  // Clients fail their next report and re-register; both leases refill.
  events_.run_for(15 * kMinute);
  const auto& pool = schedulers_[0]->pool();
  EXPECT_EQ(schedulers_[0]->active_clients(), 2u);
  EXPECT_EQ(pool.assigned_count(), 8u);
  const auto ids = pool.assigned_units();  // sorted
  ASSERT_EQ(ids.size(), 8u);
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end())
      << "double-issued unit";
}

TEST_F(SchedulerClientTest, ThunderingHerdSpreadBySleep) {
  add_scheduler("sched", 42, 5);
  for (int i = 0; i < 20; ++i) {
    add_client("c" + std::to_string(i), 1e7, {Endpoint{"sched", 601}});
  }
  // Within the first sleep window, registrations trickle rather than slam.
  events_.run_for(2 * kSecond);
  const std::size_t early = schedulers_[0]->active_clients();
  events_.run_for(kMinute);
  EXPECT_LT(early, 20u);
  EXPECT_EQ(schedulers_[0]->active_clients(), 20u);
}

}  // namespace
}  // namespace ew::core
