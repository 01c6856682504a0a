// Scheduling servers (paper Sections 3.1.1, 5.4).
//
// "Each client periodically reports computational progress to a scheduling
// server. Servers are programmed to issue different control directives based
// on the type of algorithm the client is executing, how much progress the
// client has made, and the most recent computational rate of the client.
// The scheduling servers are also responsible for migrating work based on
// forecasts of available resource performance levels. ... Rather than basing
// that prediction solely on the last performance measurement for each
// client, the scheduler uses the NWS lightweight forecasting facilities."
//
// Per-client state here is soft (schedulers are "stateless" in the paper's
// sense: a killed scheduler loses nothing a client re-registration cannot
// rebuild), so schedulers can run inside volatile pools — the Section 5.4
// ablation toggles exactly that.
//
// The wire surface is the batched directive API (DESIGN.md §13): clients
// hold a *lease* of up to want_units units, ship one kSchedReportBatch per
// quantum covering every unit they touched, and receive one DirectiveBatch
// (revocations + assignments) back. Report batches carry a per-client
// sequence number; the scheduler caches the last reply and replays it on a
// duplicate, so the client may retry and hedge the call without any pool
// mutation running twice. The work pool behind the scheduler is range-
// sharded (WorkPool) and checkpointed per shard, so restart recovery
// re-imports only the shards that changed — each into exactly its own id
// range. The old per-unit kSchedReport message is retired: no handler is
// registered for it, so stale clients get an unhandled-type rejection and
// must upgrade to the batch wire.
#pragma once

#include <array>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/protocol.hpp"
#include "core/work_pool.hpp"
#include "forecast/selector.hpp"
#include "net/node.hpp"

namespace ew::core {

class SchedulerServer {
 public:
  struct Options {
    Endpoint logging;               // logging server (one-way records)
    Endpoint state_manager;         // persistent state manager
    WorkPool::Options pool;
    /// Range-shards behind this scheduler: unit id ownership is id mod
    /// shards, checkpoints and restart re-import are per shard.
    std::uint32_t pool_shards = 1;
    /// Ceiling on any one client's lease (want_units is clamped to this).
    std::uint32_t max_units_per_client = 8192;
    Duration sweep_period = 30 * kSecond;
    Duration overdue_floor = 2 * kMinute;  // before forecasts warm up
    Duration migration_period = 60 * kSecond;
  };

  SchedulerServer(Node& node, Options opts);

  void start();
  void stop();

  /// The best (lowest-energy) coloring this scheduler has seen, as a
  /// versioned gossip blob — exposed to the Gossip service by the app
  /// assembly so every scheduler converges on the global best.
  [[nodiscard]] Bytes best_graph_state() const;
  void apply_best_graph_state(const Bytes& blob);

  [[nodiscard]] std::size_t active_clients() const { return clients_.size(); }
  [[nodiscard]] std::uint64_t reports_received() const { return reports_; }
  [[nodiscard]] std::uint64_t report_batches_received() const { return batches_; }
  [[nodiscard]] std::uint64_t batch_replays() const { return replays_; }
  [[nodiscard]] std::uint64_t migrations() const { return migrations_; }
  [[nodiscard]] std::uint64_t clients_presumed_dead() const { return presumed_dead_; }
  [[nodiscard]] std::uint64_t counterexamples_stored() const { return found_stored_; }
  [[nodiscard]] std::uint64_t frontier_units_restored() const { return restored_; }
  [[nodiscard]] const WorkPool& pool() const { return pool_; }

  /// Per-heuristic progress accounting behind the directive policy: energy
  /// improvement delivered per billion ops, by heuristic kind.
  struct KindStats {
    double improvement = 0;  // total energy reduction observed
    double gops = 0;         // billions of ops spent
    [[nodiscard]] double yield() const { return gops > 0 ? improvement / gops : 0; }
  };
  [[nodiscard]] const std::array<KindStats, 3>& kind_stats() const {
    return kind_stats_;
  }

 private:
  struct ClientInfo {
    ClientHello hello;
    std::uint32_t want = 1;              // clamped lease target
    std::vector<std::uint64_t> units;    // lease: units this client holds
    TimePoint last_report = 0;
    AdaptiveForecaster rate{AdaptiveForecaster::nws_default()};      // ops/sec
    AdaptiveForecaster interval{AdaptiveForecaster::nws_default()};  // us between reports
    DirectiveBatch pending;  // revokes/assignments queued for next contact
    TimePoint last_migration = 0;
    std::uint64_t last_seq = 0;  // highest report batch seq absorbed
    Bytes last_reply;            // replayed on a duplicate seq
  };

  void on_register(const IncomingMessage& msg, const Responder& resp);
  /// Absorbs a client's reports, applies forecasters/policy, and replies
  /// with pending directives plus a lease top-up.
  void on_report_batch(const IncomingMessage& msg, const Responder& resp);
  void sweep_tick();
  void migrate_tick();
  void checkpoint_tick();
  void restore_frontier();
  [[nodiscard]] std::string checkpoint_name(std::uint32_t shard) const;
  void forward_log(const ClientInfo& info, std::uint64_t total_ops,
                   std::uint64_t best_energy, bool found);
  void store_counterexample(const ramsey::WorkReport& rep);
  void note_best(std::uint64_t energy, const Bytes& graph_blob, bool found);
  void note_unit_issued(std::uint64_t unit_id);
  void note_unit_reclaimed(std::uint64_t unit_id, std::int64_t reason);
  void update_pool_gauges();
  [[nodiscard]] std::uint32_t clamp_want(std::uint32_t want) const;
  [[nodiscard]] Duration overdue_threshold(const ClientInfo& info) const;
  [[nodiscard]] ramsey::HeuristicKind choose_kind(std::uint64_t unit_id) const;

  Node& node_;
  Options opts_;
  WorkPool pool_;
  std::unordered_map<Endpoint, ClientInfo, EndpointHash> clients_;
  bool running_ = false;
  std::uint64_t reports_ = 0;   // unit-reports absorbed (batch items)
  std::uint64_t batches_ = 0;   // report batches absorbed
  std::uint64_t replays_ = 0;   // duplicate batches answered from cache
  std::uint64_t steals_seen_ = 0;  // pool steals already mirrored to obs
  std::uint64_t migrations_ = 0;
  std::uint64_t presumed_dead_ = 0;
  std::uint64_t found_stored_ = 0;
  std::uint64_t restored_ = 0;
  // Gossip-synchronized best coloring (version = improvement counter).
  std::uint64_t best_version_ = 0;
  std::uint64_t best_energy_ = ~0ULL;
  Bytes best_graph_;
  std::array<KindStats, 3> kind_stats_{};
  TimerId sweep_timer_ = kInvalidTimer;
  TimerId migrate_timer_ = kInvalidTimer;
  TimerId checkpoint_timer_ = kInvalidTimer;
};

}  // namespace ew::core
