// WishDaemon: the wide-area interactive shell's per-host server role.
//
// One daemon per simulated host. It spawns and supervises simulated jobs
// (the job table, crash-stop soft state), serves the global environment
// (EnvStore replica synchronized through the gossip StateStore), and
// coordinates/participates in the inter-job synchronization primitives:
//
//   * barrier — participants re-enter at the coordinator until the
//     coordinator REPLIES released, which survives a coordinator
//     crash-restart (the restarted coordinator rebuilds its arrival set
//     from the re-enters); a release push keeps the happy path fast;
//   * leader-once — first claim wins, scoped to the coordinator's
//     incarnation (a restart forgets the winner, and says so);
//   * scatter/gather — an MPICH-G2-style k-ary distribution tree whose
//     gather (delivered count + order-independent checksum) rides the call
//     replies back to the root.
//
// Every collective hop is a short-lived Node::call with retry + hedging, so
// the primitives exercise the call layer's bursty-traffic behavior — the
// opposite shape from the long-running Ramsey clients.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "gossip/state.hpp"
#include "gossip/sync_client.hpp"
#include "net/node.hpp"
#include "obs/registry.hpp"
#include "wish/env_store.hpp"
#include "wish/job_table.hpp"
#include "wish/protocol.hpp"

namespace ew::wish {

class WishDaemon {
 public:
  struct Options {
    /// Bumped by the owner on every restart; the high half of job ids
    /// and the scope of leader-once wins.
    std::uint64_t incarnation = 1;
    /// Every WISH daemon endpoint, in the SAME order on every daemon —
    /// collective coordinators are chosen by hashing the primitive's name
    /// over this list.
    std::vector<Endpoint> peers;
    /// Gossip pool for env synchronization; empty = env stays local.
    std::vector<Endpoint> gossips;
  };

  WishDaemon(Node& node, const gossip::ComparatorRegistry& comparators,
             Options opts);
  ~WishDaemon();
  WishDaemon(const WishDaemon&) = delete;
  WishDaemon& operator=(const WishDaemon&) = delete;

  void start();
  void stop();

  // --- Local API (jobs, benches and examples on this host) -------------------

  [[nodiscard]] EnvStore& env() { return env_; }
  [[nodiscard]] const EnvStore& env() const { return env_; }
  /// Local write (read-your-writes); gossip carries it grid-wide.
  std::uint64_t env_set(const std::string& key, const std::string& value);
  [[nodiscard]] std::optional<std::string> env_get(
      const std::string& key) const {
    return env_.get(key);
  }

  [[nodiscard]] JobTable& jobs() { return jobs_; }
  [[nodiscard]] std::uint64_t incarnation() const { return opts_.incarnation; }
  [[nodiscard]] const Endpoint& self() const { return node_.self(); }

  /// Fired once per (name, epoch) when the barrier releases.
  using BarrierCallback = std::function<void()>;
  void enter_barrier(const std::string& name, std::uint64_t epoch,
                     std::uint32_t expected, BarrierCallback cb);

  /// cb(won, winner, coordinator_incarnation). The win is a lease scoped to
  /// the coordinator incarnation, not a lock.
  using LeaderCallback = std::function<void(
      bool won, const std::string& winner, std::uint64_t incarnation)>;
  void leader_once(const std::string& name, std::uint64_t epoch,
                   const std::string& claimant, LeaderCallback cb);

  /// Distribute `payload` to every peer through the k-ary tree; cb gets the
  /// gathered subtree acknowledgement (delivered should equal peers.size()).
  using ScatterCallback = std::function<void(ScatterReply)>;
  void scatter(const std::string& name, std::uint64_t epoch, Bytes payload,
               ScatterCallback cb);

  /// The most recently applied scatter payload for `name` (epoch, bytes).
  [[nodiscard]] std::optional<std::pair<std::uint64_t, Bytes>> scatter_payload(
      const std::string& name) const;

  /// The coordinator this daemon (and every peer) uses for `name`.
  [[nodiscard]] Endpoint coordinator_of(const std::string& name) const;

  // --- Introspection ----------------------------------------------------------

  [[nodiscard]] std::uint64_t jobs_completed() const { return jobs_completed_; }
  [[nodiscard]] std::uint64_t barrier_rounds() const { return barrier_rounds_; }
  [[nodiscard]] std::uint64_t barrier_reentries() const { return reentries_; }
  /// Open participant-side waits (0 = no barrier in progress here).
  [[nodiscard]] std::size_t open_barrier_waits() const { return waits_.size(); }

 private:
  using BarrierKey = std::pair<std::string, std::uint64_t>;  // (name, epoch)

  // Coordinator-side barrier state for one (name, epoch).
  struct BarrierGroup {
    std::vector<Endpoint> arrivals;  // insertion order, deduplicated
    std::uint32_t expected = 0;
  };
  // Participant-side wait for one (name, epoch).
  struct BarrierWait {
    std::uint32_t expected = 0;
    BarrierCallback cb;      // fired once, on the first release signal
    bool released = false;   // cb fired (push or reply)
    TimerId timer = kInvalidTimer;
  };

  void register_handlers();
  void on_spawn(const IncomingMessage& msg, const Responder& resp);
  void on_poll(const IncomingMessage& msg, const Responder& resp);
  void on_signal(const IncomingMessage& msg, const Responder& resp);
  void on_reap(const IncomingMessage& msg, const Responder& resp);
  void on_env_set(const IncomingMessage& msg, const Responder& resp);
  void on_env_get(const IncomingMessage& msg, const Responder& resp);
  void on_barrier_enter(const IncomingMessage& msg, const Responder& resp);
  void on_barrier_release(const IncomingMessage& msg, const Responder& resp);
  void on_leader_claim(const IncomingMessage& msg, const Responder& resp);
  void on_scatter(const IncomingMessage& msg, const Responder& resp);

  void start_job(JobTable::Job& job);
  void finish_job(std::uint64_t id);
  void send_barrier_enter(const std::string& name, std::uint64_t epoch);
  void schedule_reenter(const std::string& name, std::uint64_t epoch);
  void release_group(const std::string& name, std::uint64_t epoch,
                     BarrierGroup& group);
  /// Forward `payload` to `targets` through the k-ary tree; done(delivered,
  /// checksum) aggregates the subtree EXCLUDING the local node.
  void fan_out(const std::string& name, std::uint64_t epoch,
               const Bytes& payload, std::vector<Endpoint> targets,
               std::function<void(std::uint32_t, std::uint64_t)> done);

  Node& node_;
  const gossip::ComparatorRegistry& comparators_;
  Options opts_;
  EnvStore env_;
  JobTable jobs_;
  std::optional<gossip::SyncClient> sync_;
  bool running_ = false;

  // Coordinator-side soft state (lost on crash; the protocols rebuild it).
  std::map<BarrierKey, BarrierGroup> groups_;
  std::map<std::string, std::uint64_t> released_floor_;  // name -> max epoch
  std::map<BarrierKey, std::string> leaders_;
  // Participant-side state.
  std::map<BarrierKey, BarrierWait> waits_;
  std::map<std::string, std::pair<std::uint64_t, Bytes>> scatter_applied_;

  std::uint64_t jobs_completed_ = 0;
  std::uint64_t barrier_rounds_ = 0;
  std::uint64_t reentries_ = 0;

  // Process-registry instruments (shared across daemons, like gossip's).
  obs::Counter* c_spawned_;
  obs::Counter* c_completed_;
  obs::Counter* c_killed_;
  obs::Counter* c_unknown_polls_;
  obs::Counter* c_env_sets_;
  obs::Counter* c_env_merges_;
  obs::Counter* c_ghost_remints_;
  obs::Counter* c_barrier_rounds_;
  obs::Counter* c_reentries_;
  obs::Counter* c_leader_claims_;
  obs::Counter* c_scatter_forwards_;
};

}  // namespace ew::wish
