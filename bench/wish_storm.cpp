// WISH storm gate: bursty interactive job control + barrier synchronization
// + gossip-backed global environment across 8 daemons under seeded
// crash-restart chaos (EXPERIMENTS.md "WISH storm").
//
// The WISH workload is the opposite traffic shape from the long-running
// Ramsey clients: hundreds of short-lived spawn/poll/reap calls, periodic
// barrier re-enters, env writes riding the gossip StateStore. This harness
// drives all of it at once and gates on the crash-stop contract:
//
//   * every logical job reaches a terminal state at its client — a job the
//     daemon forgot across a restart answers kLost and the client respawns
//     it (at-least-once), so a LOST job (client quota never met) fails;
//   * every barrier epoch releases every daemon EXACTLY once — a split
//     barrier (double release: the barrier released and re-formed around
//     the same participant) or a hung barrier both fail;
//   * after the storm settles, every daemon's EnvStore content digest is
//     identical (the crash-restart ghost re-mint keeps post-restart writes
//     from losing to their own pre-crash blobs);
//   * the chaos plan actually ran (>= 3 daemon crash/restarts).
//
// Emits ONE machine-readable JSON line:
//
//   {"bench":"wish_storm","daemons":8,"jobs":...,"completed":...,
//    "lost_respawned":...,"spawn_p50_ms":...,"spawn_p99_ms":...,
//    "barrier_epochs":...,"barrier_rounds":...,"barrier_reentries":...,
//    "crashes":...,"restarts":...,"env_digest_ok":1,"failures":0}
//
// --quick shrinks the job count (1024 -> 256) and the chaos schedule
// (6 -> 3 crash/restarts) for the CI smoke run but keeps every gate.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/rng.hpp"
#include "gossip/gossip_server.hpp"
#include "net/node.hpp"
#include "sim/chaos.hpp"
#include "sim/event_queue.hpp"
#include "sim/network_model.hpp"
#include "sim/sim_transport.hpp"
#include "wish/daemon.hpp"
#include "wish/protocol.hpp"

namespace ew::wish {
namespace {

constexpr int kDaemons = 8;
constexpr int kGossips = 2;
constexpr std::uint64_t kSeed = 0x3157'5702;

struct StormConfig {
  int jobs_per_client = 128;   // x8 clients = 1024 logical jobs
  int barrier_epochs = 6;
  int crash_restarts = 6;
  TimePoint deadline = 2 * kHour;  // sim-time cap: past this = hung
};

class Storm {
 public:
  explicit Storm(StormConfig cfg)
      : cfg_(cfg), net_(Rng(kSeed)), transport_(events_, net_),
        chaos_(events_, net_), rng_(kSeed ^ 0x9e3779b97f4a7c15ull) {
    net_.set_loss_rate(0.0);
    net_.set_jitter_sigma(0.0);
    for (int i = 0; i < kGossips; ++i) {
      gossip_eps_.push_back(Endpoint{"g" + std::to_string(i), 501});
    }
    for (int i = 0; i < kDaemons; ++i) {
      wish_eps_.push_back(Endpoint{"wish-" + std::to_string(i), 701});
    }
  }

  int run() {
    build_gossips();
    for (int i = 0; i < kDaemons; ++i) start_daemon(i);
    for (int i = 0; i < kDaemons; ++i) {
      const std::string host = wish_eps_[static_cast<std::size_t>(i)].host;
      chaos_.register_process(host, {[this, i] { kill_daemon(i); },
                                     [this, i] { restart_daemon(i); }});
    }
    build_clients();
    events_.run_for(kMinute);  // registrations + clique formation settle

    arm_chaos();
    for (int i = 0; i < kDaemons; ++i) {
      submit_batch(i);
      schedule_poll(i);
      enter_epoch(i);
      schedule_env_writes(i);
    }
    while ((!storm_done() ||
            chaos_.restarts() <
                static_cast<std::uint64_t>(cfg_.crash_restarts)) &&
           events_.now() < cfg_.deadline) {
      events_.run_for(10 * kSecond);
    }
    events_.run_for(3 * kMinute);  // gossip anti-entropy settles the env
    return report();
  }

 private:
  struct DaemonUnit {
    std::unique_ptr<Node> node;
    std::unique_ptr<WishDaemon> daemon;
    std::uint64_t incarnation = 0;
    // Introspection accumulated across incarnations (crash loses the live
    // counters, so harvest them in kill_daemon).
    std::uint64_t rounds_total = 0;
    std::uint64_t reentries_total = 0;
  };

  /// The client side of one daemon: submits its share of the logical jobs,
  /// polls until each reaches a terminal state, and respawns kLost ids.
  struct Client {
    std::unique_ptr<Node> node;
    int submitted = 0;       // logical jobs sent at least once
    int completed = 0;       // logical jobs seen terminal
    int lost_respawned = 0;  // kLost answers that triggered a respawn
    std::set<std::uint64_t> outstanding;
    bool spawn_inflight = false;
    // Barrier progress: the epoch this daemon is currently inside (0-based;
    // == barrier_epochs when finished), and per-epoch release counts.
    int epoch = 0;
    std::vector<int> released;
  };

  void build_gossips() {
    gossip::GossipServer::Options o;
    o.poll_period = 5 * kSecond;
    o.peer_sync_period = 8 * kSecond;
    o.parent_sync_period = 8 * kSecond;
    for (int i = 0; i < kGossips; ++i) {
      auto node = std::make_unique<Node>(
          events_, transport_, gossip_eps_[static_cast<std::size_t>(i)]);
      if (!node->start().ok()) std::abort();
      auto server = std::make_unique<gossip::GossipServer>(*node, comparators_,
                                                           gossip_eps_, o);
      server->start();
      gossip_nodes_.push_back(std::move(node));
      gossips_.push_back(std::move(server));
    }
  }

  void start_daemon(int i) {
    auto& d = daemons_[static_cast<std::size_t>(i)];
    sim::EventQueue::LabelScope scope(events_,
                                      wish_eps_[static_cast<std::size_t>(i)].host);
    d.node = std::make_unique<Node>(events_, transport_,
                                    wish_eps_[static_cast<std::size_t>(i)]);
    if (!d.node->start().ok()) std::abort();
    WishDaemon::Options o;
    o.incarnation = ++d.incarnation;
    o.peers = wish_eps_;
    o.gossips = gossip_eps_;
    d.daemon = std::make_unique<WishDaemon>(*d.node, comparators_, o);
    d.daemon->start();
  }

  void kill_daemon(int i) {
    auto& d = daemons_[static_cast<std::size_t>(i)];
    if (d.daemon) {
      d.rounds_total += d.daemon->barrier_rounds();
      d.reentries_total += d.daemon->barrier_reentries();
      d.daemon->stop();
    }
    // Crash the node while the stopped daemon is still allocated: pending
    // call callbacks must find running_ == false, not freed memory.
    if (d.node) d.node->crash();
    d.daemon.reset();
    d.node.reset();
  }

  void restart_daemon(int i) {
    start_daemon(i);
    // The daemon's barrier wait died with it: re-enter the current epoch.
    auto& c = clients_[static_cast<std::size_t>(i)];
    if (c.epoch < cfg_.barrier_epochs &&
        c.released[static_cast<std::size_t>(c.epoch)] == 0) {
      enter_epoch(i);
    }
  }

  void build_clients() {
    for (int i = 0; i < kDaemons; ++i) {
      auto& c = clients_[static_cast<std::size_t>(i)];
      c.node = std::make_unique<Node>(
          events_, transport_, Endpoint{"wc-" + std::to_string(i), 9100});
      if (!c.node->start().ok()) std::abort();
      c.released.assign(static_cast<std::size_t>(cfg_.barrier_epochs), 0);
    }
  }

  void arm_chaos() {
    sim::FaultPlan plan;
    // Staggered crash-restarts across distinct daemons, 20 s down each,
    // starting inside the job phase so outstanding jobs actually die with
    // their daemon (and come back kLost) — long enough that barriers stall
    // on the dead participant and clients see kPeerDown, short enough that
    // the storm keeps moving.
    const TimePoint base = events_.now() + 10 * kSecond;
    for (int k = 0; k < cfg_.crash_restarts; ++k) {
      const int victim = k % kDaemons;
      plan.crash_restart(base + k * (30 * kSecond),
                         wish_eps_[static_cast<std::size_t>(victim)].host,
                         20 * kSecond);
    }
    chaos_.arm(std::move(plan));
  }

  [[nodiscard]] CallOptions client_call() const {
    CallOptions o = CallOptions::fixed(2 * kSecond);
    o.retry = RetryPolicy::standard(3);
    return o;
  }

  // --- Job storm ------------------------------------------------------------

  void submit_batch(int i) {
    auto& c = clients_[static_cast<std::size_t>(i)];
    if (c.spawn_inflight || c.submitted >= cfg_.jobs_per_client) return;
    // Closed-loop backpressure: keep at most one burst in flight at the
    // daemon, so the job phase stretches across the chaos windows instead
    // of finishing before the first crash.
    if (c.outstanding.size() >= 8) return;
    const int batch =
        std::min(8, cfg_.jobs_per_client - c.submitted);
    SpawnRequest req;
    req.owner = c.node->self();
    for (int j = 0; j < batch; ++j) {
      req.jobs.push_back({"job", kSecond + static_cast<Duration>(
                                               rng_.below(3000)) * kMillisecond});
    }
    c.spawn_inflight = true;
    const TimePoint sent = events_.now();
    c.node->call(wish_eps_[static_cast<std::size_t>(i)], msgtype::kJobSpawn,
                 req.serialize(), client_call(),
                 [this, i, batch, sent](Result<Bytes> r) {
                   auto& cl = clients_[static_cast<std::size_t>(i)];
                   cl.spawn_inflight = false;
                   if (!r.ok()) {
                     // Daemon down: retry the batch after a beat.
                     events_.schedule(2 * kSecond,
                                      [this, i] { submit_batch(i); });
                     return;
                   }
                   auto rep = SpawnReply::deserialize(*r);
                   if (!rep.ok()) std::abort();
                   spawn_latencies_.push_back(events_.now() - sent);
                   cl.submitted += batch;
                   for (auto id : rep->ids) cl.outstanding.insert(id);
                   submit_batch(i);  // next burst immediately
                 });
  }

  void schedule_poll(int i) {
    events_.schedule(2 * kSecond, [this, i] {
      poll_once(i);
      if (!client_done(i)) schedule_poll(i);
    });
  }

  void poll_once(int i) {
    auto& c = clients_[static_cast<std::size_t>(i)];
    if (c.outstanding.empty()) return;
    PollRequest req;
    req.ids.assign(c.outstanding.begin(), c.outstanding.end());
    c.node->call(
        wish_eps_[static_cast<std::size_t>(i)], msgtype::kJobPoll,
        req.serialize(), client_call(), [this, i](Result<Bytes> r) {
          if (!r.ok()) return;  // daemon down: next tick retries
          auto rep = PollReply::deserialize(*r);
          if (!rep.ok()) std::abort();
          auto& cl = clients_[static_cast<std::size_t>(i)];
          ReapRequest reap;
          for (const auto& js : rep->jobs) {
            if (!cl.outstanding.count(js.id)) continue;
            if (js.state == JobState::kLost) {
              // The daemon restarted and forgot the job: respawn it
              // (at-least-once). The quota is met by the respawn.
              cl.outstanding.erase(js.id);
              cl.submitted -= 1;
              cl.lost_respawned += 1;
            } else if (job_state_terminal(js.state)) {
              cl.outstanding.erase(js.id);
              cl.completed += 1;
              reap.ids.push_back(js.id);
            }
          }
          if (!reap.ids.empty()) {
            cl.node->call(wish_eps_[static_cast<std::size_t>(i)],
                          msgtype::kJobReap, reap.serialize(), client_call(),
                          [](Result<Bytes>) {});
          }
          submit_batch(i);  // refill after respawns
        });
  }

  // --- Barrier storm --------------------------------------------------------

  void enter_epoch(int i) {
    auto& c = clients_[static_cast<std::size_t>(i)];
    if (c.epoch >= cfg_.barrier_epochs) return;
    auto& d = daemons_[static_cast<std::size_t>(i)];
    if (!d.daemon) return;  // restart_daemon re-enters
    const int epoch = c.epoch;
    d.daemon->enter_barrier(
        "storm", static_cast<std::uint64_t>(epoch + 1), kDaemons,
        [this, i, epoch] {
          auto& cl = clients_[static_cast<std::size_t>(i)];
          cl.released[static_cast<std::size_t>(epoch)] += 1;
          if (epoch != cl.epoch) return;  // stale double release: gated later
          cl.epoch += 1;
          events_.schedule(kSecond, [this, i] { enter_epoch(i); });
        });
  }

  // --- Env storm ------------------------------------------------------------

  void schedule_env_writes(int i) {
    events_.schedule(30 * kSecond, [this, i] {
      auto& d = daemons_[static_cast<std::size_t>(i)];
      if (d.daemon) {
        d.daemon->env_set("host" + std::to_string(i),
                          "round" + std::to_string(env_round_));
        ++env_round_;
      }
      if (!storm_done()) schedule_env_writes(i);
    });
  }

  // --- Completion + gates ---------------------------------------------------

  [[nodiscard]] bool client_done(int i) const {
    const auto& c = clients_[static_cast<std::size_t>(i)];
    return c.completed >= cfg_.jobs_per_client && c.outstanding.empty() &&
           c.epoch >= cfg_.barrier_epochs;
  }

  [[nodiscard]] bool storm_done() const {
    for (int i = 0; i < kDaemons; ++i) {
      if (!client_done(i)) return false;
    }
    return true;
  }

  [[nodiscard]] double percentile_ms(double p) const {
    return static_cast<double>(bench::percentile(spawn_latencies_, p)) /
           kMillisecond;
  }

  int report() {
    int failures = 0;
    auto fail = [&failures](const std::string& why) {
      std::fprintf(stderr, "wish_storm: FAIL %s\n", why.c_str());
      ++failures;
    };

    int completed = 0;
    int lost_respawned = 0;
    for (int i = 0; i < kDaemons; ++i) {
      const auto& c = clients_[static_cast<std::size_t>(i)];
      completed += c.completed;
      lost_respawned += c.lost_respawned;
      if (c.completed < cfg_.jobs_per_client || !c.outstanding.empty()) {
        fail("client " + std::to_string(i) + " lost jobs: completed " +
             std::to_string(c.completed) + "/" +
             std::to_string(cfg_.jobs_per_client) + ", " +
             std::to_string(c.outstanding.size()) + " outstanding");
      }
      for (int e = 0; e < cfg_.barrier_epochs; ++e) {
        const int n = c.released[static_cast<std::size_t>(e)];
        if (n == 0) {
          fail("barrier epoch " + std::to_string(e + 1) + " hung on daemon " +
               std::to_string(i));
        } else if (n > 1) {
          fail("barrier epoch " + std::to_string(e + 1) + " split on daemon " +
               std::to_string(i) + " (released " + std::to_string(n) + "x)");
        }
      }
      if (daemons_[static_cast<std::size_t>(i)].daemon &&
          daemons_[static_cast<std::size_t>(i)].daemon->open_barrier_waits() !=
              0) {
        fail("daemon " + std::to_string(i) + " still re-entering after settle");
      }
    }

    bool env_ok = true;
    const std::uint64_t digest0 = daemons_[0].daemon
                                      ? daemons_[0].daemon->env().content_digest()
                                      : 0;
    for (int i = 1; i < kDaemons; ++i) {
      const auto& d = daemons_[static_cast<std::size_t>(i)];
      if (d.daemon && d.daemon->env().content_digest() != digest0) {
        env_ok = false;
        fail("env diverged on daemon " + std::to_string(i));
      }
    }

    if (chaos_.restarts() < 3) {
      fail("chaos plan under-delivered: " + std::to_string(chaos_.restarts()) +
           " restarts");
    }

    std::uint64_t rounds = 0;
    std::uint64_t reentries = 0;
    for (const auto& d : daemons_) {
      rounds = rounds + d.rounds_total +
               (d.daemon ? d.daemon->barrier_rounds() : 0);
      reentries = reentries + d.reentries_total +
                  (d.daemon ? d.daemon->barrier_reentries() : 0);
    }

    bench::JsonWriter j;
    j.u64("daemons", kDaemons)
        .u64("jobs", static_cast<std::uint64_t>(cfg_.jobs_per_client) * kDaemons)
        .u64("completed", static_cast<std::uint64_t>(completed))
        .u64("lost_respawned", static_cast<std::uint64_t>(lost_respawned))
        .f("spawn_p50_ms", percentile_ms(0.50))
        .f("spawn_p99_ms", percentile_ms(0.99))
        .u64("barrier_epochs", static_cast<std::uint64_t>(cfg_.barrier_epochs))
        .u64("barrier_rounds", rounds)
        .u64("barrier_reentries", reentries)
        .u64("crashes", chaos_.crashes())
        .u64("restarts", chaos_.restarts())
        .u64("env_digest_ok", env_ok ? 1 : 0)
        .u64("failures", static_cast<std::uint64_t>(failures));
    bench::emit_json("wish_storm", j);
    return failures == 0 ? 0 : 1;
  }

  StormConfig cfg_;
  sim::EventQueue events_;
  sim::NetworkModel net_;
  sim::SimTransport transport_;
  sim::ChaosEngine chaos_;
  gossip::ComparatorRegistry comparators_;
  Rng rng_;
  std::vector<Endpoint> gossip_eps_;
  std::vector<Endpoint> wish_eps_;
  std::vector<std::unique_ptr<Node>> gossip_nodes_;
  std::vector<std::unique_ptr<gossip::GossipServer>> gossips_;
  std::array<DaemonUnit, kDaemons> daemons_;
  std::array<Client, kDaemons> clients_;
  std::vector<Duration> spawn_latencies_;
  std::uint64_t env_round_ = 0;
};

}  // namespace
}  // namespace ew::wish

int main(int argc, char** argv) {
  ew::wish::StormConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      cfg.jobs_per_client = 32;  // x8 = 256 logical jobs
      cfg.barrier_epochs = 3;
      cfg.crash_restarts = 3;
      cfg.deadline = 1 * ew::kHour;
    }
  }
  return ew::wish::Storm(cfg).run();
}
