#include "sim/mc/fixtures.hpp"

#include <array>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "core/protocol.hpp"
#include "core/work_pool.hpp"
#include "gossip/clique.hpp"
#include "gossip/gossip_server.hpp"
#include "gossip/state.hpp"
#include "net/node.hpp"
#include "obs/invariants.hpp"
#include "obs/trace.hpp"
#include "sim/chaos.hpp"
#include "sim/network_model.hpp"
#include "sim/sim_transport.hpp"

namespace ew::sim::mc {
namespace {

// ---------------------------------------------------------------------------
// Shared scaffolding.

/// Deterministic-network base: loss and jitter zeroed so the NetworkModel's
/// unconditional RNG draws are value-irrelevant (chance(0) is always false,
/// lognormal(0,0) is exactly 1) — the precondition for the Explorer's
/// host-disjoint independence relation (DESIGN.md §14). Every host sits in
/// the default site, so all deliveries take the same base latency and
/// same-tick sends collide into genuine choice points. Each world owns the
/// process-wide trace recorder for the duration of its branch.
class BaseWorld : public World {
 public:
  explicit BaseWorld(std::uint64_t seed)
      : network_(Rng(seed)), transport_(events_, network_),
        chaos_(events_, network_) {
    network_.set_loss_rate(0.0);
    network_.set_jitter_sigma(0.0);
    auto& tr = obs::trace();
    tr.reset();
    tr.set_capacity(1u << 16);
    tr.set_enabled(true);
  }

  ~BaseWorld() override {
    auto& tr = obs::trace();
    tr.set_enabled(false);
    tr.reset();
    tr.set_capacity(4096);
  }

  EventQueue& events() override { return events_; }

 protected:
  std::vector<std::string> trace_violations(const obs::InvariantOptions& io) {
    return obs::check_invariants(obs::trace(), io).violations;
  }

  EventQueue events_;
  NetworkModel network_;
  SimTransport transport_;
  ChaosEngine chaos_;
};

// ---------------------------------------------------------------------------
// Clique election world: 3 members, explored from t=0.

class CliqueWorld final : public BaseWorld {
 public:
  static constexpr int kMembers = 3;

  explicit CliqueWorld(std::uint64_t seed) : BaseWorld(seed) {
    for (int i = 0; i < kMembers; ++i) {
      well_known_.push_back(Endpoint{host(i), 700});
    }
    for (int i = 0; i < kMembers; ++i) start_member(i);
    chaos_.register_process(host(kMembers - 1),
                            {[this] { kill_member(kMembers - 1); },
                             [this] { start_member(kMembers - 1); }});
  }

  ~CliqueWorld() override {
    // Members hold Node references; tear down in dependency order.
    for (auto& m : members_) {
      if (m.member) m.member->stop();
      m.member.reset();
      m.node.reset();
    }
  }

  [[nodiscard]] std::string name() const override { return "clique"; }

  std::vector<FaultAction> fault_actions() override {
    const std::string h = host(kMembers - 1);
    return {
        {"crash " + h,
         [this, h] { chaos_.inject({0, FaultKind::kCrash, h, 0.0}); }},
        {"restart " + h,
         [this, h] { chaos_.inject({0, FaultKind::kRestart, h, 0.0}); }},
    };
  }

  void settle() override { events_.run_for(5 * kMinute); }

  std::vector<std::string> check() override {
    std::vector<std::string> v = trace_violations(obs::InvariantOptions{});
    std::vector<int> live;
    for (int i = 0; i < kMembers; ++i) {
      if (members_[i].member) live.push_back(i);
    }
    if (live.empty()) return v;
    const gossip::View& ref = members_[live.front()].member->view();
    int leaders = 0;
    for (int i : live) {
      const auto& m = *members_[i].member;
      if (m.is_leader()) ++leaders;
      const gossip::View& vi = m.view();
      if (vi.leader != ref.leader || vi.members != ref.members) {
        v.push_back("clique: " + host(i) + " view disagrees after settle");
      }
      if (!vi.contains(well_known_[static_cast<std::size_t>(i)])) {
        v.push_back("clique: " + host(i) + " absent from its own view");
      }
      if (vi.members.size() != live.size()) {
        v.push_back("clique: " + host(i) + " view has " +
                    std::to_string(vi.members.size()) + " members, " +
                    std::to_string(live.size()) + " live");
      }
    }
    if (leaders != 1) {
      v.push_back("clique: " + std::to_string(leaders) +
                  " leaders among live members");
    }
    return v;
  }

  [[nodiscard]] std::uint64_t fingerprint() const override {
    std::uint64_t h = kFnv1a64Basis;
    for (int i = 0; i < kMembers; ++i) {
      if (!members_[i].member) {
        h = fnv1a64(h, host(i) + ":dead");
        continue;
      }
      const gossip::View& vi = members_[i].member->view();
      h = fnv1a64(h, host(i));
      h = fnv1a64(h, vi.leader.to_string());
      for (const Endpoint& e : vi.members) h = fnv1a64(h, e.to_string());
    }
    return h;
  }

 private:
  static std::string host(int i) { return "g" + std::to_string(i); }

  void start_member(int i) {
    auto& m = members_[static_cast<std::size_t>(i)];
    // Timers the member arms in start() belong to this host.
    EventQueue::LabelScope scope(events_, host(i));
    m.node = std::make_unique<Node>(
        events_, transport_, well_known_[static_cast<std::size_t>(i)]);
    m.node->start();
    m.member = std::make_unique<gossip::CliqueMember>(*m.node, well_known_);
    m.member->start();
  }

  void kill_member(int i) {
    auto& m = members_[static_cast<std::size_t>(i)];
    if (m.member) m.member->stop();
    // Crash (and flush the node's outstanding-call callbacks) while the
    // stopped member is still alive: a pending probe/push callback captures
    // the member and must find running_ == false, not freed memory.
    if (m.node) m.node->crash();
    m.member.reset();
    m.node.reset();
  }

  struct Member {
    std::unique_ptr<Node> node;
    std::unique_ptr<gossip::CliqueMember> member;
  };

  std::vector<Endpoint> well_known_;
  std::array<Member, kMembers> members_;
};

// ---------------------------------------------------------------------------
// Gossip anti-entropy world: 3 servers, divergent pre-seeded stores.

class GossipWorld final : public BaseWorld {
 public:
  static constexpr int kServers = 3;
  static constexpr MsgType kTypeA = 0x0401;
  static constexpr MsgType kTypeB = 0x0402;
  static constexpr MsgType kTypeC = 0x0403;

  explicit GossipWorld(std::uint64_t seed) : BaseWorld(seed) {
    for (int i = 0; i < kServers; ++i) {
      well_known_.push_back(Endpoint{host(i), 750});
    }
    for (int i = 0; i < kServers; ++i) start_server(i);
    // Divergent starting stores: A's freshest copy on s1, B's on s2, C only
    // on s2. Anti-entropy must spread exactly the freshest of each.
    seed_blob(0, kTypeA, 3, "alpha-v3");
    seed_blob(1, kTypeA, 5, "alpha-v5");
    seed_blob(1, kTypeB, 1, "beta-v1");
    seed_blob(2, kTypeB, 2, "beta-v2");
    seed_blob(2, kTypeC, 1, "gamma-v1");
    chaos_.register_process(host(kServers - 1),
                            {[this] { kill_server(kServers - 1); },
                             [this] { start_server(kServers - 1); }});
  }

  ~GossipWorld() override {
    for (auto& s : servers_) {
      if (s.server) s.server->stop();
      s.server.reset();
      s.node.reset();
    }
  }

  [[nodiscard]] std::string name() const override { return "gossip"; }

  void warmup() override { events_.run_for(30 * kSecond); }

  std::vector<FaultAction> fault_actions() override {
    const std::string h = host(kServers - 1);
    return {
        {"crash " + h,
         [this, h] { chaos_.inject({0, FaultKind::kCrash, h, 0.0}); }},
        {"restart " + h,
         [this, h] { chaos_.inject({0, FaultKind::kRestart, h, 0.0}); }},
    };
  }

  void settle() override { events_.run_for(5 * kMinute); }

  std::vector<std::string> check() override {
    std::vector<std::string> v = trace_violations(obs::InvariantOptions{});
    std::vector<int> live;
    for (int i = 0; i < kServers; ++i) {
      if (servers_[i].server) live.push_back(i);
    }
    if (live.empty()) return v;
    // Pairwise store equality among the live servers (anti-entropy
    // convergence), plus a liveness floor: the freshest copy held by a
    // server that never died (s0/s1) must have won everywhere.
    const auto ref_blobs = servers_[live.front()].server->store().all();
    for (std::size_t j = 1; j < live.size(); ++j) {
      const auto other = servers_[live[j]].server->store().all();
      if (other.size() != ref_blobs.size()) {
        v.push_back("gossip: " + host(live[j]) + " store has " +
                    std::to_string(other.size()) + " types, " +
                    host(live.front()) + " has " +
                    std::to_string(ref_blobs.size()));
        continue;
      }
      for (std::size_t t = 0; t < ref_blobs.size(); ++t) {
        if (other[t].type != ref_blobs[t].type ||
            other[t].content != ref_blobs[t].content) {
          v.push_back("gossip: stores diverged at type " +
                      std::to_string(other[t].type) + " between " +
                      host(live.front()) + " and " + host(live[j]));
        }
      }
    }
    for (int i : live) {
      const auto& store = servers_[i].server->store();
      if (!store.contains(kTypeA) || store.version_of(kTypeA) != 5) {
        v.push_back("gossip: " + host(i) +
                    " missing freshest alpha (want v5)");
      }
      if (!store.contains(kTypeB)) {
        v.push_back("gossip: " + host(i) + " missing beta entirely");
      }
    }
    return v;
  }

  [[nodiscard]] std::uint64_t fingerprint() const override {
    std::uint64_t h = kFnv1a64Basis;
    for (int i = 0; i < kServers; ++i) {
      if (!servers_[i].server) {
        h = fnv1a64(h, host(i) + ":dead");
        continue;
      }
      h = fnv1a64(h, host(i));
      for (const auto& s : servers_[i].server->store().summary()) {
        h = fnv1a64(h, static_cast<std::uint64_t>(s.type));
        h = fnv1a64(h, s.version);
        h = fnv1a64(h, s.checksum);
      }
      h = fnv1a64(h, servers_[i].server->clique().view().generation);
    }
    return h;
  }

 private:
  static std::string host(int i) { return "s" + std::to_string(i); }

  void start_server(int i) {
    auto& s = servers_[static_cast<std::size_t>(i)];
    EventQueue::LabelScope scope(events_, host(i));
    s.node = std::make_unique<Node>(
        events_, transport_, well_known_[static_cast<std::size_t>(i)]);
    s.node->start();
    gossip::GossipServer::Options o;
    o.poll_period = 1 * kHour;  // no registered components in this world
    o.peer_sync_period = 10 * kSecond;
    s.server = std::make_unique<gossip::GossipServer>(*s.node, comparators_,
                                                      well_known_, o);
    s.server->start();
  }

  void kill_server(int i) {
    auto& s = servers_[static_cast<std::size_t>(i)];
    if (s.server) s.server->stop();
    // Same ordering as CliqueWorld::kill_member: flush outstanding-call
    // callbacks into the stopped (but still allocated) server first.
    if (s.node) s.node->crash();
    s.server.reset();
    s.node.reset();
  }

  void seed_blob(int i, MsgType type, std::uint64_t version,
                 const std::string& body) {
    Bytes b(body.begin(), body.end());
    servers_[static_cast<std::size_t>(i)].server->store().merge(
        gossip::StateBlob{type, gossip::versioned_blob(version, b)});
  }

  struct Server {
    std::unique_ptr<Node> node;
    std::unique_ptr<gossip::GossipServer> server;
  };

  gossip::ComparatorRegistry comparators_;
  std::vector<Endpoint> well_known_;
  std::array<Server, kServers> servers_;
};

// ---------------------------------------------------------------------------
// Scheduler single-delivery world: MiniSched + 2 clients, hedged batches.

class SchedWorld final : public BaseWorld {
 public:
  static constexpr int kClients = 2;
  static constexpr std::uint32_t kWant = 2;     // lease size per client
  static constexpr std::uint64_t kDoneEnergy = 10'000;
  static constexpr Duration kTick = 10 * kSecond;
  static constexpr Duration kSweepPeriod = 20 * kSecond;
  static constexpr Duration kStaleAfter = 35 * kSecond;

  SchedWorld(std::uint64_t seed, bool dedupe)
      : BaseWorld(seed), dedupe_(dedupe), sched_ep_{"sched", 700} {
    {
      EventQueue::LabelScope scope(events_, sched_ep_.host);
      sched_node_ =
          std::make_unique<Node>(events_, transport_, sched_ep_);
      sched_node_->start();
      sched_node_->handle(core::msgtype::kSchedRegister,
                          [this](const IncomingMessage& msg,
                                 Responder resp) {
                            handle_register(msg, resp);
                          });
      sched_node_->handle(core::msgtype::kSchedReportBatch,
                          [this](const IncomingMessage& msg,
                                 Responder resp) {
                            handle_batch(msg, resp);
                          });
      events_.schedule(kSweepPeriod, [this] { sweep(); });
    }
    for (int i = 0; i < kClients; ++i) {
      clients_[static_cast<std::size_t>(i)].self =
          Endpoint{"c" + std::to_string(i), 700};
      start_client(i);
    }
    chaos_.register_process(clients_[0].self.host,
                            {[this] { kill_client(0); },
                             [this] { start_client(0); }});
  }

  ~SchedWorld() override {
    for (auto& c : clients_) {
      c.alive = false;
      c.node.reset();
    }
    sched_node_.reset();
  }

  [[nodiscard]] std::string name() const override {
    return dedupe_ ? "sched" : "sched-nodedupe";
  }

  // Registration handshakes complete FIFO; exploration starts just before
  // the first report-batch tick so the hedged duplicates are in the window.
  void warmup() override { events_.run_until(events_.now() + 9 * kSecond); }

  std::vector<FaultAction> fault_actions() override {
    const std::string h = clients_[0].self.host;
    return {
        {"crash " + h,
         [this, h] { chaos_.inject({0, FaultKind::kCrash, h, 0.0}); }},
        {"restart " + h,
         [this, h] { chaos_.inject({0, FaultKind::kRestart, h, 0.0}); }},
    };
  }

  void settle() override {
    // Let crash sweeps, frontier reissue, and follow-up ticks play out, then
    // freeze the clients and drain in-flight calls so check() never sees a
    // reply that is merely still on the wire.
    events_.run_for(100 * kSecond);
    frozen_ = true;
    events_.run_for(8 * kSecond);
  }

  std::vector<std::string> check() override {
    obs::InvariantOptions io;
    for (std::uint64_t id : pool_.assigned_units()) io.live_units.insert(id);
    std::vector<std::string> v = trace_violations(io);
    // Single delivery: no unit held by two live clients, and every live
    // client's lease ledger matches the scheduler's ledger exactly.
    std::map<std::uint64_t, int> holders;
    for (const Client& c : clients_) {
      if (!c.alive) continue;
      for (std::uint64_t u : c.held) ++holders[u];
    }
    for (const auto& [u, n] : holders) {
      if (n > 1) {
        v.push_back("sched: unit " + std::to_string(u) + " held by " +
                    std::to_string(n) + " live clients");
      }
    }
    for (const Client& c : clients_) {
      if (!c.alive) continue;
      std::set<std::uint64_t> server_view;
      auto it = sched_clients_.find(c.self);
      if (it != sched_clients_.end()) server_view = it->second.held;
      if (server_view != c.held) {
        v.push_back("sched: lease ledger disagreement for " + c.self.host +
                    " (client holds " + std::to_string(c.held.size()) +
                    ", scheduler says " +
                    std::to_string(server_view.size()) + ")");
      }
    }
    return v;
  }

  [[nodiscard]] std::uint64_t fingerprint() const override {
    std::uint64_t h = kFnv1a64Basis;
    for (std::uint64_t u : pool_.assigned_units()) h = fnv1a64(h, u);
    for (const Client& c : clients_) {
      h = fnv1a64(h, c.self.host + (c.alive ? ":up" : ":down"));
      for (std::uint64_t u : c.held) h = fnv1a64(h, u);
    }
    h = fnv1a64(h, units_issued_);
    return h;
  }

 private:
  struct Client {
    Endpoint self;
    std::unique_ptr<Node> node;
    std::set<std::uint64_t> held;
    std::uint64_t seq = 0;
    bool alive = false;
  };

  struct SchedClient {
    std::set<std::uint64_t> held;
    std::uint64_t last_seq = 0;
    Bytes last_reply;
    TimePoint last_heard = 0;
  };

  // --- scheduler side -----------------------------------------------------

  void note_issued(std::uint64_t unit_id) {
    ++units_issued_;
    if (!obs::trace().enabled()) return;
    obs::trace().record(events_.now(), obs::SpanKind::kSchedUnitIssued,
                        obs::trace().intern(sched_ep_.to_string()),
                        static_cast<std::int64_t>(unit_id));
  }

  void note_reclaimed(std::uint64_t unit_id, std::int64_t reason) {
    if (!obs::trace().enabled()) return;
    obs::trace().record(events_.now(), obs::SpanKind::kSchedUnitReclaimed,
                        obs::trace().intern(sched_ep_.to_string()),
                        static_cast<std::int64_t>(unit_id), reason);
  }

  void release_units(const std::vector<std::uint64_t>& ids,
                     std::int64_t reason) {
    // The pool's assigned units are exactly the ids in the scheduler-side
    // leases, so an id that no lease holds was already reclaimed elsewhere.
    std::vector<std::uint64_t> live;
    for (std::uint64_t id : ids) {
      bool held = false;
      for (auto& [ep, sc] : sched_clients_) held = sc.held.erase(id) > 0 || held;
      if (!held) continue;
      live.push_back(id);
      note_reclaimed(id, reason);
    }
    pool_.reclaim_many(live);
  }

  void top_up(SchedClient& sc, std::uint32_t want, core::DirectiveBatch& d) {
    if (sc.held.size() >= want) return;
    for (ramsey::WorkSpec& spec : pool_.issue_many(want - sc.held.size())) {
      sc.held.insert(spec.unit_id);
      note_issued(spec.unit_id);
      d.assign.push_back(std::move(spec));
    }
  }

  void handle_register(const IncomingMessage& msg, Responder& resp) {
    auto hello = core::ClientHello::deserialize(msg.packet.payload);
    if (!hello.ok()) {
      resp.fail(Err::kProtocol, "bad hello");
      return;
    }
    SchedClient& sc = sched_clients_[hello->client];
    release_units({sc.held.begin(), sc.held.end()}, obs::reclaim::kReleased);
    sc.held.clear();
    sc.last_seq = 0;
    sc.last_reply.clear();
    sc.last_heard = events_.now();
    core::DirectiveBatch d;
    top_up(sc, hello->want_units, d);
    resp.ok(d.serialize());
  }

  void handle_batch(const IncomingMessage& msg, Responder& resp) {
    auto b = core::ReportBatch::deserialize(msg.packet.payload);
    if (!b.ok()) {
      resp.fail(Err::kProtocol, "bad batch");
      return;
    }
    auto it = sched_clients_.find(b->client);
    if (it == sched_clients_.end()) {
      resp.fail(Err::kRejected, "unregistered");
      return;
    }
    SchedClient& sc = it->second;
    sc.last_heard = events_.now();
    if (dedupe_ && b->seq != 0 && b->seq == sc.last_seq) {
      // Duplicate delivery of an already-applied batch: replay the cached
      // directive verbatim, mutate nothing. This is the PR 8 reply-cache
      // semantic whose absence the "sched-nodedupe" world demonstrates.
      resp.ok(sc.last_reply);
      return;
    }
    pool_.report_many(b->reports);
    std::vector<std::uint64_t> done;
    for (const auto& r : b->reports) {
      if (r.best_energy <= kDoneEnergy) done.push_back(r.unit_id);
    }
    release_units(done, obs::reclaim::kReleased);
    core::DirectiveBatch d;
    d.revoke = done;
    top_up(sc, b->want_units, d);
    Bytes reply = d.serialize();
    sc.last_seq = b->seq;
    sc.last_reply = reply;
    resp.ok(reply);
  }

  void sweep() {
    const TimePoint now = events_.now();
    for (auto it = sched_clients_.begin(); it != sched_clients_.end();) {
      if (now - it->second.last_heard > kStaleAfter) {
        release_units({it->second.held.begin(), it->second.held.end()},
                      obs::reclaim::kPresumedDead);
        it = sched_clients_.erase(it);
      } else {
        ++it;
      }
    }
    events_.schedule(kSweepPeriod, [this] { sweep(); });
  }

  // --- client side --------------------------------------------------------

  void start_client(int i) {
    Client& c = clients_[static_cast<std::size_t>(i)];
    EventQueue::LabelScope scope(events_, c.self.host);
    c.node = std::make_unique<Node>(events_, transport_, c.self);
    c.node->start();
    c.alive = true;
    c.held.clear();
    c.seq = 0;
    send_register(c);
  }

  void kill_client(int i) {
    Client& c = clients_[static_cast<std::size_t>(i)];
    c.alive = false;  // pending tick closures check this and bail
    if (c.node) c.node->crash();
    c.node.reset();
    c.held.clear();
  }

  void send_register(Client& c) {
    core::ClientHello h;
    h.client = c.self;
    h.host = c.self.host;
    h.want_units = kWant;
    c.node->call(sched_ep_, core::msgtype::kSchedRegister, h.serialize(),
                 CallOptions::fixed(5 * kSecond),
                 [this, &c](Result<Bytes> r) {
                   if (!c.alive) return;
                   if (!r.ok()) {
                     send_register(c);
                     return;
                   }
                   apply_directives(c, *r);
                   schedule_tick(c);
                 });
  }

  void schedule_tick(Client& c) {
    events_.schedule(kTick, [this, &c] { tick(c); });
  }

  void tick(Client& c) {
    if (!c.alive || frozen_) return;
    core::ReportBatch b;
    b.client = c.self;
    b.seq = ++c.seq;
    b.want_units = kWant;
    for (std::uint64_t u : c.held) {
      ramsey::WorkReport rep;
      rep.unit_id = u;
      rep.ops_done = 1000;
      // Deterministic progress: every unit finishes on its first report.
      // The done report carries no best_graph, so the pool has nothing to
      // resume and release erases the unit outright — retirement.
      rep.best_energy = u;
      rep.found = true;
      b.reports.push_back(std::move(rep));
    }
    c.held.clear();  // everything just reported is finished
    Bytes payload = b.serialize();
    // The hedge: two wire copies of the same batch. The call's reply is
    // honored; the one-way copy models a retry attempt that lost the race —
    // its reply reaches the node with an unknown seq and is dropped. The
    // call is sent first, so the FIFO baseline applies the honored copy
    // first (benign); only when the Explorer chooses to deliver the
    // duplicate first does the no-dedupe server hand out the fresh units
    // under the reply nobody applies.
    c.node->call(sched_ep_, core::msgtype::kSchedReportBatch, payload,
                 CallOptions::fixed(5 * kSecond),
                 [this, &c](Result<Bytes> r) {
                   if (!c.alive) return;
                   if (!r.ok()) {
                     send_register(c);  // lease lost: rejoin from scratch
                     return;
                   }
                   apply_directives(c, *r);
                 });
    c.node->send_oneway(sched_ep_, core::msgtype::kSchedReportBatch,
                        std::move(payload));
    schedule_tick(c);
  }

  void apply_directives(Client& c, const Bytes& payload) {
    auto d = core::DirectiveBatch::deserialize(payload);
    if (!d.ok()) return;
    for (std::uint64_t u : d->revoke) c.held.erase(u);
    for (const auto& spec : d->assign) c.held.insert(spec.unit_id);
  }

  bool dedupe_;
  Endpoint sched_ep_;
  core::WorkPool pool_{core::WorkPool::Options{}};
  std::unique_ptr<Node> sched_node_;
  std::map<Endpoint, SchedClient> sched_clients_;
  std::array<Client, kClients> clients_;
  std::uint64_t units_issued_ = 0;
  bool frozen_ = false;
};

}  // namespace

std::unique_ptr<World> make_clique_world(std::uint64_t seed) {
  return std::make_unique<CliqueWorld>(seed);
}

std::unique_ptr<World> make_gossip_world(std::uint64_t seed) {
  return std::make_unique<GossipWorld>(seed);
}

std::unique_ptr<World> make_sched_world(std::uint64_t seed, bool dedupe) {
  return std::make_unique<SchedWorld>(seed, dedupe);
}

}  // namespace ew::sim::mc
