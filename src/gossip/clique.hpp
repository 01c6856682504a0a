// The NWS clique protocol (paper Section 2.3).
//
// "Within the Gossip pool, we used the NWS clique protocol (a token-passing
// protocol based on leader-election) to manage network partitioning and
// Gossip failure. The clique protocol allows a clique of processes to
// dynamically partition itself into subcliques (due to network or host
// failure) and then merge when conditions permit."
//
// Implementation: members hold a View (generation, leader, member list).
// The leader circulates a Token around the sorted member ring; each member
// forwards it to the next reachable member, recording unreachable ones as
// suspects. When the token returns, the leader drops suspects, admits
// pending joiners, and bumps the generation. A member that stops seeing
// tokens concludes it is partitioned from its leader and falls back to a
// singleton clique; periodic probes of well-known and previously-seen
// members then drive merges: whenever two different cliques discover each
// other, the one whose leader is lexicographically larger joins the other.
// Views are adopted by (generation, leader) order, so every connected
// component converges on the clique led by its smallest reachable member.
#pragma once

#include <functional>
#include <set>
#include <vector>

#include "gossip/protocol.hpp"
#include "net/node.hpp"

namespace ew::gossip {

class CliqueMember {
 public:
  struct Options {
    Duration token_period = 5 * kSecond;       // leader circulation interval
    Duration probe_period = 15 * kSecond;      // out-of-clique probe interval
    Duration hop_timeout = 2 * kSecond;        // fallback before forecasts warm up
    // First of four consecutive message types (token/join/probe/merge). The
    // parent tier of a hierarchical gossip pool runs a second CliqueMember on
    // the same Node at kToken + kParentTierOffset; the offset keeps the two
    // protocol instances from eating each other's messages.
    MsgType msg_base = msgtype::kToken;
  };

  using ViewListener = std::function<void(const View&)>;

  /// `node` must outlive the member. `well_known` are stable addresses
  /// probed forever (the paper stationed Gossips "at well-known addresses
  /// around the country"); they need not be alive.
  CliqueMember(Node& node, std::vector<Endpoint> well_known, Options opts);
  CliqueMember(Node& node, std::vector<Endpoint> well_known)
      : CliqueMember(node, std::move(well_known), Options{}) {}

  /// Register handlers and start timers. The member begins as a singleton
  /// clique of itself and merges outward via probes.
  void start();
  void stop();

  [[nodiscard]] const View& view() const { return view_; }
  [[nodiscard]] bool is_leader() const { return view_.leader == node_.self(); }
  void on_view_change(ViewListener fn) { listeners_.push_back(std::move(fn)); }

  /// Diagnostics.
  [[nodiscard]] std::uint64_t tokens_seen() const { return tokens_seen_; }
  [[nodiscard]] std::uint64_t fragmentations() const { return fragmentations_; }

 private:
  void install_view(View v);
  void become_singleton();
  void announce_join();
  void note_view_change();
  void schedule_leader_tick();
  void schedule_probe_tick();
  void schedule_loss_check();
  void leader_tick();
  void probe_tick();
  void loss_check();
  void start_token_round();
  void forward_token(Token token);
  void on_token(const IncomingMessage& msg, const Responder& resp);
  void on_join(const IncomingMessage& msg, const Responder& resp);
  void on_probe(const IncomingMessage& msg, const Responder& resp);
  void on_merge(const IncomingMessage& msg, const Responder& resp);
  void complete_round(const Token& token);
  void consider_foreign_view(const View& foreign);
  [[nodiscard]] Endpoint next_after(const Endpoint& e,
                                    const std::vector<Endpoint>& members,
                                    const std::set<Endpoint>& skip) const;
  [[nodiscard]] CallOptions hop_options() const;
  [[nodiscard]] Duration token_loss_timeout() const;
  [[nodiscard]] MsgType mt_token() const { return opts_.msg_base; }
  [[nodiscard]] MsgType mt_join() const { return static_cast<MsgType>(opts_.msg_base + 1); }
  [[nodiscard]] MsgType mt_probe() const { return static_cast<MsgType>(opts_.msg_base + 2); }
  [[nodiscard]] MsgType mt_merge() const { return static_cast<MsgType>(opts_.msg_base + 3); }

  Node& node_;
  std::vector<Endpoint> well_known_;
  Options opts_;
  View view_;
  std::uint64_t round_ = 0;
  std::uint64_t completed_round_ = 0;  // last round whose token came home
  std::vector<Endpoint> pending_joins_;
  std::uint64_t gen_floor_ = 0;  // merged-in cliques' generation high-water
  std::size_t probe_index_ = 0;
  TimePoint last_token_ = 0;
  bool running_ = false;
  bool merging_ = false;
  std::uint64_t tokens_seen_ = 0;
  std::uint64_t fragmentations_ = 0;
  std::set<Endpoint> ever_seen_;  // probe targets beyond the well-known list
  std::vector<ViewListener> listeners_;
  TimerId leader_timer_ = kInvalidTimer;
  TimerId probe_timer_ = kInvalidTimer;
  TimerId loss_timer_ = kInvalidTimer;
};

}  // namespace ew::gossip
