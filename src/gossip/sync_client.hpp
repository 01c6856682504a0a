// SyncClient: an application component's participation in state exchange.
//
// Paper Section 2.3: "The application component must register a contact
// address, a unique message type, and a function that allows a Gossip to
// compare the freshness of two different messages ... All application
// components wishing to use Gossip service must also export a state-update
// method for each message type they wish to synchronize. Once registered, an
// application component periodically receives a request from a Gossip
// process to send a fresh copy of its current state."
//
// expose() supplies the provider (current state) and the state-update method
// (applier) for one message type; start() registers with one of the
// well-known Gossips (failing over down the list) and renews the
// registration periodically as a lease.
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "gossip/state.hpp"
#include "net/node.hpp"

namespace ew::gossip {

class SyncClient {
 public:
  struct StateHandlers {
    std::function<Bytes()> provider;            // current state snapshot
    std::function<void(const Bytes&)> applier;  // the state-update method
  };
  struct Options {
    Duration reregister_period = 60 * kSecond;  // lease renewal
    Duration retry_delay = 5 * kSecond;         // after a failed registration
  };

  SyncClient(Node& node, const ComparatorRegistry& comparators,
             std::vector<Endpoint> gossips, Options opts);
  SyncClient(Node& node, const ComparatorRegistry& comparators,
             std::vector<Endpoint> gossips)
      : SyncClient(node, comparators, std::move(gossips), Options{}) {}

  /// Must be called before start(). One pair of handlers per message type.
  void expose(MsgType type, StateHandlers handlers);

  void start();
  void stop();

  [[nodiscard]] bool registered() const { return registered_; }
  /// The gossip we most recently registered with successfully.
  [[nodiscard]] const Endpoint& current_gossip() const { return current_gossip_; }
  [[nodiscard]] std::uint64_t updates_applied() const { return updates_applied_; }
  /// Polls answered "fresh" with no content because every exposed type
  /// already matched the gossip's digest (also `gossip.poll.cache_hits`).
  [[nodiscard]] std::uint64_t poll_cache_hits() const { return poll_cache_hits_; }

 private:
  void register_with(std::size_t index);
  void schedule_renewal();
  void on_get_state_batch(const IncomingMessage& msg, const Responder& resp);
  void on_state_update(const IncomingMessage& msg, const Responder& resp);

  Node& node_;
  const ComparatorRegistry& comparators_;
  std::vector<Endpoint> gossips_;
  Options opts_;
  std::map<MsgType, StateHandlers> handlers_;
  bool running_ = false;
  bool registered_ = false;
  Endpoint current_gossip_;
  std::uint64_t updates_applied_ = 0;
  std::uint64_t poll_cache_hits_ = 0;
  TimerId renew_timer_ = kInvalidTimer;
};

}  // namespace ew::gossip
