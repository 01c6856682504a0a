// Application-specific service framework (paper Section 6).
//
// "We plan to exploit commonalities in the various service designs to
// provide an application-specific service framework or template.
// Programmers could then install control modules within the framework that
// would be automatically invoked by each server."
//
// Every SC98 service (scheduler, persistent state, logging, gossip client)
// repeated the same scaffolding: a Node, message handlers, periodic timers
// with cancellation discipline, forecast-driven time-outs around outbound
// calls, and Gossip participation for replicated state. ServiceFramework
// packages exactly that; a ServiceModule installs its message handlers,
// ticks and synchronized state through the ServiceContext and never touches
// the scaffolding again.
#pragma once

#include <memory>
#include <vector>

#include "gossip/sync_client.hpp"
#include "net/node.hpp"

namespace ew::core {

class ServiceFramework;

/// Facilities the framework hands to its modules. Owned by the framework
/// and valid for the framework's whole lifetime, so modules may keep the
/// reference they receive in attach(). Modules must not outlive their
/// framework.
class ServiceContext {
 public:
  [[nodiscard]] Node& node();
  [[nodiscard]] Executor& executor();
  [[nodiscard]] TimePoint now();
  [[nodiscard]] const Endpoint& self();

  /// Register a message handler (thin wrapper over Node::handle).
  void handle(MsgType type, Node::ServerHandler handler);

  /// Outbound request with dynamic benchmarking baked in: the time-out is
  /// forecast from this (destination, type) event's history and the
  /// round-trip outcome is fed back automatically (Section 2.2).
  void call(const Endpoint& to, MsgType type, Bytes payload,
            Node::CallCallback cb);

  /// Same, with explicit reliability knobs (retry/hedge/deadline).
  void call(const Endpoint& to, MsgType type, Bytes payload, CallOptions opts,
            Node::CallCallback cb);

  /// Periodic tick; automatically cancelled when the framework stops.
  void every(Duration period, std::function<void()> fn);

  /// One-shot timer; automatically cancelled when the framework stops.
  void after(Duration delay, std::function<void()> fn);

  /// Expose a synchronized state object through the Gossip service
  /// (requires the framework to have been built with gossip endpoints).
  void expose_state(MsgType type, gossip::SyncClient::StateHandlers handlers);

 private:
  friend class ServiceFramework;
  explicit ServiceContext(ServiceFramework& fw) : fw_(fw) {}
  ServiceFramework& fw_;
};

/// A control module installed into the framework.
class ServiceModule {
 public:
  virtual ~ServiceModule() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  /// Install handlers/ticks/state. Called once, at framework start.
  virtual void attach(ServiceContext& ctx) = 0;
  /// Framework stopping; timers are already cancelled.
  virtual void detach() {}
};

class ServiceFramework {
 public:
  /// A framework without Gossip participation (expose_state will reject).
  ServiceFramework(Executor& exec, Transport& transport, Endpoint self);
  /// A framework whose modules may expose synchronized state.
  ServiceFramework(Executor& exec, Transport& transport, Endpoint self,
                   std::vector<Endpoint> gossips,
                   const gossip::ComparatorRegistry& comparators);
  ~ServiceFramework();
  ServiceFramework(const ServiceFramework&) = delete;
  ServiceFramework& operator=(const ServiceFramework&) = delete;

  /// Install a module. Must be called before start().
  void install(std::unique_ptr<ServiceModule> module);

  /// Bind the node, start gossip registration (if any), attach all modules.
  Status start();
  /// Cancel timers, detach modules (reverse order), unbind.
  void stop();

  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] Node& node() { return node_; }
  [[nodiscard]] std::size_t module_count() const { return modules_.size(); }

 private:
  friend class ServiceContext;
  void tick_loop(std::size_t slot);

  Executor& exec_;
  Node node_;
  std::unique_ptr<gossip::SyncClient> sync_;
  std::vector<std::unique_ptr<ServiceModule>> modules_;
  struct Tick {
    Duration period = 0;
    std::function<void()> fn;
    TimerId timer = kInvalidTimer;
  };
  std::vector<Tick> ticks_;
  std::vector<TimerId> one_shots_;
  bool running_ = false;
  bool gossip_enabled_ = false;
  ServiceContext ctx_{*this};
};

}  // namespace ew::core
