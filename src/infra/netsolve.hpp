// NetSolve adapter (paper Section 5.7).
//
// NetSolve provides "brokered remote procedure invocation": computational
// servers advertise capabilities to an agent; clients call a typed
// procedural interface and the agent picks a server. Here the agent is a
// real protocol actor: pool hosts advertise themselves as they come up
// (kNetSolveRegister), and the application's control site requests the
// Ramsey "procedure" (kNetSolveRequest), after which the agent dispatches
// the client code to every advertised server. Like Globus, nothing runs
// until the request arrives — NetSolve was grafted on late at SC98, by a
// team that had never seen EveryWare before, and the thin brokered surface
// is exactly why that worked.
#pragma once

#include <set>

#include "core/protocol.hpp"
#include "forecast/timeout.hpp"
#include "infra/profiles.hpp"
#include "net/node.hpp"

namespace ew::infra {

class NetSolveAdapter final : public InfraAdapter {
 public:
  struct Config {
    std::string agent_host = "netsolve-agent";
  };

  NetSolveAdapter(sim::EventQueue& events, sim::SimTransport& transport,
                  sim::NetworkModel& network, std::uint64_t seed,
                  PoolProfile profile, Config config);

  void start(ClientFactory factory) override;
  void stop() override;
  [[nodiscard]] core::Infra kind() const override { return core::Infra::kNetSolve; }
  [[nodiscard]] int hosts_up() const override { return pool_.hosts_up(); }
  [[nodiscard]] int hosts_active() const override { return pool_.hosts_active(); }
  [[nodiscard]] int hosts_total() const override { return pool_.hosts_total(); }
  [[nodiscard]] double aggregate_rate() const override { return pool_.aggregate_rate(); }
  void apply_spike(const sim::Spike& spike) override;
  void clear_spike() override { pool_.set_pressure(1.0); }

  [[nodiscard]] Endpoint agent_endpoint() const { return agent_->self(); }
  [[nodiscard]] bool requested() const { return requested_; }
  [[nodiscard]] std::size_t advertised_servers() const { return advertised_.size(); }
  [[nodiscard]] HostPool& pool() { return pool_; }

 private:
  void on_request(const Responder& resp);

  sim::EventQueue& events_;
  Config config_;
  HostPool pool_;
  std::optional<Node> agent_;
  bool requested_ = false;
  bool running_ = false;
  std::set<std::size_t> advertised_;  // host indices known to the agent
};

}  // namespace ew::infra
