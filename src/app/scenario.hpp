// Sc98Scenario: the full EveryWare SC98 experiment, reassembled.
//
// Builds the application of paper Figure 1 on the simulated Grid: seven
// infrastructure adapters with their SC98-calibrated fleets, three
// scheduling servers, a Gossip pool managed by the clique protocol, a
// persistent state manager at a trusted site, a logging server, and the
// Globus/NetSolve light switch — then runs the 12-hour window of Figures
// 2-4, including the 11:00 judging-time contention spike, and collects the
// 5-minute-average series.
//
// Ablations (see DESIGN.md):
//   * adaptive_timeouts=false — the paper's rejected static time-outs,
//   * schedulers_in_condor=true — Section 5.4's scheduler placement mistake
//     (schedulers live on churning hosts and die with them).
#pragma once

#include <array>
#include <memory>
#include <optional>

#include "app/client_process.hpp"
#include "app/light_switch.hpp"
#include "app/metrics.hpp"
#include "core/logging_service.hpp"
#include "core/persistent_state.hpp"
#include "core/scheduler.hpp"
#include "core/server_directory.hpp"
#include "core/service_framework.hpp"
#include "nws/nws.hpp"
#include "gossip/gossip_server.hpp"
#include "gossip/sync_client.hpp"
#include "infra/condor.hpp"
#include "infra/globus.hpp"
#include "infra/java.hpp"
#include "infra/legion.hpp"
#include "infra/netsolve.hpp"
#include "infra/nt.hpp"
#include "infra/unix.hpp"
#include "sim/chaos.hpp"
#include "sim/event_queue.hpp"
#include "sim/network_model.hpp"
#include "sim/sim_transport.hpp"
#include "sim/traces.hpp"

namespace ew::app {

struct ScenarioOptions {
  /// Fixed shape of every run: Figure-2 bin width and server counts.
  static constexpr Duration kBinWidth = 5 * kMinute;
  static constexpr int kNumSchedulers = 3;
  static constexpr int kNumGossips = 4;

  std::uint64_t seed = 42;
  /// Ramp-up before the recording window (registrations, staging, clique
  /// formation). The paper's application had been running since June.
  Duration warmup = 45 * kMinute;
  /// The Figure-2 window: 23:36:56 -> 11:36:56 PST, 144 five-minute bins.
  Duration record = 12 * kHour;

  bool enable_spike = true;
  /// Judging begins 11:00:00 PST = 11h23m04s into the recording window.
  Duration judging_offset = 11 * kHour + 23 * kMinute + 4 * kSecond;

  bool adaptive_timeouts = true;       // ablation: §2.2 static time-outs
  Duration static_timeout = 1 * kSecond;  // used when adaptive_timeouts=false
  bool schedulers_in_condor = false;   // ablation: §5.4 scheduler placement

  Duration report_interval = 2 * kMinute;
  /// Work-unit lease per client (batched directive API, DESIGN.md §13).
  int units_per_client = 1;
  /// Per-infrastructure host-count override; 0 keeps the calibrated default.
  std::array<int, core::kInfraCount> host_count_override{};
  /// Scale every pool's host count (quick small runs for tests).
  double fleet_scale = 1.0;

  /// Scripted fault injection: an empty plan disables chaos. With a
  /// non-empty plan the scenario registers crash/restart handles for every
  /// server role (each scheduler host, each gossip host, and the control
  /// site's logging + state services as one process) and arms the plan
  /// before the clock starts. Plan targets are scenario host names
  /// ("sched-0", "gossip-1", "sdsc-control") or site pairs for link faults.
  sim::FaultPlan chaos;
  /// On-disk store for the persistent state manager; required for its
  /// contents to survive a chaos crash-restart of the control site. Empty
  /// keeps the store memory-only.
  std::string state_storage_dir;
};

struct ScenarioResults {
  std::vector<TimePoint> bin_start;
  std::vector<double> total_rate;  // Figures 2, 3c, 4c
  std::array<std::vector<double>, core::kInfraCount> infra_rate;   // 3a, 4a
  std::array<std::vector<double>, core::kInfraCount> infra_hosts;  // 3b, 4b
  std::uint64_t total_ops = 0;
  std::uint64_t log_records = 0;
  std::uint64_t reports = 0;
  std::uint64_t migrations = 0;
  std::uint64_t presumed_dead = 0;
  std::uint64_t condor_evictions = 0;
  std::uint64_t lsf_kills = 0;
  std::uint64_t translated_calls = 0;
  std::uint64_t counterexample_stores_rejected = 0;
  std::uint64_t nws_probes = 0;          // completed NWS station probes
  std::size_t directory_size = 0;        // viable servers seen by sched-0's directory
  std::size_t bins_judging_index = 0;    // bin containing 11:00:00
};

class Sc98Scenario {
 public:
  explicit Sc98Scenario(ScenarioOptions opts);
  ~Sc98Scenario();
  Sc98Scenario(const Sc98Scenario&) = delete;
  Sc98Scenario& operator=(const Sc98Scenario&) = delete;

  /// Build everything and run to the end of the recording window.
  ScenarioResults run();

  /// Internals exposed for tests.
  [[nodiscard]] sim::EventQueue& events() { return events_; }
  [[nodiscard]] core::LoggingServer& logging() { return *logging_; }
  [[nodiscard]] const std::vector<std::unique_ptr<infra::InfraAdapter>>& adapters()
      const {
    return adapters_;
  }
  /// Chaos internals for the chaos tests: null before run() or when the
  /// options carried no plan / the role is currently crashed.
  [[nodiscard]] sim::ChaosEngine* chaos_engine();
  [[nodiscard]] core::SchedulerServer* scheduler_server(int i);
  [[nodiscard]] gossip::GossipServer* gossip_server(int i);
  [[nodiscard]] core::PersistentStateManager* state_manager();

 private:
  struct SchedulerUnit {
    Endpoint endpoint;
    std::string host;
    std::optional<Node> node;
    std::optional<core::SchedulerServer> server;
    std::optional<gossip::SyncClient> sync;
    std::uint64_t reports_total = 0;     // accumulated across restarts
    std::uint64_t migrations_total = 0;
    std::uint64_t dead_total = 0;
  };

  void build_network();
  void build_services();
  void build_adapters();
  void build_chaos();
  void start_scheduler(SchedulerUnit& unit, std::uint64_t seed_tag);
  void harvest_scheduler(SchedulerUnit& unit);
  void stop_scheduler(SchedulerUnit& unit);
  void crash_scheduler(SchedulerUnit& unit);
  void start_control_services();
  void schedule_spike();
  void schedule_host_sampling();
  core::SchedulerServer::Options scheduler_options(int index) const;
  [[nodiscard]] std::vector<Endpoint> scheduler_endpoints() const;
  [[nodiscard]] std::vector<Endpoint> gossip_endpoints() const;

  ScenarioOptions opts_;
  sim::EventQueue events_;
  Rng rng_;
  sim::NetworkModel network_;
  sim::SimTransport transport_;
  gossip::ComparatorRegistry comparators_;
  sim::SpikeSchedule spikes_;
  std::optional<MetricsCollector> metrics_;

  // Service-side actors.
  std::optional<Node> logging_node_;
  std::optional<core::LoggingServer> logging_;
  std::optional<Node> state_node_;
  std::optional<core::PersistentStateManager> state_;
  std::optional<Node> control_node_;
  std::optional<LightSwitch> light_switch_;
  std::vector<std::unique_ptr<SchedulerUnit>> schedulers_;
  std::vector<std::unique_ptr<infra::SimHost>> scheduler_hosts_;  // ablation
  struct GossipUnit {
    std::optional<Node> node;
    std::optional<gossip::GossipServer> server;
  };
  std::vector<std::unique_ptr<GossipUnit>> gossips_;
  std::optional<sim::ChaosEngine> chaos_;
  // Figure-1 auxiliary services: NWS monitoring stations and the
  // volatile-but-replicated server directory, both on the §6 framework.
  std::vector<std::unique_ptr<core::ServiceFramework>> aux_frameworks_;
  std::vector<nws::NwsStationModule*> nws_stations_;
  std::vector<core::ServerDirectoryModule*> directories_;
  std::vector<std::unique_ptr<infra::InfraAdapter>> adapters_;
  // Typed views into adapters_ for quirk counters and light-switch wiring.
  infra::GlobusAdapter* globus_ = nullptr;
  infra::LegionAdapter* legion_ = nullptr;
  infra::CondorAdapter* condor_ = nullptr;
  infra::NTAdapter* nt_ = nullptr;
  infra::NetSolveAdapter* netsolve_ = nullptr;
};

}  // namespace ew::app
