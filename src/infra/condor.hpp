// Condor adapter (paper Section 5.4).
//
// "In the vanilla universe, guest jobs are terminated without warning when
// a resource is reclaimed by its owner." The pool's churn process IS owner
// activity: a host going down kills the client outright (no checkpoint —
// recovery happens above, through Gossip-replicated state and scheduler
// work-unit reissue). The adapter counts evictions so tests and the
// Section 5.4 scheduler-placement ablation can measure the cost.
#pragma once

#include "infra/profiles.hpp"

namespace ew::infra {

class CondorAdapter final : public PoolAdapter {
 public:
  CondorAdapter(sim::EventQueue& events, sim::SimTransport& transport,
                sim::NetworkModel& network, std::uint64_t seed,
                PoolProfile profile);

  /// Guest jobs killed by owner reclamation so far.
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

 private:
  std::uint64_t evictions_ = 0;
};

}  // namespace ew::infra
