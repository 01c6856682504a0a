// NT / Win32 adapter (paper Section 5.5).
//
// The NT Superclusters ran under LSF, which "seemed to interpret the lack of
// cpu usage [during the client's randomized start-up sleep] by assuming the
// process is dead, reclaiming the processor". The adapter reproduces that:
// every launched client samples a start-up sleep from
// [0, client_sleep_max); if it exceeds lsf_kill_threshold, LSF kills the
// client at the threshold and the launch ceremony starts over. The paper's
// fix — "we reduced the sleep time duration" — is modelled by configuring a
// small client_sleep_max (the default), and bench/ablation benchmarks the
// pre-fix configuration.
#pragma once

#include "infra/profiles.hpp"

namespace ew::infra {

class NTAdapter final : public PoolAdapter {
 public:
  struct Quirks {
    Duration lsf_kill_threshold = 60 * kSecond;
    Duration client_sleep_max = 10 * kSecond;  // post-fix default
  };

  NTAdapter(sim::EventQueue& events, sim::SimTransport& transport,
            sim::NetworkModel& network, std::uint64_t seed,
            PoolProfile profile, Quirks quirks);

  [[nodiscard]] std::uint64_t lsf_kills() const { return lsf_kills_; }

 private:
  void launch(std::size_t i);

  Quirks quirks_;
  Rng rng_;
  std::uint64_t lsf_kills_ = 0;
};

}  // namespace ew::infra
