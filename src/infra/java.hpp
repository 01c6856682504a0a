// Java applet adapter (paper Section 5.6).
//
// Browser-hosted clients: anyone on the Internet could point a browser at
// the applet and donate cycles. Hosts are slow (the JIT/interpreted rates
// are the paper's measured 12,109,720 and 111,616 ops/s on a 300 MHz
// Pentium II), sessions are short, and the "launch ceremony" is an applet
// download. The adapter exposes the two measured tiers for the §5.6 bench.
#pragma once

#include "infra/profiles.hpp"

namespace ew::infra {

class JavaAdapter final : public PoolAdapter {
 public:
  /// The paper's measured rates (Section 5.6).
  static constexpr double kJitOpsPerSec = 12'109'720.0;
  static constexpr double kInterpretedOpsPerSec = 111'616.0;

  JavaAdapter(sim::EventQueue& events, sim::SimTransport& transport,
              sim::NetworkModel& network, std::uint64_t seed,
              PoolProfile profile)
      : PoolAdapter(events, transport, network, std::move(profile), seed) {}
};

}  // namespace ew::infra
