// Unix adapter (paper Section 5.1).
//
// The reference environment: stable time-shared servers reached over plain
// sockets with no launch ceremony beyond a remote shell. This is the
// baseline PoolAdapter with the Unix profile; the interesting Unix-specific
// engineering (select()-based time-outs, no signals/threads/fork) lives in
// src/net, where every other adapter inherits it — exactly the paper's
// porting story.
#pragma once

#include "infra/profiles.hpp"

namespace ew::infra {

class UnixAdapter final : public PoolAdapter {
 public:
  UnixAdapter(sim::EventQueue& events, sim::SimTransport& transport,
              sim::NetworkModel& network, std::uint64_t seed,
              PoolProfile profile)
      : PoolAdapter(events, transport, network, std::move(profile), seed) {}
};

}  // namespace ew::infra
