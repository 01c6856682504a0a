// Dynamic benchmarking (paper Section 2.2).
//
// "Our strategy was to manually instrument the various EveryWare components
// and application modules with timing primitives, and then passing the
// timing information to the forecasting modules to make predictions."
//
// An EventTag identifies a repetitive program event — the paper used
// (address where the request was serviced, message type of the request).
// The call layer keeps the forecasters themselves, one RttStream per
// destination and message type (net/call_policy.hpp), and names its spans
// with the tag.
#pragma once

#include <string>

#include "net/endpoint.hpp"
#include "net/packet.hpp"

namespace ew {

/// Identifier for a benchmarked program event: where it was serviced plus
/// what kind of request it was.
struct EventTag {
  std::string address;  // server contact address (Endpoint::to_string())
  MsgType type = 0;

  static EventTag of(const Endpoint& server, MsgType type) {
    return EventTag{server.to_string(), type};
  }
  [[nodiscard]] std::string to_string() const {
    return address + "/" + std::to_string(type);
  }
};

}  // namespace ew
