// A forwarding Transport that times the layers below the benchmark.
//
// Every send() becomes a "transport.send" span around the inner transport's
// send; every delivered packet becomes a span around the bound handler,
// named by the role the workload gives the receiving endpoint (for example
// "call.dispatch" or "gossip.handler:0x0501"). Packets pass through
// unchanged. The wrapper counts both directions so a self-test can check
// them against the registry's net.* counters, and it records the payload
// size of every 16th send (before that send's span opens) so the wire layer
// can later be timed on frames shaped like the workload's own.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/transport.hpp"

namespace perfbench {

class TracedTransport final : public ew::Transport {
 public:
  /// Names the span of a delivery to `self`. A role ending in ':' is
  /// completed with the message type in hex, one span name per type.
  using RoleFn = std::function<std::string(const ew::Endpoint& self)>;

  TracedTransport(ew::Transport& inner, RoleFn role);

  ew::Status bind(const ew::Endpoint& self, ew::PacketHandler handler) override;
  void unbind(const ew::Endpoint& self) override;
  ew::Status send(const ew::Endpoint& from, const ew::Endpoint& to,
                  ew::Packet packet) override;

  [[nodiscard]] std::uint64_t sends() const { return sends_; }
  [[nodiscard]] std::uint64_t delivers() const { return delivers_; }
  /// Payload sizes of every 16th send, in send order.
  [[nodiscard]] const std::vector<std::size_t>& sampled_sizes() const {
    return sampled_sizes_;
  }

 private:
  ew::Transport& inner_;
  RoleFn role_;
  std::uint32_t send_name_;
  std::uint64_t sends_ = 0;
  std::uint64_t delivers_ = 0;
  std::vector<std::size_t> sampled_sizes_;
};

}  // namespace perfbench
