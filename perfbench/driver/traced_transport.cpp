#include "driver/traced_transport.hpp"

#include <cstdio>
#include <unordered_map>
#include <utility>

#include "driver/trace.hpp"

namespace perfbench {

TracedTransport::TracedTransport(ew::Transport& inner, RoleFn role)
    : inner_(inner),
      role_(std::move(role)),
      send_name_(Tracer::intern("transport.send")) {}

ew::Status TracedTransport::bind(const ew::Endpoint& self, ew::PacketHandler handler) {
  // Span names are interned here or on the first packet of each type, so
  // the lookup on the delivery path is one small map probe.
  std::string role = role_(self);
  const bool by_type = !role.empty() && role.back() == ':';
  const std::uint32_t fixed = by_type ? Tracer::kNone : Tracer::intern(role);
  return inner_.bind(self, [this, role = std::move(role), fixed,
                            by_type_names = std::unordered_map<ew::MsgType, std::uint32_t>{},
                            handler = std::move(handler)](ew::IncomingMessage msg) mutable {
    ++delivers_;
    std::uint32_t name = fixed;
    if (name == Tracer::kNone) {
      auto it = by_type_names.find(msg.packet.type);
      if (it == by_type_names.end()) {
        char hex[8];
        std::snprintf(hex, sizeof(hex), "0x%04x", unsigned{msg.packet.type});
        it = by_type_names.emplace(msg.packet.type, Tracer::intern(role + hex)).first;
      }
      name = it->second;
    }
    const std::uint64_t seq = msg.packet.seq;
    Scope span(name, seq);
    handler(std::move(msg));
  });
}

void TracedTransport::unbind(const ew::Endpoint& self) { inner_.unbind(self); }

ew::Status TracedTransport::send(const ew::Endpoint& from, const ew::Endpoint& to,
                                 ew::Packet packet) {
  if (sends_++ % 16 == 0) sampled_sizes_.push_back(packet.payload.size());
  Scope span(send_name_, packet.seq);
  return inner_.send(from, to, std::move(packet));
}

}  // namespace perfbench
