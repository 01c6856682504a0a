#include "core/server_directory.hpp"

#include "gossip/state.hpp"

namespace ew::core {

bool ServerList::merge(const ServerEntry& e) {
  auto it = map_.find(e.server);
  if (it == map_.end()) {
    map_.emplace(e.server, e.heartbeat);
    return true;
  }
  if (e.heartbeat > it->second) {
    it->second = e.heartbeat;
    return true;
  }
  return false;
}

bool ServerList::merge(const ServerList& other) {
  bool changed = false;
  for (const auto& [server, beat] : other.map_) {
    changed |= merge(ServerEntry{server, beat});
  }
  return changed;
}

void ServerList::prune(std::uint64_t max_lag) {
  std::uint64_t newest = 0;
  for (const auto& [server, beat] : map_) newest = std::max(newest, beat);
  for (auto it = map_.begin(); it != map_.end();) {
    if (newest > it->second && newest - it->second > max_lag) {
      it = map_.erase(it);
    } else {
      ++it;
    }
  }
}

std::vector<ServerEntry> ServerList::entries() const {
  std::vector<ServerEntry> out;
  out.reserve(map_.size());
  for (const auto& [server, beat] : map_) out.push_back(ServerEntry{server, beat});
  return out;
}

std::vector<Endpoint> ServerList::servers() const {
  std::vector<Endpoint> out;
  out.reserve(map_.size());
  for (const auto& [server, beat] : map_) out.push_back(server);
  return out;
}

Bytes ServerList::serialize() const {
  Writer w;
  write_list(w, map_, [](Writer& out, const auto& entry) {
    gossip::write_endpoint(out, entry.first);
    out.u64(entry.second);
  });
  return w.take();
}

Result<ServerList> ServerList::deserialize(const Bytes& data) {
  Reader r(data);
  auto n = r.count(100'000, gossip::kEndpointMinWire + 8, "server list");
  if (!n) return n.error();
  ServerList out;
  for (std::uint32_t i = 0; i < *n; ++i) {
    auto ep = gossip::read_endpoint(r);
    if (!ep) return ep.error();
    auto beat = r.u64();
    if (!beat) return beat.error();
    out.map_[std::move(*ep)] = *beat;
  }
  return out;
}

int ServerList::compare(const Bytes& a, const Bytes& b) {
  const auto la = deserialize(a);
  const auto lb = deserialize(b);
  if (!la) return lb ? -1 : 0;
  if (!lb) return 1;
  bool a_novel = false;
  bool b_novel = false;
  for (const auto& [server, beat] : la->map_) {
    auto it = lb->map_.find(server);
    if (it == lb->map_.end() || beat > it->second) a_novel = true;
  }
  for (const auto& [server, beat] : lb->map_) {
    auto it = la->map_.find(server);
    if (it == la->map_.end() || beat > it->second) b_novel = true;
  }
  if (a_novel && !b_novel) return 1;
  if (b_novel && !a_novel) return -1;
  if (!a_novel && !b_novel) return 0;
  // Mutual novelty: no true order exists, but the comparator must still be
  // a total, antisymmetric order or the exchange deadlocks (two one-entry
  // lists with equal heartbeats would both read "equally fresh" and never
  // propagate). Heartbeat mass first, then content bytes; merge-on-apply at
  // every holder re-unions whatever the "loser" knew.
  std::uint64_t sa = 0, sb = 0;
  for (const auto& [server, beat] : la->map_) sa += beat;
  for (const auto& [server, beat] : lb->map_) sb += beat;
  if (sa != sb) return sa > sb ? 1 : -1;
  if (a == b) return 0;
  return a < b ? -1 : 1;
}

Bytes ServerList::merge_blobs(const Bytes& a, const Bytes& b) {
  auto la = deserialize(a);
  auto lb = deserialize(b);
  if (!la) return lb ? b : Bytes{};
  if (!lb) return a;
  la->merge(*lb);
  return la->serialize();
}

void ServerDirectoryModule::register_comparator(
    gossip::ComparatorRegistry& registry) {
  registry.register_comparator(statetype::kServerList, &ServerList::compare);
  // The directory is a per-server fact union, not a single-writer record:
  // every holder (gossip StateStore included) must re-union on conflict.
  // Whole-blob LWW here loses the freshest heartbeat known to exactly one
  // side each exchange, which kept live peers aging out of the directory.
  registry.register_merger(statetype::kServerList, &ServerList::merge_blobs);
}

Bytes ServerDirectoryModule::state() const { return list_.serialize(); }

void ServerDirectoryModule::apply(const Bytes& blob) {
  auto incoming = ServerList::deserialize(blob);
  if (!incoming) return;
  list_.merge(*incoming);
}

void ServerDirectoryModule::attach(ServiceContext& ctx) {
  self_ = ctx.self();
  list_.merge(ServerEntry{self_, ++beat_});
  ctx.expose_state(statetype::kServerList,
                   gossip::SyncClient::StateHandlers{
                       [this] { return state(); },
                       [this](const Bytes& b) { apply(b); },
                   });
  ctx.handle(msgtype::kDirectoryQuery,
             [this](const IncomingMessage&, Responder r) {
               r.ok(list_.serialize());
             });
  ctx.every(opts_.heartbeat_period, [this] {
    list_.merge(ServerEntry{self_, ++beat_});
    list_.prune(opts_.stale_after);
  });
}

}  // namespace ew::core
