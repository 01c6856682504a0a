#include "gossip/state.hpp"

#include <string_view>

#include "common/hash.hpp"

namespace ew::gossip {

std::uint64_t content_checksum(const Bytes& content) {
  return fnv1a64(std::string_view(reinterpret_cast<const char*>(content.data()),
                                  content.size()));
}

int compare_by_version_prefix(const Bytes& a, const Bytes& b) {
  const auto va = blob_version(a);
  const auto vb = blob_version(b);
  const std::uint64_t x = va ? *va : 0;
  const std::uint64_t y = vb ? *vb : 0;
  if (x < y) return -1;
  if (x > y) return 1;
  return 0;
}

Bytes versioned_blob(std::uint64_t version, const Bytes& body) {
  Writer w(8 + body.size());
  w.u64(version);
  w.raw(body);
  return w.take();
}

Result<std::uint64_t> blob_version(const Bytes& blob) {
  Reader r(blob);
  return r.u64();
}

Result<Bytes> blob_body(const Bytes& blob) {
  Reader r(blob);
  auto v = r.u64();
  if (!v) return v.error();
  return r.raw(r.remaining());
}

void ComparatorRegistry::register_comparator(MsgType type, FreshnessFn fn) {
  map_[type] = std::move(fn);
}

const FreshnessFn& ComparatorRegistry::comparator(MsgType type) const {
  auto it = map_.find(type);
  return it == map_.end() ? fallback_ : it->second;
}

void ComparatorRegistry::register_merger(MsgType type, MergeFn fn) {
  mergers_[type] = std::move(fn);
}

const MergeFn* ComparatorRegistry::merger(MsgType type) const {
  auto it = mergers_.find(type);
  return it == mergers_.end() ? nullptr : &it->second;
}

MergeOutcome StateStore::merge(const StateBlob& incoming) {
  const std::uint64_t checksum = content_checksum(incoming.content);
  const MergeFn* merger = comparators_.merger(incoming.type);
  // Union-mergeable types track version 0: their content has no meaningful
  // version prefix, so digest staleness for them is decided by checksum
  // alone and anti-entropy ships the disputed blob until the unions agree.
  auto version_of = [&](const Bytes& content) -> std::uint64_t {
    if (merger != nullptr) return 0;
    const auto ver = blob_version(content);
    return ver ? *ver : 0;
  };
  auto it = map_.find(incoming.type);
  if (it == map_.end()) {
    map_.emplace(incoming.type,
                 Entry{incoming.content, version_of(incoming.content), checksum});
    ++store_version_;
    return MergeOutcome::kNew;
  }
  if (merger != nullptr) {
    // Re-union instead of picking a whole-blob winner: an LWW replacement
    // here would destroy facts the losing copy alone knew (the server-
    // directory heartbeat ping-pong that kept aging live peers out).
    Bytes merged = (*merger)(incoming.content, it->second.content);
    if (merged == it->second.content) {
      return checksum == it->second.checksum ? MergeOutcome::kEqual
                                             : MergeOutcome::kStale;
    }
    const bool sender_complete = merged == incoming.content;
    const std::uint64_t merged_checksum = content_checksum(merged);
    it->second = Entry{std::move(merged), 0, merged_checksum};
    ++store_version_;
    return sender_complete ? MergeOutcome::kFresher : MergeOutcome::kMerged;
  }
  const int cmp =
      comparators_.comparator(incoming.type)(incoming.content, it->second.content);
  if (cmp < 0) return MergeOutcome::kStale;
  if (cmp == 0) {
    if (checksum == it->second.checksum) return MergeOutcome::kEqual;
    // Comparator tie, different bytes: adopt the larger checksum so every
    // replica of a disputed type lands on the same copy.
    if (checksum < it->second.checksum) return MergeOutcome::kStale;
  }
  const auto ver = blob_version(incoming.content);
  it->second = Entry{incoming.content, ver ? *ver : 0, checksum};
  ++store_version_;
  return MergeOutcome::kFresher;
}

std::optional<StateBlob> StateStore::get(MsgType type) const {
  auto it = map_.find(type);
  if (it == map_.end()) return std::nullopt;
  return StateBlob{type, it->second.content};
}

std::vector<StateBlob> StateStore::all() const {
  std::vector<StateBlob> out;
  out.reserve(map_.size());
  for (const auto& [type, entry] : map_) out.push_back(StateBlob{type, entry.content});
  return out;
}

std::uint64_t StateStore::version_of(MsgType type) const {
  auto it = map_.find(type);
  return it == map_.end() ? 0 : it->second.version;
}

std::vector<TypeSummary> StateStore::summary() const {
  std::vector<TypeSummary> out;
  out.reserve(map_.size());
  for (const auto& [type, entry] : map_) {
    out.push_back(TypeSummary{type, entry.version, entry.checksum});
  }
  return out;
}

TypeSummary StateStore::summary_of(MsgType type) const {
  auto it = map_.find(type);
  if (it == map_.end()) return TypeSummary{type, 0, 0};
  return TypeSummary{type, it->second.version, it->second.checksum};
}

std::vector<StateBlob> StateStore::blobs_fresher_than(
    const std::vector<TypeSummary>& peer) const {
  std::vector<StateBlob> out;
  // `peer` arrives sorted by type (StateStore::summary order survives the
  // wire); walk both sorted sequences in lockstep.
  auto pit = peer.begin();
  for (const auto& [type, entry] : map_) {
    while (pit != peer.end() && pit->type < type) ++pit;
    if (pit == peer.end() || pit->type != type) {
      out.push_back(StateBlob{type, entry.content});
      continue;
    }
    // Union-mergeable types have no checksum ORDER — either side may hold
    // facts the other lacks — so any checksum difference ships the blob.
    // Merging is idempotent and commutative, so the symmetric exchange
    // converges (checksums equalize) instead of ping-ponging.
    if (comparators_.merger(type) != nullptr) {
      if (entry.checksum != pit->checksum) {
        out.push_back(StateBlob{type, entry.content});
      }
      continue;
    }
    if (entry.version > pit->version ||
        (entry.version == pit->version && entry.checksum > pit->checksum)) {
      out.push_back(StateBlob{type, entry.content});
    }
  }
  return out;
}

std::vector<MsgType> StateStore::types_stale_against(
    const std::vector<TypeSummary>& peer) const {
  std::vector<MsgType> out;
  for (const auto& s : peer) {
    auto it = map_.find(s.type);
    if (it == map_.end()) {
      out.push_back(s.type);
      continue;
    }
    // Union types: want the peer's copy whenever the contents differ at
    // all — it may hold facts we lack even if our checksum is "larger".
    if (comparators_.merger(s.type) != nullptr) {
      if (s.checksum != it->second.checksum) out.push_back(s.type);
      continue;
    }
    if (s.version > it->second.version ||
        (s.version == it->second.version && s.checksum > it->second.checksum)) {
      out.push_back(s.type);
    }
  }
  return out;
}

std::uint64_t StateStore::rollup_checksum() const {
  // XOR of per-entry hashes: order-independent, cheap to audit, and any
  // single (type, version, checksum) difference flips the rollup.
  std::uint64_t acc = 0;
  for (const auto& [type, entry] : map_) {
    Writer w(2 + 16);
    w.u16(type);
    w.u64(entry.version);
    w.u64(entry.checksum);
    const Bytes line = w.take();
    acc ^= fnv1a64(std::string_view(reinterpret_cast<const char*>(line.data()),
                                    line.size()));
  }
  return acc;
}

}  // namespace ew::gossip
