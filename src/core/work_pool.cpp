#include "core/work_pool.hpp"

#include <algorithm>

namespace ew::core {

WorkPool::WorkPool(Options opts, std::uint32_t shards)
    : opts_(opts), shards_(std::max<std::uint32_t>(1, shards)) {
  for (std::uint32_t k = 0; k < shards_.size(); ++k) shards_[k].next_id = k + 1;
}

ramsey::WorkSpec WorkPool::spec_for(std::uint64_t id, const Unit& u) const {
  ramsey::WorkSpec s;
  s.unit_id = id;
  s.n = opts_.n;
  s.k = opts_.k;
  s.kind = u.kind;
  s.seed = opts_.seed_base * 0x9e3779b9ULL + id;
  s.report_ops = opts_.report_ops;
  if (!u.resume.empty()) {
    auto g = ramsey::ColoredGraph::deserialize(u.resume);
    if (g) s.resume = std::move(*g);
  }
  return s;
}

ramsey::WorkSpec WorkPool::take_idle_best(Shard& s) {
  const auto id = s.idle.begin()->second;
  s.idle.erase(s.idle.begin());
  Unit& u = s.units[id];
  u.assigned = true;
  ++s.assigned;
  return spec_for(id, u);
}

ramsey::WorkSpec WorkPool::mint(Shard& s) {
  const std::uint64_t id = s.next_id;
  s.next_id += shards_.size();
  Unit u;
  u.seed = opts_.seed_base + id;
  u.assigned = true;
  // Default: rotate heuristics so all three stay in play.
  u.kind = chooser_ ? chooser_(id) : static_cast<ramsey::HeuristicKind>(id % 3);
  auto [it, _] = s.units.emplace(id, std::move(u));
  ++s.assigned;
  return spec_for(id, it->second);
}

std::vector<ramsey::WorkSpec> WorkPool::issue_many(std::size_t n) {
  std::vector<ramsey::WorkSpec> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Globally best idle frontier unit across all shards, if any.
    std::optional<std::uint32_t> best;
    for (std::uint32_t k = 0; k < shards_.size(); ++k) {
      const auto& idle = shards_[k].idle;
      if (!idle.empty() &&
          (!best || *idle.begin() < *shards_[*best].idle.begin())) {
        best = k;
      }
    }
    if (best) {
      if (*best != mint_cursor_) ++steals_;
      out.push_back(take_idle_best(shards_[*best]));
      continue;
    }
    out.push_back(mint(shards_[mint_cursor_]));
    mint_cursor_ = (mint_cursor_ + 1) % shards_.size();
  }
  return out;
}

std::optional<ramsey::WorkSpec> WorkPool::issue_unit(std::uint64_t unit_id) {
  Shard& s = owner(unit_id);
  auto it = s.units.find(unit_id);
  if (it == s.units.end() || it->second.assigned) return std::nullopt;
  s.idle.erase({it->second.best_energy, unit_id});
  it->second.assigned = true;
  ++s.assigned;
  return spec_for(unit_id, it->second);
}

std::optional<WorkPool::Absorbed> WorkPool::absorb(const ramsey::WorkReport& rep) {
  Shard& s = owner(rep.unit_id);
  auto it = s.units.find(rep.unit_id);
  if (it == s.units.end()) return std::nullopt;
  Unit& u = it->second;
  Absorbed seen{u.kind, std::nullopt};
  if (u.best_energy != ~0ULL) seen.prev_energy = u.best_energy;
  const bool was_idle = !u.assigned && !u.resume.empty();
  if (was_idle) s.idle.erase({u.best_energy, rep.unit_id});
  if (rep.best_energy < u.best_energy) {
    u.best_energy = rep.best_energy;
    s.dirty = true;
  }
  if (!rep.best_graph.empty()) {
    u.resume = rep.best_graph;
    s.dirty = true;
  }
  if (!u.assigned && !u.resume.empty()) {
    s.idle.insert({u.best_energy, rep.unit_id});
  }
  return seen;
}

void WorkPool::release_one(Shard& s, std::uint64_t unit_id) {
  auto it = s.units.find(unit_id);
  if (it == s.units.end()) return;
  Unit& u = it->second;
  if (u.assigned) {
    u.assigned = false;
    --s.assigned;
  } else if (!u.resume.empty()) {
    return;  // already idle and indexed; nothing to do
  }
  if (u.resume.empty()) {
    // Never reported: nothing worth resuming; forget it entirely.
    s.units.erase(it);
  } else {
    s.idle.insert({u.best_energy, unit_id});
    s.dirty = true;
  }
}

void WorkPool::reclaim_many(std::span<const std::uint64_t> ids) {
  for (auto id : ids) release_one(owner(id), id);
  for (auto& s : shards_) trim_idle(s);
}

std::optional<std::uint64_t> WorkPool::best_energy(std::uint64_t unit_id) const {
  const Shard& s = owner(unit_id);
  auto it = s.units.find(unit_id);
  if (it == s.units.end() || it->second.best_energy == ~0ULL) return std::nullopt;
  return it->second.best_energy;
}

std::size_t WorkPool::idle_frontier_size() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s.idle.size();
  return n;
}

std::vector<std::uint64_t> WorkPool::assigned_units() const {
  std::vector<std::uint64_t> out;
  out.reserve(assigned_count());
  for (const auto& s : shards_) {
    for (const auto& [id, u] : s.units) {
      if (u.assigned) out.push_back(id);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t WorkPool::assigned_count() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s.assigned;
  return n;
}

std::size_t WorkPool::units_issued() const {
  std::size_t n = 0;
  for (std::uint32_t k = 0; k < shards_.size(); ++k) {
    n += static_cast<std::size_t>((shards_[k].next_id - (k + 1)) / shards_.size());
  }
  return n;
}

Bytes WorkPool::export_shard(std::uint32_t k) {
  Shard& s = shards_[k];
  Writer w;
  std::uint32_t count = 0;
  for (const auto& [id, u] : s.units) {
    if (!u.resume.empty()) ++count;
  }
  w.u32(count);
  for (const auto& [id, u] : s.units) {
    if (u.resume.empty()) continue;
    w.u64(id);
    w.u64(u.seed);
    w.u8(static_cast<std::uint8_t>(u.kind));
    w.u64(u.best_energy);
    w.blob(u.resume);
  }
  s.dirty = false;
  return w.take();
}

std::size_t WorkPool::import_shard(std::uint32_t k, const Bytes& blob) {
  Shard& s = shards_[k];
  Reader r(blob);
  // Each entry is at least 8+8+1+8+4 = 29 bytes.
  auto count = r.count(2'000'000, 29, "frontier");
  if (!count) return 0;
  std::size_t imported = 0;
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto id = r.u64();
    auto seed = r.u64();
    auto kind = r.u8();
    auto energy = r.u64();
    auto resume = r.blob();
    if (!id || !seed || !kind || !energy || !resume) break;
    if (*kind > static_cast<std::uint8_t>(ramsey::HeuristicKind::kAnneal)) continue;
    // Only units in shard k's id range: a restarted shard replays its own
    // slice.
    if (*id == 0 || owner_index(*id) != k) continue;
    // Resume blobs must still decode as valid graphs of our order.
    if (resume->size() > ramsey::kMaxGraphBlob) continue;
    auto g = ramsey::ColoredGraph::deserialize(*resume);
    if (!g || g->order() != opts_.n) continue;
    if (s.units.contains(*id)) continue;  // live unit wins over checkpoint
    Unit u;
    u.seed = *seed;
    u.kind = static_cast<ramsey::HeuristicKind>(*kind);
    u.best_energy = *energy;
    u.resume = std::move(*resume);
    u.assigned = false;
    s.idle.insert({u.best_energy, *id});
    s.units.emplace(*id, std::move(u));
    s.next_id = std::max<std::uint64_t>(s.next_id, *id + shards_.size());
    ++imported;
  }
  if (imported > 0) s.dirty = true;
  trim_idle(s);
  return imported;
}

void WorkPool::trim_idle(Shard& s) {
  // Keep the bounded "file system footprint" discipline of Section 3.1.2:
  // drop the *worst* idle units beyond the cap.
  while (s.idle.size() > opts_.max_idle_frontier) {
    auto worst = std::prev(s.idle.end());
    s.units.erase(worst->second);
    s.idle.erase(worst);
    s.dirty = true;
  }
}

}  // namespace ew::core
