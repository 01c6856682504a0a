// The scheduler's work pool.
//
// The Ramsey search space is unbounded (fresh heuristic streams are minted
// from new seeds at will) but not uniform: units that have already reached a
// low energy are "frontier" units worth keeping on fast machines. The pool
// tracks every unit ever issued, its best energy, and — crucial for the
// paper's migration story — the latest coloring reported for it, so that a
// unit reclaimed from a slow or dead client resumes on another machine
// instead of restarting (Section 3.1.1).
//
// The pool is range-sharded: shard s of N owns the unit-id residue class
// { s+1, s+1+N, s+1+2N, ... }, so ownership is a modulo — no directory, no
// rebalancing metadata. Each shard keeps its own units, idle frontier (capped
// at max_idle_frontier), next id and dirty bit, so the scheduler checkpoints
// one changed shard at a time and a restarted shard re-imports only its own
// range. One shard is the classic unsharded pool.
//
// The API is batch-only, sized for whole directive batches. Frontier reuse is
// global: issue_many() prefers the best (lowest-energy) idle frontier unit
// across ALL shards over minting fresh work, and fresh mints rotate
// round-robin. A frontier unit taken out of mint turn is a cross-shard steal —
// a shard whose clients died (Condor eviction churn) has its orphaned
// frontier drained by whoever asks next — and is counted in steals().
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "ramsey/workunit.hpp"

namespace ew::core {

class WorkPool {
 public:
  struct Options {
    int n = 42;  // SC98 target: counter-examples for R5 on 42+ vertices
    int k = 5;
    std::uint64_t report_ops = 50'000'000;
    std::uint64_t seed_base = 0x5c98;
    std::size_t max_idle_frontier = 256;  // per shard: retained unassigned units
  };

  /// A pool of `shards` range-shards (0 is taken as 1).
  explicit WorkPool(Options opts, std::uint32_t shards = 1);

  /// Install the heuristic chooser for fresh units. Default: rotate the
  /// three kinds by unit id. The scheduler replaces this with its
  /// progress-driven policy ("servers are programmed to issue different
  /// control directives based on the type of algorithm", Section 3.1.1).
  using KindChooser = std::function<ramsey::HeuristicKind(std::uint64_t unit_id)>;
  void set_kind_chooser(KindChooser chooser) { chooser_ = std::move(chooser); }

  /// Issue n units: globally best idle frontier units first, then fresh
  /// mints rotated across shards.
  std::vector<ramsey::WorkSpec> issue_many(std::size_t n);
  /// Re-issue one specific idle unit (migration path). Returns nullopt if
  /// the unit is unknown or already assigned.
  std::optional<ramsey::WorkSpec> issue_unit(std::uint64_t unit_id);

  struct IgnoreReport {
    void operator()(const auto&...) const {}
  };
  /// Absorb progress reports in order (energy + resume state); unknown ids
  /// are skipped. For each absorbed report, calls
  /// on_report(rep, kind, prev_energy) with the unit's heuristic kind and its
  /// best energy just before this report (nullopt until its first report), so
  /// the caller's per-kind accounting costs no second lookup.
  template <typename OnReport = IgnoreReport>
  void report_many(std::span<const ramsey::WorkReport> reps,
                   OnReport&& on_report = {}) {
    for (const auto& rep : reps) {
      if (const auto a = absorb(rep)) on_report(rep, a->kind, a->prev_energy);
    }
  }

  /// Release a batch of units (client dead, revoked, or re-registered): a
  /// reported unit becomes reassignable idle frontier, an unreported one is
  /// forgotten. Each shard then trims its idle frontier once.
  void reclaim_many(std::span<const std::uint64_t> ids);

  [[nodiscard]] std::optional<std::uint64_t> best_energy(std::uint64_t unit_id) const;
  [[nodiscard]] std::size_t idle_frontier_size() const;
  /// Unit ids currently assigned to some client, sorted — the chaos
  /// invariant checker's notion of "legitimately still in flight".
  [[nodiscard]] std::vector<std::uint64_t> assigned_units() const;
  [[nodiscard]] std::size_t assigned_count() const;
  /// Units minted by this pool (imported foreign history excluded).
  [[nodiscard]] std::size_t units_issued() const;

  [[nodiscard]] std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  /// Frontier units issued out of mint turn — cross-shard steals.
  [[nodiscard]] std::uint64_t steals() const { return steals_; }

  /// True when shard k's frontier content changed since its last export —
  /// the scheduler's incremental checkpointer only exports dirty shards.
  [[nodiscard]] bool shard_dirty(std::uint32_t k) const { return shards_[k].dirty; }
  /// Checkpoint of shard k: every unit that has a resume coloring (assigned
  /// or idle), wire-encoded for the persistent state manager; clears the
  /// dirty bit. A restarted scheduler imports this and re-issues the search
  /// from where it was — the soft state is soft, the *work* is not (Section
  /// 3.1.2's persistent class).
  [[nodiscard]] Bytes export_shard(std::uint32_t k);
  /// Merge a checkpoint into shard k: unknown units in k's id range come back
  /// as idle, reassignable frontier entries; units outside the range are
  /// skipped, so a restarted shard only ever replays its own slice. Returns
  /// the number of units imported.
  std::size_t import_shard(std::uint32_t k, const Bytes& blob);

 private:
  struct Unit {
    std::uint64_t seed = 0;
    std::uint64_t best_energy = ~0ULL;  // unknown until first report
    bool assigned = false;
    ramsey::HeuristicKind kind = ramsey::HeuristicKind::kGreedy;
    Bytes resume;  // latest serialized coloring; empty = restart from seed
  };

  struct Shard {
    std::map<std::uint64_t, Unit> units;
    // Idle frontier index: (best_energy, id) for every unassigned unit with
    // a resume coloring. Keeps issue O(log N) instead of a full-map scan and
    // makes trim_idle() drop exactly the worst tail.
    std::set<std::pair<std::uint64_t, std::uint64_t>> idle;
    std::uint64_t next_id = 0;  // next id this shard mints
    std::size_t assigned = 0;
    bool dirty = false;
  };

  struct Absorbed {
    ramsey::HeuristicKind kind;
    std::optional<std::uint64_t> prev_energy;
  };

  [[nodiscard]] std::uint32_t owner_index(std::uint64_t unit_id) const {
    return unit_id == 0 ? 0
                        : static_cast<std::uint32_t>((unit_id - 1) % shards_.size());
  }
  Shard& owner(std::uint64_t unit_id) { return shards_[owner_index(unit_id)]; }
  const Shard& owner(std::uint64_t unit_id) const {
    return shards_[owner_index(unit_id)];
  }
  ramsey::WorkSpec spec_for(std::uint64_t id, const Unit& u) const;
  ramsey::WorkSpec take_idle_best(Shard& s);
  ramsey::WorkSpec mint(Shard& s);
  std::optional<Absorbed> absorb(const ramsey::WorkReport& rep);
  void release_one(Shard& s, std::uint64_t unit_id);
  void trim_idle(Shard& s);

  Options opts_;
  KindChooser chooser_;
  std::vector<Shard> shards_;
  std::uint32_t mint_cursor_ = 0;  // round-robin shard for fresh mints
  std::uint64_t steals_ = 0;
};

}  // namespace ew::core
