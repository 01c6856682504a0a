// Tests for the scheduler's work pool: issue, frontier preference,
// resume-on-reclaim, footprint bounding, residue-class range shards, global
// frontier stealing, and per-shard checkpointing.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/work_pool.hpp"

namespace ew::core {
namespace {

WorkPool::Options small_pool() {
  WorkPool::Options o;
  o.n = 10;
  o.k = 4;
  o.seed_base = 7;
  o.max_idle_frontier = 4;
  return o;
}

// Per-shard idle cap large enough that the sharding tests never trim.
WorkPool::Options roomy_pool() {
  WorkPool::Options o = small_pool();
  o.max_idle_frontier = 64;
  return o;
}

ramsey::WorkReport report_for(std::uint64_t unit, std::uint64_t energy,
                              int n = 10) {
  ramsey::WorkReport r;
  r.unit_id = unit;
  r.ops_done = 1000;
  r.best_energy = energy;
  Rng rng(unit + 1);
  r.best_graph = ramsey::ColoredGraph::random(n, rng).serialize();
  return r;
}

ramsey::WorkSpec issue_one(WorkPool& pool) { return pool.issue_many(1).front(); }

void report(WorkPool& pool, const ramsey::WorkReport& rep) {
  pool.report_many(std::span<const ramsey::WorkReport>(&rep, 1));
}

void reclaim(WorkPool& pool, std::uint64_t id) {
  pool.reclaim_many(std::span<const std::uint64_t>(&id, 1));
}

bool assigned(const WorkPool& pool, std::uint64_t id) {
  const auto ids = pool.assigned_units();
  return std::binary_search(ids.begin(), ids.end(), id);
}

TEST(WorkPool, FreshUnitsHaveIncreasingIds) {
  WorkPool pool(small_pool());
  const auto a = issue_one(pool);
  const auto b = issue_one(pool);
  EXPECT_LT(a.unit_id, b.unit_id);
  EXPECT_EQ(a.n, 10);
  EXPECT_EQ(a.k, 4);
  EXPECT_FALSE(a.resume.has_value());
  EXPECT_EQ(pool.units_issued(), 2u);
}

TEST(WorkPool, HeuristicKindsRotate) {
  WorkPool pool(small_pool());
  std::set<ramsey::HeuristicKind> kinds;
  for (const auto& spec : pool.issue_many(3)) kinds.insert(spec.kind);
  EXPECT_EQ(kinds.size(), 3u);
}

TEST(WorkPool, ReleasedReportedUnitResumesWithColoring) {
  WorkPool pool(small_pool());
  const auto spec = issue_one(pool);
  report(pool, report_for(spec.unit_id, 25));
  reclaim(pool, spec.unit_id);
  EXPECT_EQ(pool.idle_frontier_size(), 1u);
  const auto again = issue_one(pool);
  EXPECT_EQ(again.unit_id, spec.unit_id);
  ASSERT_TRUE(again.resume.has_value());
  EXPECT_EQ(again.resume->order(), 10);
}

TEST(WorkPool, ReleasedUnreportedUnitIsForgotten) {
  WorkPool pool(small_pool());
  const auto spec = issue_one(pool);
  reclaim(pool, spec.unit_id);
  EXPECT_EQ(pool.idle_frontier_size(), 0u);
  const auto next = issue_one(pool);
  EXPECT_NE(next.unit_id, spec.unit_id);
}

TEST(WorkPool, AcquirePrefersLowestEnergyFrontier) {
  WorkPool pool(small_pool());
  const auto specs = pool.issue_many(2);
  const auto a = specs[0].unit_id;
  const auto b = specs[1].unit_id;
  pool.report_many(std::vector<ramsey::WorkReport>{report_for(a, 50),
                                                   report_for(b, 5)});
  pool.reclaim_many(std::vector<std::uint64_t>{a, b});
  EXPECT_EQ(issue_one(pool).unit_id, b);
}

TEST(WorkPool, AcquireUnitOnlyWhenIdle) {
  WorkPool pool(small_pool());
  const auto spec = issue_one(pool);
  EXPECT_FALSE(pool.issue_unit(spec.unit_id).has_value());  // assigned
  report(pool, report_for(spec.unit_id, 9));
  reclaim(pool, spec.unit_id);
  const auto again = pool.issue_unit(spec.unit_id);
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(assigned(pool, spec.unit_id));
  EXPECT_FALSE(pool.issue_unit(999).has_value());  // unknown
}

TEST(WorkPool, BestEnergyTracksMinimum) {
  WorkPool pool(small_pool());
  const auto spec = issue_one(pool);
  EXPECT_FALSE(pool.best_energy(spec.unit_id).has_value());  // no report yet
  report(pool, report_for(spec.unit_id, 30));
  report(pool, report_for(spec.unit_id, 40));  // worse: ignored
  EXPECT_EQ(*pool.best_energy(spec.unit_id), 30u);
  report(pool, report_for(spec.unit_id, 10));
  EXPECT_EQ(*pool.best_energy(spec.unit_id), 10u);
}

TEST(WorkPool, ReportManyHandsKindAndPreviousEnergy) {
  // Each absorbed report is handed back with its unit's kind and the best
  // energy the pool held just before absorbing it — so a unit named twice in
  // one batch sees its own first copy. Unknown ids are not handed back.
  WorkPool pool(small_pool());
  const auto spec = issue_one(pool);
  const auto id = spec.unit_id;
  struct Seen {
    std::uint64_t unit;
    ramsey::HeuristicKind kind;
    std::optional<std::uint64_t> prev;
  };
  std::vector<Seen> seen;
  pool.report_many(
      std::vector<ramsey::WorkReport>{report_for(id, 30), report_for(424242, 1),
                                      report_for(id, 20), report_for(id, 25)},
      [&seen](const ramsey::WorkReport& rep, ramsey::HeuristicKind kind,
              std::optional<std::uint64_t> prev) {
        seen.push_back({rep.unit_id, kind, prev});
      });
  ASSERT_EQ(seen.size(), 3u);
  for (const auto& s : seen) {
    EXPECT_EQ(s.unit, id);
    EXPECT_EQ(s.kind, spec.kind);
  }
  EXPECT_FALSE(seen[0].prev.has_value());
  EXPECT_EQ(seen[1].prev, std::optional<std::uint64_t>(30));
  EXPECT_EQ(seen[2].prev, std::optional<std::uint64_t>(20));
  EXPECT_EQ(*pool.best_energy(id), 20u);
}

TEST(WorkPool, IdleFrontierBounded) {
  WorkPool pool(small_pool());  // cap 4
  std::vector<std::uint64_t> ids;
  for (const auto& spec : pool.issue_many(10)) ids.push_back(spec.unit_id);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    report(pool, report_for(ids[i], 100 - i));  // later units are better
    reclaim(pool, ids[i]);
  }
  EXPECT_LE(pool.idle_frontier_size(), 4u);
  // The survivors are the best (lowest-energy) units.
  EXPECT_EQ(issue_one(pool).unit_id, ids.back());
}

TEST(WorkPool, ReportForUnknownUnitIgnored) {
  WorkPool pool(small_pool());
  report(pool, report_for(424242, 1));
  EXPECT_EQ(pool.idle_frontier_size(), 0u);
  EXPECT_FALSE(pool.shard_dirty(0));
}

TEST(WorkPool, FrontierExportImportRoundTrip) {
  WorkPool a(small_pool());
  const auto specs = a.issue_many(2);
  const auto& s1 = specs[0];
  const auto& s2 = specs[1];
  a.report_many(std::vector<ramsey::WorkReport>{report_for(s1.unit_id, 25),
                                                report_for(s2.unit_id, 7)});
  const Bytes checkpoint = a.export_shard(0);

  WorkPool b(small_pool());
  EXPECT_EQ(b.import_shard(0, checkpoint), 2u);
  EXPECT_EQ(b.idle_frontier_size(), 2u);
  // The most promising unit comes back first, with its coloring and kind.
  const auto resumed = issue_one(b);
  EXPECT_EQ(resumed.unit_id, s2.unit_id);
  EXPECT_EQ(resumed.kind, s2.kind);
  ASSERT_TRUE(resumed.resume.has_value());
  // Fresh units issued after import do not collide with imported ids.
  (void)issue_one(b);  // consume the second frontier unit
  const auto fresh2 = issue_one(b);
  EXPECT_GT(fresh2.unit_id, std::max(s1.unit_id, s2.unit_id));
}

TEST(WorkPool, ImportIgnoresGarbageAndWrongOrder) {
  WorkPool pool(small_pool());
  EXPECT_EQ(pool.import_shard(0, Bytes{1, 2, 3}), 0u);
  // A checkpoint whose resume graphs have the wrong order is skipped.
  WorkPool::Options other = small_pool();
  other.n = 14;
  WorkPool donor(other);
  const auto s = issue_one(donor);
  report(donor, report_for(s.unit_id, 3, 14));
  EXPECT_EQ(pool.import_shard(0, donor.export_shard(0)), 0u);
}

TEST(WorkPool, ImportDoesNotOverrideLiveUnits) {
  WorkPool pool(small_pool());
  const auto live = issue_one(pool);
  report(pool, report_for(live.unit_id, 9));
  const Bytes checkpoint = pool.export_shard(0);
  // The unit is still assigned; importing its own checkpoint is a no-op.
  EXPECT_EQ(pool.import_shard(0, checkpoint), 0u);
  EXPECT_TRUE(assigned(pool, live.unit_id));
}

TEST(WorkPool, CustomKindChooserUsedForFreshUnits) {
  WorkPool pool(small_pool());
  pool.set_kind_chooser(
      [](std::uint64_t) { return ramsey::HeuristicKind::kAnneal; });
  for (const auto& spec : pool.issue_many(5)) {
    EXPECT_EQ(spec.kind, ramsey::HeuristicKind::kAnneal);
  }
}

TEST(WorkPool, SpecSeedsDifferPerUnit) {
  WorkPool pool(small_pool());
  const auto specs = pool.issue_many(2);
  EXPECT_NE(specs[0].seed, specs[1].seed);
}

TEST(WorkPool, StridedPoolMintsOnlyItsResidueClass) {
  // Shard k of 3 mints only ids k+1, k+4, k+7, ...: every minted id's
  // checkpoint lands in its own shard's export and nowhere else.
  WorkPool pool(roomy_pool(), 3);
  const auto specs = pool.issue_many(6);
  std::vector<ramsey::WorkReport> reps;
  for (const auto& s : specs) reps.push_back(report_for(s.unit_id, 50));
  pool.report_many(reps);
  EXPECT_EQ(pool.units_issued(), 6u);
  for (std::uint32_t k = 0; k < 3; ++k) {
    WorkPool probe(roomy_pool(), 3);
    EXPECT_EQ(probe.import_shard(k, pool.export_shard(k)), 2u) << "shard " << k;
    for (const auto& s : probe.issue_many(2)) {
      EXPECT_EQ((s.unit_id - 1) % 3, k);
    }
  }
}

TEST(WorkPool, ImportFiltersForeignIds) {
  // A shard only replays its own id range from a checkpoint: units outside
  // the residue class are someone else's and must be skipped.
  WorkPool donor(small_pool());  // one shard: mints ids 1, 2, 3, ...
  std::vector<std::uint64_t> ids;
  for (const auto& spec : donor.issue_many(4)) ids.push_back(spec.unit_id);
  std::vector<ramsey::WorkReport> reps;
  for (auto id : ids) reps.push_back(report_for(id, 20 + id));
  donor.report_many(reps);
  const Bytes checkpoint = donor.export_shard(0);

  WorkPool pool(small_pool(), 2);  // shard 0 owns 1, 3, 5, ...
  EXPECT_EQ(pool.import_shard(0, checkpoint), 2u);  // only ids 1 and 3
  EXPECT_EQ(pool.idle_frontier_size(), 2u);
  EXPECT_TRUE(pool.issue_unit(1).has_value());
  EXPECT_TRUE(pool.issue_unit(3).has_value());
  EXPECT_FALSE(pool.issue_unit(2).has_value());
  // The same checkpoint gives shard 1 exactly the other half.
  EXPECT_EQ(pool.import_shard(1, checkpoint), 2u);  // ids 2 and 4
  EXPECT_TRUE(pool.issue_unit(2).has_value());
}

TEST(WorkPool, BatchAndSingleCallsLeaveIdenticalState) {
  // Splitting a batch into one-unit batches changes nothing: feeding the
  // same reports and reclaims either way leaves bit-identical state.
  WorkPool single(small_pool(), 2);
  WorkPool batch(small_pool(), 2);
  std::vector<std::uint64_t> ids;
  for (const auto& spec : batch.issue_many(6)) ids.push_back(spec.unit_id);
  for (auto id : ids) ASSERT_EQ(issue_one(single).unit_id, id);
  std::vector<ramsey::WorkReport> reps;
  for (auto id : ids) reps.push_back(report_for(id, 90 - 7 * id));
  for (const auto& rep : reps) report(single, rep);
  batch.report_many(reps);
  for (auto id : ids) reclaim(single, id);
  batch.reclaim_many(ids);
  for (std::uint32_t k = 0; k < 2; ++k) {
    EXPECT_EQ(single.export_shard(k), batch.export_shard(k));
  }
  EXPECT_EQ(single.idle_frontier_size(), batch.idle_frontier_size());
  EXPECT_EQ(single.assigned_count(), batch.assigned_count());
  EXPECT_EQ(single.units_issued(), batch.units_issued());
}

TEST(WorkPool, ReleaseManyRespectsFrontierCap) {
  WorkPool pool(small_pool());  // cap 4
  std::vector<std::uint64_t> ids;
  for (const auto& spec : pool.issue_many(10)) ids.push_back(spec.unit_id);
  std::vector<ramsey::WorkReport> reps;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    reps.push_back(report_for(ids[i], 100 - i));
  }
  pool.report_many(reps);
  pool.reclaim_many(ids);
  EXPECT_LE(pool.idle_frontier_size(), 4u);
  EXPECT_EQ(issue_one(pool).unit_id, ids.back());  // best survivor first
}

TEST(WorkPool, DirtyFlagTracksCheckpointableChanges) {
  WorkPool pool(small_pool());
  EXPECT_FALSE(pool.shard_dirty(0));
  const auto spec = issue_one(pool);
  EXPECT_FALSE(pool.shard_dirty(0));  // nothing worth checkpointing yet
  report(pool, report_for(spec.unit_id, 15));
  EXPECT_TRUE(pool.shard_dirty(0));
  (void)pool.export_shard(0);
  EXPECT_FALSE(pool.shard_dirty(0)) << "export clears the dirty flag";
  reclaim(pool, spec.unit_id);
  EXPECT_TRUE(pool.shard_dirty(0));
}

TEST(WorkPool, ResidueClassOwnershipAndRoundRobinMinting) {
  WorkPool pool(roomy_pool(), 4);
  const auto specs = pool.issue_many(8);
  ASSERT_EQ(specs.size(), 8u);
  // Fresh mints rotate over the shards: ids 1..8, two per residue class.
  std::vector<std::uint64_t> ids;
  for (const auto& s : specs) ids.push_back(s.unit_id);
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(pool.shard_count(), 4u);
  EXPECT_EQ(pool.assigned_count(), 8u);
  EXPECT_EQ(pool.units_issued(), 8u);
  EXPECT_EQ(pool.steals(), 0u);
}

TEST(WorkPool, BatchReportAndReclaimRouteToOwningShards) {
  WorkPool pool(roomy_pool(), 4);
  const auto specs = pool.issue_many(8);
  std::vector<ramsey::WorkReport> reps;
  std::vector<std::uint64_t> ids;
  for (const auto& s : specs) {
    reps.push_back(report_for(s.unit_id, 10 + s.unit_id));
    ids.push_back(s.unit_id);
  }
  pool.report_many(reps);
  for (auto id : ids) EXPECT_EQ(*pool.best_energy(id), 10 + id);
  for (std::uint32_t k = 0; k < 4; ++k) EXPECT_TRUE(pool.shard_dirty(k));
  pool.reclaim_many(ids);
  EXPECT_EQ(pool.assigned_count(), 0u);
  EXPECT_EQ(pool.idle_frontier_size(), 8u);
}

TEST(WorkPool, IssuePrefersGlobalBestFrontierAndCountsSteals) {
  WorkPool pool(roomy_pool(), 2);
  const auto specs = pool.issue_many(2);  // id 1 on shard 0, id 2 on shard 1
  ASSERT_EQ(specs.size(), 2u);
  pool.report_many(std::vector<ramsey::WorkReport>{
      report_for(1, 50), report_for(2, 5)});
  pool.reclaim_many(std::vector<std::uint64_t>{1, 2});
  // Mint cursor is back on shard 0; the best frontier unit lives on shard 1.
  const auto stolen = pool.issue_many(1);
  ASSERT_EQ(stolen.size(), 1u);
  EXPECT_EQ(stolen.front().unit_id, 2u);
  EXPECT_EQ(pool.steals(), 1u);
  // Next issue drains shard 0's own frontier: no steal.
  const auto own = pool.issue_many(1);
  EXPECT_EQ(own.front().unit_id, 1u);
  EXPECT_EQ(pool.steals(), 1u);
}

TEST(WorkPool, AssignedUnitsAggregatedSorted) {
  WorkPool pool(roomy_pool(), 3);
  (void)pool.issue_many(7);
  const auto ids = pool.assigned_units();
  ASSERT_EQ(ids.size(), 7u);
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
}

TEST(WorkPool, PerShardCheckpointReplaysOnlyOwnRange) {
  WorkPool a(roomy_pool(), 2);
  const auto specs = a.issue_many(4);  // ids 1..4 across both shards
  std::vector<ramsey::WorkReport> reps;
  for (const auto& s : specs) reps.push_back(report_for(s.unit_id, 30 + s.unit_id));
  a.report_many(reps);
  ASSERT_TRUE(a.shard_dirty(0));
  ASSERT_TRUE(a.shard_dirty(1));
  const Bytes blob0 = a.export_shard(0);
  const Bytes blob1 = a.export_shard(1);
  EXPECT_FALSE(a.shard_dirty(0)) << "export clears the dirty flag";

  WorkPool b(roomy_pool(), 2);
  // Importing a shard's own blob replays its units; a foreign shard's blob
  // contains only ids outside the residue class and replays nothing.
  EXPECT_EQ(b.import_shard(0, blob0), 2u);
  EXPECT_EQ(b.import_shard(0, blob1), 0u);
  EXPECT_EQ(b.import_shard(1, blob1), 2u);
  EXPECT_EQ(b.idle_frontier_size(), 4u);
  // Restored units are re-issued, never re-minted under a new id.
  const auto reissued = b.issue_many(4);
  std::set<std::uint64_t> ids;
  for (const auto& s : reissued) ids.insert(s.unit_id);
  EXPECT_EQ(ids, (std::set<std::uint64_t>{1, 2, 3, 4}));
}

TEST(WorkPool, IssueUnitRoutesMigrationReissue) {
  WorkPool pool(roomy_pool(), 3);
  const auto specs = pool.issue_many(3);
  const auto id = specs[1].unit_id;
  EXPECT_FALSE(pool.issue_unit(id).has_value());  // still assigned
  report(pool, report_for(id, 9));
  reclaim(pool, id);
  EXPECT_FALSE(assigned(pool, id));
  const auto again = pool.issue_unit(id);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->unit_id, id);
  EXPECT_TRUE(assigned(pool, id));
  EXPECT_EQ(pool.assigned_count(), 3u);
  EXPECT_EQ(pool.steals(), 0u) << "a targeted re-issue is not a steal";
}

}  // namespace
}  // namespace ew::core
