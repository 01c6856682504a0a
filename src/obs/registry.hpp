// Process-wide metrics registry: the single place to look when a clique
// partitions or a breaker opens.
//
// The SC98 application's stability came from watching itself run (paper
// Sections 2.2, 3.1.3): every request/response event was tagged, timed and
// fed back. PR 1 and PR 2 left that telemetry fragmented across four one-off
// APIs; this registry unifies them behind three lock-cheap instruments:
//
//   * Counter   — monotonically increasing relaxed atomic;
//   * Gauge     — last-written double (bit-cast through an atomic word);
//   * Histogram — log-bucketed latency distribution; record() is a handful
//     of relaxed fetch_adds, no locks, no allocation (<50 ns target,
//     verified by bench/micro_obs).
//
// Instruments are registered by name (optionally name{label}) and live for
// the registry's lifetime, so callers resolve a pointer once and record
// through it forever. snapshot_json() renders every instrument into one
// machine-readable JSON document with sorted keys — byte-identical for
// identical instrument states, which is what makes sim-clock runs replayable.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ew::obs {

/// Monotonic event count. inc() is one relaxed fetch_add.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written level (host counts, queue depths). Stored as the double's
/// bit pattern in an atomic word so set/read stay lock-free everywhere.
class Gauge {
 public:
  void set(double v) {
    bits_.store(std::bit_cast<std::uint64_t>(v), std::memory_order_relaxed);
  }
  void add(double d);
  [[nodiscard]] double value() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }
  void reset() { set(0.0); }

 private:
  std::atomic<std::uint64_t> bits_{0};  // 0 is the bit pattern of +0.0
};

/// Log-bucketed histogram over non-negative integer samples (microsecond
/// latencies). Bucket b holds samples of bit width b — i.e. [2^(b-1), 2^b)
/// — with bucket 0 holding exact zeros, so boundaries are powers of two and
/// bucketing is one std::bit_width. The record path is three relaxed
/// fetch_adds: no locks, no allocation, hot-path safe.
class Histogram {
 public:
  static constexpr int kBuckets = 65;  // bit widths 0..64

  void record(std::uint64_t v) {
    buckets_[std::bit_width(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket(int b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  /// Largest sample value bucket b can hold (inclusive).
  [[nodiscard]] static std::uint64_t bucket_upper(int b) {
    if (b <= 0) return 0;
    if (b >= 64) return ~std::uint64_t{0};
    return (std::uint64_t{1} << b) - 1;
  }
  void reset();

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Name → instrument store. Registration (find-or-create) takes a mutex;
/// the returned reference is stable for the registry's lifetime, so the
/// recording paths never touch the lock. Keys are kept sorted so the JSON
/// snapshot is deterministic.
class Registry {
 public:
  Counter& counter(std::string_view name);
  Counter& counter(std::string_view name, std::string_view label) {
    return counter(keyed(name, label));
  }
  Gauge& gauge(std::string_view name);
  Gauge& gauge(std::string_view name, std::string_view label) {
    return gauge(keyed(name, label));
  }
  Histogram& histogram(std::string_view name);
  Histogram& histogram(std::string_view name, std::string_view label) {
    return histogram(keyed(name, label));
  }

  /// One machine-readable JSON document over every registered instrument:
  ///   {"counters":{name:value,...},"gauges":{name:value,...},
  ///    "histograms":{name:{"count":n,"sum":s,"buckets":[[upper,count],...]}}}
  /// Keys sorted; histogram buckets listed only when non-empty. Identical
  /// instrument states render byte-identically.
  [[nodiscard]] std::string snapshot_json() const;

  /// Zero every instrument. Registrations (and resolved pointers) survive.
  void reset();

  [[nodiscard]] std::size_t instrument_count() const;

 private:
  static std::string keyed(std::string_view name, std::string_view label) {
    std::string k;
    k.reserve(name.size() + label.size() + 2);
    k.append(name).push_back('{');
    k.append(label).push_back('}');
    return k;
  }

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// The process-wide registry. Its mandatory instrument set (names below) is
/// pre-registered at first use, so a snapshot always contains every core
/// series — at zero if the subsystem never ran.
Registry& registry();

/// registry().snapshot_json() — the one call benches print.
[[nodiscard]] std::string snapshot_json();

/// Canonical instrument names: `<subsystem>.<noun>[.<qualifier>]`, units as
/// a `_us` suffix where they matter, per-entity series via `name{label}`.
/// See DESIGN.md §8 for the scheme.
namespace names {
inline constexpr const char* kNetCallsStarted = "net.calls.started";
inline constexpr const char* kNetCallsOk = "net.calls.ok";
inline constexpr const char* kNetCallsFailed = "net.calls.failed";
inline constexpr const char* kNetAttempts = "net.attempts";
inline constexpr const char* kNetRetries = "net.retries";
inline constexpr const char* kNetHedges = "net.hedges";
inline constexpr const char* kNetHedgeWins = "net.hedge_wins";
inline constexpr const char* kNetHedgeLosses = "net.hedge_losses";
inline constexpr const char* kNetTimeoutsFired = "net.timeouts_fired";
inline constexpr const char* kNetLateResponses = "net.late_responses";
inline constexpr const char* kNetLateRescues = "net.late_rescues";
inline constexpr const char* kNetDuplicateResponses = "net.duplicate_responses";
inline constexpr const char* kNetShortCircuits = "net.short_circuits";
inline constexpr const char* kNetBreakerOpened = "net.breaker.opened";
inline constexpr const char* kNetFramesCorrupt = "net.frames.corrupt";
inline constexpr const char* kNetFramesTruncated = "net.frames.truncated";
inline constexpr const char* kNetBackpressureRejects = "net.backpressure_rejects";
inline constexpr const char* kNetAcceptErrors = "net.accept_errors";
inline constexpr const char* kNetConnsOpen = "net.conns_open";
inline constexpr const char* kNetOutboxBytes = "net.outbox_bytes";
inline constexpr const char* kNetCallLatencyUs = "net.call.latency_us";
inline constexpr const char* kNetTimeoutWaitUs = "net.timeout.wait_us";
inline constexpr const char* kGossipSyncRounds = "gossip.sync_rounds";
inline constexpr const char* kGossipPolls = "gossip.polls";
inline constexpr const char* kGossipPollCacheHits = "gossip.poll.cache_hits";
inline constexpr const char* kGossipUpdatesPushed = "gossip.updates_pushed";
inline constexpr const char* kGossipStatesAbsorbed = "gossip.states_absorbed";
inline constexpr const char* kGossipDeltaBlobs = "gossip.delta_blobs";
inline constexpr const char* kGossipMergeNew = "gossip.merge.new";
inline constexpr const char* kGossipMergeFresher = "gossip.merge.fresher";
inline constexpr const char* kGossipMergeStale = "gossip.merge.stale";
inline constexpr const char* kGossipMergeEqual = "gossip.merge.equal";
inline constexpr const char* kGossipMergeMerged = "gossip.merge.merged";
inline constexpr const char* kGossipDigestBytes = "gossip.digest_bytes";
inline constexpr const char* kGossipConvergenceRounds =
    "gossip.convergence_rounds";
inline constexpr const char* kCliqueTokens = "clique.tokens";
inline constexpr const char* kCliqueRounds = "clique.rounds";
inline constexpr const char* kCliqueFragmentations = "clique.fragmentations";
inline constexpr const char* kCliqueElections = "clique.elections";
inline constexpr const char* kSchedDispatches = "sched.dispatches";
inline constexpr const char* kSchedReports = "sched.reports";
inline constexpr const char* kSchedMigrations = "sched.migrations";
inline constexpr const char* kSchedPresumedDead = "sched.presumed_dead";
// Batched directive API (DESIGN.md §13): report batches absorbed, duplicate
// (hedged/retried) batches answered from the reply cache, units revoked by
// directive, and frontier units pulled across shard mint rotation.
inline constexpr const char* kSchedBatchReports = "sched.batch_reports";
inline constexpr const char* kSchedBatchReplays = "sched.batch_replays";
inline constexpr const char* kSchedUnitsRevoked = "sched.units_revoked";
inline constexpr const char* kSchedShardSteals = "sched.shard_steals";
inline constexpr const char* kSchedOutstandingUnits = "sched.outstanding_units";
inline constexpr const char* kSchedFrontierUnits = "sched.frontier_units";
inline constexpr const char* kSchedDirectiveLatencyUs =
    "sched.directive_latency_us";
inline constexpr const char* kForecastMethodSwitches =
    "forecast.method_switches";
inline constexpr const char* kAppDroppedSamples = "app.metrics.dropped_samples";
inline constexpr const char* kWishJobsSpawned = "wish.jobs.spawned";
inline constexpr const char* kWishJobsCompleted = "wish.jobs.completed";
inline constexpr const char* kWishJobsKilled = "wish.jobs.killed";
inline constexpr const char* kWishJobsUnknownPolls = "wish.jobs.unknown_polls";
inline constexpr const char* kWishEnvSets = "wish.env.sets";
inline constexpr const char* kWishEnvMerges = "wish.env.merges";
inline constexpr const char* kWishEnvGhostRemints = "wish.env.ghost_remints";
inline constexpr const char* kWishBarrierRounds = "wish.barrier.rounds";
inline constexpr const char* kWishBarrierReentries = "wish.barrier.reentries";
inline constexpr const char* kWishLeaderClaims = "wish.leader.claims";
inline constexpr const char* kWishScatterForwards = "wish.scatter.forwards";
}  // namespace names

/// The instruments every snapshot of the process-wide registry must contain
/// (the ctest mandatory-set check iterates this).
[[nodiscard]] const std::vector<const char*>& mandatory_counters();
[[nodiscard]] const std::vector<const char*>& mandatory_gauges();
[[nodiscard]] const std::vector<const char*>& mandatory_histograms();

}  // namespace ew::obs
