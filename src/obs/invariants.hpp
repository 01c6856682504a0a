// Trace-level invariant checker for chaos runs.
//
// The chaos tests and the dependability bench assert global safety/liveness
// properties that no single subsystem can see locally: a work unit handed to
// a client whose scheduler later crashed must either still be outstanding on
// a live scheduler, or have been re-issued after the restart — never silently
// dropped; clique generations observed by one member must be monotone within
// one incarnation of that member; a circuit breaker that opens must
// eventually probe (leave the open state) instead of staying latched.
//
// The checker replays the obs::TraceRecorder span stream (which the sim
// stamps with virtual time, so the input is bit-identical across replays of
// the same seed) and cross-references chaos faults with scheduler and clique
// spans. It has no coupling to the live objects: tests hand it a snapshot
// plus the set of unit ids that are legitimately still in flight at the end.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace ew::obs {

struct InvariantOptions {
  /// Unit ids legitimately outstanding when the trace ends (issued to a
  /// client that is still alive and working). Everything else issued and
  /// never reclaimed must be explained by a crash/restart pair.
  std::set<std::uint64_t> live_units;
  /// Likewise, a unit at risk from a crash this close to the end of the
  /// trace is forgiven if the restart never came.
  std::int64_t crash_grace_us = 0;
};

struct InvariantReport {
  std::vector<std::string> violations;

  // Accounting that the dependability bench serializes.
  std::uint64_t units_issued = 0;
  std::uint64_t units_reclaimed = 0;
  std::uint64_t units_reissued_after_crash = 0;
  std::uint64_t units_double_issued = 0;
  std::uint64_t units_lost = 0;
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_reprobes = 0;
  std::uint64_t view_changes = 0;
  std::uint64_t chaos_faults = 0;
  std::uint64_t gossip_deltas = 0;
  std::uint64_t gossip_delta_blobs = 0;

  [[nodiscard]] bool ok() const { return violations.empty(); }
};

/// Scan `rec`'s retained spans (oldest → newest) and check the three chaos
/// invariants. Requires the ring not to have dropped events mid-run; the
/// chaos tests size the ring accordingly (a dropped!=0 trace adds its own
/// violation since the accounting would be unsound).
[[nodiscard]] InvariantReport check_invariants(const TraceRecorder& rec,
                                               const InvariantOptions& opts);

}  // namespace ew::obs
