#include "obs/invariants.hpp"

#include <map>
#include <sstream>
#include <utility>

namespace ew::obs {

namespace {

/// A breaker-open within this window of the trace's final span is not a
/// violation — the run simply ended before the cooldown elapsed.
constexpr std::int64_t kBreakerGraceUs = 60 * 1000 * 1000;

// sim::FaultKind wire values carried in kChaosFault's a word. obs cannot
// include sim headers (sim links against obs), so the two values the checker
// interprets are pinned here; fault_kind_name() round-trips them in tests.
constexpr std::int64_t kFaultCrash = 0;
constexpr std::int64_t kFaultRestart = 1;

// CircuitBreaker::State wire value for kOpen in kBreakerTransition's a/b.
constexpr std::int64_t kBreakerOpen = 1;

// Chaos faults target hosts; scheduler/clique spans are tagged with
// "host:port" endpoints. Joining the two means dropping the port.
std::string host_of(const std::string& endpoint) {
  const auto colon = endpoint.find(':');
  return colon == std::string::npos ? endpoint : endpoint.substr(0, colon);
}

struct UnitRec {
  std::int64_t last_issued_at = 0;
  bool reclaimed = false;
};

}  // namespace

InvariantReport check_invariants(const TraceRecorder& rec,
                                 const InvariantOptions& opts) {
  InvariantReport report;
  if (rec.dropped() != 0) {
    std::ostringstream os;
    os << "trace ring dropped " << rec.dropped()
       << " events; invariant accounting is unsound (enlarge the ring)";
    report.violations.push_back(os.str());
  }

  const auto spans = rec.snapshot();
  const std::int64_t end = spans.empty() ? 0 : spans.back().at;

  // (scheduler tag, unit id) → issue/reclaim state. Ordered so the final
  // sweep reports violations in a deterministic order.
  std::map<std::pair<std::uint32_t, std::uint64_t>, UnitRec> units;
  // host → crash/restart times, in trace order.
  std::map<std::string, std::vector<std::int64_t>> crashes;
  std::map<std::string, std::vector<std::int64_t>> restarts;
  // member tag → last generation seen this incarnation (-1 = none yet).
  std::map<std::uint32_t, std::int64_t> last_gen;
  // breaker tag → time it entered kOpen (erased when it leaves).
  std::map<std::uint32_t, std::int64_t> open_since;

  for (const auto& ev : spans) {
    switch (ev.kind) {
      case SpanKind::kSchedUnitIssued: {
        ++report.units_issued;
        const auto key = std::make_pair(ev.tag, static_cast<std::uint64_t>(ev.a));
        auto it = units.find(key);
        if (it != units.end()) {
          // Same unit issued again: re-issue after the holder's scheduler
          // crashed (the recovery path) or after a reclaim (migration).
          const auto& host_crashes = crashes[host_of(rec.tag_name(ev.tag))];
          bool crashed_since = false;
          for (auto t : host_crashes) {
            if (t >= it->second.last_issued_at) { crashed_since = true; break; }
          }
          if (crashed_since && !it->second.reclaimed) {
            ++report.units_reissued_after_crash;
          } else if (!it->second.reclaimed) {
            // No crash since the previous issue and no reclaim in between:
            // the scheduler handed the same unit to two holders at once.
            // (A restart re-import is covered by the crash branch above;
            // migration reclaims before it re-issues.)
            ++report.units_double_issued;
            std::ostringstream os;
            os << "work unit " << static_cast<std::uint64_t>(ev.a)
               << " re-issued by " << rec.tag_name(ev.tag) << " at t=" << ev.at
               << " while still outstanding (issued t="
               << it->second.last_issued_at
               << ", no reclaim and no crash in between): double-issued";
            report.violations.push_back(os.str());
          }
          it->second.last_issued_at = ev.at;
          it->second.reclaimed = false;
        } else {
          units.emplace(key, UnitRec{ev.at, false});
        }
        break;
      }
      case SpanKind::kSchedUnitReclaimed: {
        ++report.units_reclaimed;
        const auto key = std::make_pair(ev.tag, static_cast<std::uint64_t>(ev.a));
        auto it = units.find(key);
        if (it != units.end()) it->second.reclaimed = true;
        break;
      }
      case SpanKind::kCliqueViewChange: {
        ++report.view_changes;
        auto it = last_gen.find(ev.tag);
        if (it != last_gen.end() && ev.a < it->second) {
          std::ostringstream os;
          os << "clique generation regressed on " << rec.tag_name(ev.tag)
             << ": " << it->second << " -> " << ev.a << " at t=" << ev.at;
          report.violations.push_back(os.str());
        }
        last_gen[ev.tag] = ev.a;
        break;
      }
      case SpanKind::kBreakerTransition: {
        if (ev.b == kBreakerOpen && ev.a != kBreakerOpen) {
          ++report.breaker_opens;
          open_since.emplace(ev.tag, ev.at);
        } else if (ev.a == kBreakerOpen && ev.b != kBreakerOpen) {
          ++report.breaker_reprobes;
          open_since.erase(ev.tag);
        }
        break;
      }
      case SpanKind::kGossipDelta: {
        ++report.gossip_deltas;
        report.gossip_delta_blobs += static_cast<std::uint64_t>(ev.a);
        // A delta exchange is only emitted when it carries something —
        // blobs (a) or registrations (b). An empty one means the planner
        // computed a bogus want-list or the codec dropped the payload.
        if (ev.a <= 0 && ev.b <= 0) {
          std::ostringstream os;
          os << "empty gossip delta at t=" << ev.at << " on "
             << rec.tag_name(ev.tag) << ": anti-entropy sent nothing";
          report.violations.push_back(os.str());
        }
        break;
      }
      case SpanKind::kChaosFault: {
        ++report.chaos_faults;
        const std::string host = rec.tag_name(ev.tag);
        if (ev.a == kFaultCrash) {
          crashes[host].push_back(ev.at);
        } else if (ev.a == kFaultRestart) {
          restarts[host].push_back(ev.at);
        }
        if (ev.a == kFaultCrash || ev.a == kFaultRestart) {
          // A crash or restart starts a new incarnation for every component
          // on that host: its clique member legitimately restarts at a
          // lower generation.
          for (auto& [tag, gen] : last_gen) {
            if (host_of(rec.tag_name(tag)) == host) gen = -1;
          }
        }
        break;
      }
      default:
        break;
    }
  }

  // Final sweep: every issued-and-never-reclaimed unit must be explained.
  for (const auto& [key, u] : units) {
    if (u.reclaimed) continue;
    const std::uint64_t unit_id = key.second;
    if (opts.live_units.count(unit_id) != 0) continue;
    const std::string sched = rec.tag_name(key.first);
    const std::string host = host_of(sched);
    // Did the issuing scheduler's host crash after the unit went out?
    std::int64_t crash_at = -1;
    auto cit = crashes.find(host);
    if (cit != crashes.end()) {
      for (auto t : cit->second) {
        if (t >= u.last_issued_at) { crash_at = t; break; }
      }
    }
    if (crash_at < 0) {
      ++report.units_lost;
      std::ostringstream os;
      os << "work unit " << unit_id << " issued by " << sched << " at t="
         << u.last_issued_at << " was never reclaimed, is not live, and the "
         << "scheduler never crashed: permanently lost";
      report.violations.push_back(os.str());
      continue;
    }
    // Crashed: forgiven if the host restarted afterwards (the recovery path
    // will re-issue it) or the crash landed inside the end-of-trace grace.
    bool restarted_after = false;
    auto rit = restarts.find(host);
    if (rit != restarts.end()) {
      for (auto t : rit->second) {
        if (t >= crash_at) { restarted_after = true; break; }
      }
    }
    if (restarted_after || crash_at >= end - opts.crash_grace_us) continue;
    ++report.units_lost;
    std::ostringstream os;
    os << "work unit " << unit_id << " issued by " << sched
       << " was in flight when " << host << " crashed at t=" << crash_at
       << " and the scheduler never restarted: permanently lost";
    report.violations.push_back(os.str());
  }

  // Every breaker still open at the end must have opened recently enough
  // that its cooldown simply had not elapsed yet.
  for (const auto& [tag, at] : open_since) {
    if (at >= end - kBreakerGraceUs) continue;
    std::ostringstream os;
    os << "circuit breaker for " << rec.tag_name(tag) << " opened at t=" << at
       << " and never probed (trace ends at t=" << end << ")";
    report.violations.push_back(os.str());
  }

  return report;
}

}  // namespace ew::obs
