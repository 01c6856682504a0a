// Shared pieces of the two simulator workloads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "driver/stats.hpp"
#include "driver/trace.hpp"
#include "driver/workload.hpp"
#include "net/transport.hpp"
#include "sim/event_queue.hpp"

namespace perfbench {

/// Advances the event queue like EventQueue::run_for, but one event at a
/// time so each event's wall time lands in a histogram. A marker event at
/// the target time ends each stretch; markers are excluded from events().
class EpisodeClock {
 public:
  explicit EpisodeClock(ew::sim::EventQueue& q) : q_(q) {}

  void run_for(ew::Duration d);
  /// Events the simulated system executed (markers excluded).
  [[nodiscard]] std::uint64_t events() const { return q_.executed() - markers_; }
  [[nodiscard]] const LatencyHistogram& per_event() const { return per_event_; }

 private:
  ew::sim::EventQueue& q_;
  std::uint64_t markers_ = 0;
  LatencyHistogram per_event_;
};

/// Registry counters read at the start of an episode; deltas at the end.
struct NetCounters {
  std::uint64_t started = 0, ok = 0, failed = 0, attempts = 0, timeouts = 0;
  static NetCounters read();
  NetCounters operator-(const NetCounters& o) const {
    return {started - o.started, ok - o.ok, failed - o.failed, attempts - o.attempts,
            timeouts - o.timeouts};
  }
};

/// The end-to-end and always-on per-layer figures every sim episode
/// reports, from its wall time, CPU, registry deltas, event count and
/// event histogram.
void report_episode(const EpisodeClock& clock, std::uint64_t events, double wall_s,
                    const CpuSample& process,
                    const CpuSample& thread, const NetCounters& net, Report& e2e,
                    Report& layers);

/// Traced-only figures: wire cost on the episode's frame sizes, transport
/// send spans, the event core's self time and the benchmark's own share.
/// `episode` is the span covering the episode.
void report_traced_episode(const std::vector<SpanStats>& spans, const SpanStats& episode,
                           std::uint64_t events, const std::vector<std::size_t>& sizes,
                           std::uint64_t seed, Report& layers);

/// After the episode: `calls` 64-byte echo calls, 16 in flight, from a
/// benchmark probe node to a benchmark echo node over the episode's
/// transport and network model. Span names: probe.call.issue,
/// probe.call.dispatch (role of both probe endpoints), handler.echo,
/// probe.callback. Echoes are checked byte for byte into `checks`.
void run_echo_probe(ew::sim::EventQueue& q, ew::Transport& transport, std::size_t calls,
                    Checks& checks);

/// `prefix` followed by `i` in decimal: a simulated host name.
inline std::string host_name(const char* prefix, std::uint64_t i) {
  std::string s(prefix);
  s += std::to_string(i);
  return s;
}

/// The echo probe's endpoints (their deliveries are probe.call.dispatch).
inline bool is_probe_endpoint(const ew::Endpoint& e) { return e.host.rfind("bench-", 0) == 0; }

}  // namespace perfbench
