// The interface between main.cpp and the three workloads.
//
// One process runs one measurement: for rpc_bulk that is the whole run (its
// set-ups, the untimed ramp, the measured window, and with tracing on a
// second, traced world); for the sims it is one seeded episode, traced or
// not. The process prints one JSON object; perfbench/run.py runs the
// processes, checks them, and composes the benchmark's metrics.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;   // rpc_bulk: time budget of this process; the sims
                         // run one fixed episode and ignore it
  bool trace = false;
  std::string trace_out; // CSV path for the spans, when tracing
};

/// Ordered JSON object for the process's one result line.
class Report {
 public:
  Report& num(const std::string& key, double v);
  Report& integer(const std::string& key, std::uint64_t v);
  Report& flag(const std::string& key, bool v);
  Report& str(const std::string& key, const std::string& v);
  Report& list(const std::string& key, const std::vector<double>& v);
  Report& raw(const std::string& key, const std::string& json);
  [[nodiscard]] std::string json() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Outcome of the output checks a workload makes.
struct Checks {
  std::uint64_t attempted = 0;  // outputs checked
  std::uint64_t failed = 0;     // outputs that were wrong
  void expect(bool ok, std::uint64_t n = 1) {
    attempted += n;
    if (!ok) failed += n;
  }
};

/// ns per encode_packet and per FrameParser feed + next_view over frames
/// with the given payload sizes (request frames, seeded payload bytes).
/// Each figure is the median of several passes.
struct WireCost {
  double encode_ns = 0;
  double parse_ns = 0;
};
WireCost measure_wire(const std::vector<std::size_t>& payload_sizes,
                      std::uint64_t seed);

/// Each returns 0 when every output check passed, 1 when one failed, and
/// 2 when the world could not be built.
int run_rpc(const Options& opts, Report& out);
int run_gossip(const Options& opts, Report& out);
int run_sched(const Options& opts, Report& out);

}  // namespace perfbench
