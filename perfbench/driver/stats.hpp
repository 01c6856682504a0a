// Small measurement helpers shared by every workload: percentiles, clocks,
// and the process/thread resource counters the metrics are built from.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Percentile `p` in [0, 1] by linear interpolation between the two
/// closest ranks (the "type 7" estimator: p = 0 is the minimum, p = 1 the
/// maximum, p = 0.5 the usual median). Returns 0 for an empty vector.
/// Reorders `v`.
double percentile(std::vector<double>& v, double p);

/// Latency distribution in fixed 0.1 us bins up to 10 ms (values above are
/// kept exactly), so a long window costs constant memory. percentile_us()
/// uses the same estimator as percentile(), spreading each bin's samples
/// evenly across the bin.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void add_ns(std::int64_t ns);
  void clear();
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double percentile_us(double p) const;

 private:
  /// The k-th smallest sample (0-based), in microseconds.
  [[nodiscard]] double kth_us(std::uint64_t k) const;

  std::vector<std::uint64_t> bins_;
  mutable std::vector<double> over_us_;
  mutable bool over_sorted_ = true;
  std::uint64_t count_ = 0;
};

/// Monotonic wall clock in nanoseconds.
std::int64_t now_ns();

/// CPU and scheduling counters of one thread or of the whole process.
struct CpuSample {
  double user_s = 0;
  double sys_s = 0;
  std::int64_t voluntary_switches = 0;

  CpuSample operator-(const CpuSample& o) const {
    return {user_s - o.user_s, sys_s - o.sys_s,
            voluntary_switches - o.voluntary_switches};
  }
};

CpuSample process_cpu();
/// The calling thread's counters (getrusage(RUSAGE_THREAD)).
CpuSample thread_cpu();

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();
/// Current resident set size of this process, in bytes.
std::int64_t current_rss_bytes();

}  // namespace perfbench
