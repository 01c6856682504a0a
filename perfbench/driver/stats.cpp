#include "driver/stats.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  p = std::clamp(p, 0.0, 1.0);
  const double rank = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

namespace {
constexpr std::int64_t kBinNs = 100;
constexpr std::size_t kBins = 100'000;  // 10 ms
}  // namespace

LatencyHistogram::LatencyHistogram() : bins_(kBins, 0) {}

void LatencyHistogram::add_ns(std::int64_t ns) {
  ++count_;
  const auto bin = static_cast<std::size_t>(std::max<std::int64_t>(ns, 0) / kBinNs);
  if (bin < kBins) {
    ++bins_[bin];
  } else {
    over_us_.push_back(static_cast<double>(ns) / 1000.0);
    over_sorted_ = false;
  }
}

void LatencyHistogram::clear() {
  std::fill(bins_.begin(), bins_.end(), 0);
  over_us_.clear();
  over_sorted_ = true;
  count_ = 0;
}

double LatencyHistogram::kth_us(std::uint64_t k) const {
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBins; ++b) {
    const std::uint64_t n = bins_[b];
    if (k < seen + n) {
      const double within = (static_cast<double>(k - seen) + 0.5) / static_cast<double>(n);
      return (static_cast<double>(b) + within) * static_cast<double>(kBinNs) / 1000.0;
    }
    seen += n;
  }
  if (!over_sorted_) {
    std::sort(over_us_.begin(), over_us_.end());
    over_sorted_ = true;
  }
  return over_us_[std::min<std::size_t>(k - seen, over_us_.size() - 1)];
}

double LatencyHistogram::percentile_us(double p) const {
  if (count_ == 0) return 0;
  const double rank = std::clamp(p, 0.0, 1.0) * static_cast<double>(count_ - 1);
  const auto lo = static_cast<std::uint64_t>(rank);
  const double a = kth_us(lo);
  if (lo + 1 >= count_) return a;
  return a + (kth_us(lo + 1) - a) * (rank - static_cast<double>(lo));
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

CpuSample sample(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return {seconds(ru.ru_utime), seconds(ru.ru_stime), ru.ru_nvcsw};
}

}  // namespace

CpuSample process_cpu() { return sample(RUSAGE_SELF); }
CpuSample thread_cpu() { return sample(RUSAGE_THREAD); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::int64_t current_rss_bytes() {
  long pages = 0, resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<std::int64_t>(resident) * sysconf(_SC_PAGESIZE);
}

}  // namespace perfbench
