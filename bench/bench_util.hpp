// Shared helpers for the figure-reproduction harnesses.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "app/scenario.hpp"

namespace ew::bench {

/// Builder for the ONE machine-readable JSON line each bench emits (see
/// EXPERIMENTS.md). Fields render in insertion order so a bench's line is
/// stable across runs; raw() splices an already-rendered JSON value (a
/// nested object or array — usually another JsonWriter, or a document such
/// as obs::snapshot_json()). Keys are trusted literals; string *values* get
/// quote/backslash escaping.
class JsonWriter {
 public:
  JsonWriter& u64(std::string_view key, std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
    return append(key, buf);
  }
  /// Fixed-point double — the common case for rates and seconds.
  JsonWriter& f(std::string_view key, double v, int precision = 3) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return append(key, buf);
  }
  /// Shortest-form double (%g) for checksums and wide-range values.
  JsonWriter& g(std::string_view key, double v) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return append(key, buf);
  }
  JsonWriter& str(std::string_view key, std::string_view v) {
    std::string quoted;
    quoted.reserve(v.size() + 2);
    quoted.push_back('"');
    for (char c : v) {
      if (c == '"' || c == '\\') quoted.push_back('\\');
      quoted.push_back(c);
    }
    quoted.push_back('"');
    return append(key, quoted);
  }
  JsonWriter& raw(std::string_view key, std::string_view json) {
    return append(key, json);
  }
  /// Append every field of another writer (used by emit_json).
  JsonWriter& merge(const JsonWriter& other) {
    if (other.body_.empty()) return *this;
    if (!body_.empty()) body_.push_back(',');
    body_ += other.body_;
    return *this;
  }

  [[nodiscard]] std::string object() const { return "{" + body_ + "}"; }

 private:
  JsonWriter& append(std::string_view key, std::string_view value) {
    if (!body_.empty()) body_.push_back(',');
    body_.push_back('"');
    body_.append(key);
    body_ += "\":";
    body_.append(value);
    return *this;
  }

  std::string body_;
};

/// Join pre-rendered JSON values into an array.
inline std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out.push_back(',');
    out += items[i];
  }
  out.push_back(']');
  return out;
}

/// Print a bench's single JSON line: {"bench":"<name>",<fields...>}\n.
/// Every harness emits through here so the line shape cannot drift.
inline void emit_json(std::string_view name, const JsonWriter& fields) {
  JsonWriter line;
  line.str("bench", name).merge(fields);
  std::printf("%s\n", line.object().c_str());
}

/// Monotonic wall clock in ns, for the microbenchmarks' timed loops.
inline double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Timed {
  double ns_per_op;
  double checksum;  // defeats dead-code elimination; reported in the JSON
};

/// Run `op(i)` for i in [0, iters) and report ns per call plus the sum of
/// its results.
template <typename F>
Timed time_per_op(std::size_t iters, F&& op) {
  double sink = 0.0;
  const double t0 = now_ns();
  for (std::size_t i = 0; i < iters; ++i) sink += op(i);
  const double t1 = now_ns();
  return {(t1 - t0) / static_cast<double>(iters), sink};
}

/// Floor nearest-rank percentile: the sample at index floor(p * (n - 1))
/// of the sorted samples, found with nth_element over a copy. 0 for no
/// samples.
template <typename T>
T percentile(std::vector<T> v, double p) {
  if (v.empty()) return T{};
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

/// Wall-clock label for a recording-window offset (t=0 is 23:36:56 PST).
inline std::string pst_label(Duration offset_from_record_start) {
  const std::int64_t base = 23 * 3600 + 36 * 60 + 56;
  const std::int64_t s = (base + offset_from_record_start / kSecond) % 86400;
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%02lld:%02lld:%02lld",
                static_cast<long long>(s / 3600),
                static_cast<long long>((s / 60) % 60),
                static_cast<long long>(s % 60));
  return buf;
}

inline double series_max(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

inline double series_mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

inline double window_min(const std::vector<double>& v, std::size_t from,
                         std::size_t count) {
  double m = 1e300;
  for (std::size_t i = from; i < std::min(from + count, v.size()); ++i) {
    m = std::min(m, v[i]);
  }
  return m;
}

inline double window_max(const std::vector<double>& v, std::size_t from,
                         std::size_t count) {
  double m = 0;
  for (std::size_t i = from; i < std::min(from + count, v.size()); ++i) {
    m = std::max(m, v[i]);
  }
  return m;
}

inline double coefficient_of_variation(const std::vector<double>& v) {
  RunningStats s;
  for (double x : v) s.add(x);
  return s.cv();
}

/// "who wins / by what factor" line for EXPERIMENTS.md.
inline void print_shape_check(const char* label, double measured, double paper) {
  const double ratio = paper > 0 ? measured / paper : 0.0;
  std::printf("  %-28s measured %10.3g   paper %10.3g   ratio %5.2f\n", label,
              measured, paper, ratio);
}

}  // namespace ew::bench
