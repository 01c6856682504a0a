// In-memory span tracer for the traced run.
//
// The benchmark times calls into each layer from its own code: a Scope
// opens a span on entry and closes it on exit. Spans carry a name, start,
// end, parent (the span open on the same thread when it began) and a call
// id; they stay in per-thread buffers until the run ends, when they are
// summarized by name and written out as CSV. A layer's self time is its
// span minus the part of that interval its child spans cover.
//
// Recording is lock-free per thread (each thread appends to its own
// buffer); interning names, summarizing and writing take a global lock and
// must only run while no thread is recording.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Interval {
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Length of `parent` not covered by the union of `children`, each child
/// clipped to the parent. Overlapping children count once. Reorders
/// `children`.
std::int64_t self_time(Interval parent, std::span<Interval> children);

struct SpanStats {
  std::string name;
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

class Tracer {
 public:
  static constexpr std::uint32_t kNone = ~0u;

  /// Name id for `name`; the same name always gets the same id.
  static std::uint32_t intern(std::string_view name);
  static void set_enabled(bool on);
  [[nodiscard]] static bool enabled();

  /// Open a span on the calling thread; returns its handle for end().
  static std::uint32_t begin(std::uint32_t name, std::uint64_t call_id);
  static void end(std::uint32_t handle);

  /// Per-name totals over every recorded span, sorted by name.
  static std::vector<SpanStats> summarize();
  [[nodiscard]] static std::uint64_t span_count();
  /// One line per span: thread,index,parent,name,start_ns,end_ns,call_id.
  static bool write_csv(const std::string& path);
  /// Drop every recorded span.
  static void clear();
};

/// RAII span; a no-op while the tracer is disabled.
class Scope {
 public:
  explicit Scope(std::uint32_t name, std::uint64_t call_id = 0)
      : handle_(Tracer::enabled() ? Tracer::begin(name, call_id) : Tracer::kNone) {}
  ~Scope() {
    if (handle_ != Tracer::kNone) Tracer::end(handle_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::uint32_t handle_;
};

/// Look up one name in a summary (zeroed stats when absent).
SpanStats find_stats(const std::vector<SpanStats>& all, std::string_view name);
/// Mean span (self time when `self`) in ns; 0 when the span never ran.
double mean_ns(const SpanStats& s, bool self);
/// Sum of every summary entry whose name starts with `prefix`.
SpanStats sum_prefix(const std::vector<SpanStats>& all, std::string_view prefix);

}  // namespace perfbench
