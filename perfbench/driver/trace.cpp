#include "driver/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "driver/stats.hpp"

namespace perfbench {

std::int64_t self_time(Interval parent, std::span<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  std::int64_t covered = 0;
  std::int64_t run_start = 0, run_end = 0;
  bool open = false;
  for (const Interval& c : children) {
    const std::int64_t s = std::max(c.start, parent.start);
    const std::int64_t e = std::min(c.end, parent.end);
    if (s >= e) continue;
    if (open && s <= run_end) {
      run_end = std::max(run_end, e);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = s;
    run_end = e;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return (parent.end - parent.start) - covered;
}

namespace {

struct Span {
  std::uint32_t name;
  std::uint32_t parent;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint64_t call_id;
};

struct ThreadBuffer {
  std::vector<Span> spans;
  std::vector<std::uint32_t> open;  // stack of open span indices
};

struct State {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::vector<std::string> names;
  std::unordered_map<std::string, std::uint32_t> ids;
  std::atomic<bool> enabled{false};
};

State& state() {
  static State* s = new State;  // outlives every thread that records
  return *s;
}

thread_local ThreadBuffer* tls_buffer = nullptr;

ThreadBuffer& buffer() {
  if (tls_buffer == nullptr) {
    State& s = state();
    std::lock_guard lock(s.mu);
    s.buffers.push_back(std::make_unique<ThreadBuffer>());
    tls_buffer = s.buffers.back().get();
    tls_buffer->spans.reserve(1 << 16);
  }
  return *tls_buffer;
}

}  // namespace

std::uint32_t Tracer::intern(std::string_view name) {
  State& s = state();
  std::lock_guard lock(s.mu);
  auto [it, inserted] =
      s.ids.emplace(std::string(name), static_cast<std::uint32_t>(s.names.size()));
  if (inserted) s.names.emplace_back(name);
  return it->second;
}

void Tracer::set_enabled(bool on) {
  state().enabled.store(on, std::memory_order_relaxed);
}

bool Tracer::enabled() { return state().enabled.load(std::memory_order_relaxed); }

std::uint32_t Tracer::begin(std::uint32_t name, std::uint64_t call_id) {
  ThreadBuffer& b = buffer();
  const auto idx = static_cast<std::uint32_t>(b.spans.size());
  const std::uint32_t parent = b.open.empty() ? kNone : b.open.back();
  b.spans.push_back(Span{name, parent, now_ns(), 0, call_id});
  b.open.push_back(idx);
  return idx;
}

void Tracer::end(std::uint32_t handle) {
  ThreadBuffer& b = buffer();
  b.spans[handle].end_ns = now_ns();
  if (!b.open.empty() && b.open.back() == handle) b.open.pop_back();
}

std::vector<SpanStats> Tracer::summarize() {
  State& s = state();
  std::lock_guard lock(s.mu);
  std::vector<SpanStats> out(s.names.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i].name = s.names[i];
  std::vector<std::uint32_t> first;  // CSR offsets of each span's children
  std::vector<Interval> kids;
  for (const auto& b : s.buffers) {
    const auto& spans = b->spans;
    first.assign(spans.size() + 1, 0);
    for (const Span& sp : spans) {
      if (sp.parent != kNone) ++first[sp.parent + 1];
    }
    for (std::size_t i = 0; i < spans.size(); ++i) first[i + 1] += first[i];
    kids.assign(first.back(), Interval{});
    std::vector<std::uint32_t> fill(first.begin(), first.end() - 1);
    for (const Span& sp : spans) {
      if (sp.parent != kNone) kids[fill[sp.parent]++] = {sp.start_ns, sp.end_ns};
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& sp = spans[i];
      if (sp.end_ns == 0) continue;  // never closed
      SpanStats& st = out[sp.name];
      ++st.count;
      st.total_ns += sp.end_ns - sp.start_ns;
      st.self_ns += self_time({sp.start_ns, sp.end_ns},
                              std::span(kids).subspan(first[i], first[i + 1] - first[i]));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SpanStats& a, const SpanStats& b) { return a.name < b.name; });
  return out;
}

std::uint64_t Tracer::span_count() {
  State& s = state();
  std::lock_guard lock(s.mu);
  std::uint64_t n = 0;
  for (const auto& b : s.buffers) n += b->spans.size();
  return n;
}

bool Tracer::write_csv(const std::string& path) {
  State& s = state();
  std::lock_guard lock(s.mu);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread,index,parent,name,start_ns,end_ns,call_id\n");
  for (std::size_t t = 0; t < s.buffers.size(); ++t) {
    const auto& spans = s.buffers[t]->spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& sp = spans[i];
      std::fprintf(f, "%zu,%zu,%lld,%s,%lld,%lld,%llu\n", t, i,
                   sp.parent == kNone ? -1LL : static_cast<long long>(sp.parent),
                   s.names[sp.name].c_str(), static_cast<long long>(sp.start_ns),
                   static_cast<long long>(sp.end_ns),
                   static_cast<unsigned long long>(sp.call_id));
    }
  }
  return std::fclose(f) == 0;
}

void Tracer::clear() {
  State& s = state();
  std::lock_guard lock(s.mu);
  for (auto& b : s.buffers) {
    b->spans.clear();
    b->open.clear();
  }
}

SpanStats find_stats(const std::vector<SpanStats>& all, std::string_view name) {
  for (const SpanStats& s : all) {
    if (s.name == name) return s;
  }
  return SpanStats{std::string(name)};
}

double mean_ns(const SpanStats& s, bool self) {
  if (s.count == 0) return 0;
  return static_cast<double>(self ? s.self_ns : s.total_ns) / static_cast<double>(s.count);
}

SpanStats sum_prefix(const std::vector<SpanStats>& all, std::string_view prefix) {
  SpanStats sum{std::string(prefix)};
  for (const SpanStats& s : all) {
    if (s.name.compare(0, prefix.size(), prefix) != 0) continue;
    sum.count += s.count;
    sum.total_ns += s.total_ns;
    sum.self_ns += s.self_ns;
  }
  return sum;
}

}  // namespace perfbench
