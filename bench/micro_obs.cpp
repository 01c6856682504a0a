// Microbenchmark for the observability layer (DESIGN.md §8).
//
// The registry's instruments sit directly on the PR-1-optimized forecast and
// call hot paths, so their cost budget is hard: Histogram::record() must stay
// under 50 ns and the steady-state record paths (counter inc, histogram
// record, trace-span record, disabled-trace check) must not allocate. This
// harness times each path and *gates* on both budgets — the time gate only at
// full size so a loaded CI box cannot flake the --quick smoke run, the
// zero-allocation gate always (it is deterministic). Emits ONE
// machine-readable JSON line (see EXPERIMENTS.md, "Observability hot-path
// microbenchmark"):
//
//   {"bench":"micro_obs","iters":...,"ns_per_counter_inc":...,
//    "ns_per_hist_record":...,"ns_per_trace_record":...,
//    "ns_per_trace_disabled":...,"record_allocs":...,"checksum":...}
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/rng.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

// Program-wide allocation counter (defined here, replaces the global
// operator new) so the zero-allocation claim is asserted, not assumed.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

int main(int argc, char** argv) {
  using namespace ew;
  using bench::Timed;
  using bench::time_per_op;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::size_t kIters = quick ? 50'000 : 5'000'000;

  // Pre-generated microsecond-scale latencies so the timed loop measures
  // bucketing, not random-number generation.
  Rng rng(42);
  std::vector<std::uint64_t> lat(quick ? 4'096 : 65'536);
  for (auto& v : lat) {
    v = static_cast<std::uint64_t>(rng.uniform(0, 2'000'000));
  }
  const std::size_t mask = lat.size() - 1;  // sizes are powers of two

  // Resolve every instrument BEFORE the timed region — registration takes
  // the registry mutex and allocates; the record paths never do.
  obs::Registry reg;
  obs::Counter& ctr = reg.counter("bench.ops");
  obs::Histogram& hist = reg.histogram("bench.latency_us");
  obs::TraceRecorder enabled_trace;
  enabled_trace.set_enabled(true);
  const std::uint32_t tag = enabled_trace.intern("bench:micro_obs");
  obs::TraceRecorder disabled_trace;  // default: disabled

  const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);

  const Timed ctr_t = time_per_op(kIters, [&](std::size_t i) {
    ctr.inc();
    return static_cast<double>(i & 1);
  });
  const Timed hist_t = time_per_op(kIters, [&](std::size_t i) {
    hist.record(lat[i & mask]);
    return 0.0;
  });
  // Enabled trace: ring overwrite past capacity, still allocation-free.
  const Timed trace_t = time_per_op(kIters, [&](std::size_t i) {
    enabled_trace.record(static_cast<std::int64_t>(i),
                         obs::SpanKind::kCallAttempt, tag, 1, 0);
    return 0.0;
  });
  // Disabled trace: the cost every instrumented call site pays when the
  // recorder is off — must be a relaxed load and nothing else.
  const Timed off_t = time_per_op(kIters, [&](std::size_t i) {
    if (disabled_trace.enabled()) {
      disabled_trace.record(static_cast<std::int64_t>(i),
                            obs::SpanKind::kCallAttempt, tag, 1, 0);
    }
    return 0.0;
  });

  const std::uint64_t record_allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs_before;

  double checksum = ctr_t.checksum + hist_t.checksum + trace_t.checksum +
                    off_t.checksum + static_cast<double>(ctr.value()) +
                    static_cast<double>(hist.count()) +
                    static_cast<double>(enabled_trace.total()) +
                    static_cast<double>(disabled_trace.total());

  bench::JsonWriter line;
  line.u64("iters", kIters)
      .f("ns_per_counter_inc", ctr_t.ns_per_op, 2)
      .f("ns_per_hist_record", hist_t.ns_per_op, 2)
      .f("ns_per_trace_record", trace_t.ns_per_op, 2)
      .f("ns_per_trace_disabled", off_t.ns_per_op, 2)
      .u64("record_allocs", record_allocs)
      .g("checksum", checksum);
  bench::emit_json("micro_obs", line);

  bool ok = true;
  if (record_allocs != 0) {
    std::fprintf(stderr,
                 "micro_obs: %llu allocations during steady-state record "
                 "(budget: 0)\n",
                 static_cast<unsigned long long>(record_allocs));
    ok = false;
  }
  if (!quick && hist_t.ns_per_op >= 50.0) {
    std::fprintf(stderr,
                 "micro_obs: histogram record %.2f ns/op (budget: <50 ns)\n",
                 hist_t.ns_per_op);
    ok = false;
  }
  return ok ? 0 : 1;
}
