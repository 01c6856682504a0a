// rpc_bulk: closed-loop 4 KiB echo over loopback TCP.
//
// One server Node and four client Nodes (four connections) share one
// reactor, driven by the benchmark's own thread; each client keeps four
// calls in flight; the seed picks the payload bytes. Every echo is compared byte for byte with the payload
// its call sent (the call id is stamped into the first eight bytes), and
// every call must complete exactly once.
//
// One thread on purpose: with the server and the clients on two reactor
// threads every call is two cross-thread wakeups, and on a shared host the
// scheduler's wakeup latency moved calls_per_s by half its median from run
// to run. On one thread the loop never sleeps while calls are in flight
// (loopback data is readable as soon as the peer's send returns), so the
// wall-clock figures follow the CPU cost of the socket path and the call
// layer. Placement is fixed: no SO_REUSEPORT, no second thread.
//
// Each world (the measured one, the set-up cycles, the traced one) owns its
// reactor and is built and torn down on the benchmark's thread.
#include <cstring>
#include <functional>
#include <memory>

#include "common/rng.hpp"
#include "driver/stats.hpp"
#include "driver/trace.hpp"
#include "driver/traced_transport.hpp"
#include "driver/workload.hpp"
#include "net/node.hpp"
#include "net/reactor.hpp"
#include "net/tcp.hpp"
#include "net/tcp_transport.hpp"
#include "obs/registry.hpp"

namespace perfbench {
namespace {

constexpr ew::MsgType kEcho = 0x77;
constexpr std::size_t kPayloadBytes = 4096;  // each way; at least 8 (the call id)
constexpr std::size_t kClients = 4;
constexpr std::size_t kDepth = 4;         // calls in flight per client
constexpr std::uint64_t kBlockCalls = 8192;  // calls per wall_s block
// The untraced window runs in kSegments parts; after each, with the loop
// drained, kSetupCycles worlds are built and torn down, timed for setup_s
// (one takes about half a millisecond), so set-ups sample the whole run.
constexpr int kSegments = 8;
constexpr int kSetupCycles = 25;

struct Slot {
  bool pending = false;
  std::uint64_t call_id = 0;
  std::int64_t issued_ns = 0;
};

struct Client {
  std::unique_ptr<ew::TcpTransport> tcp;
  std::unique_ptr<TracedTransport> traced;
  std::unique_ptr<ew::Node> node;
  ew::Bytes base;  // seeded payload; bytes 0..7 carry the call id
  Slot slots[kDepth];
};

struct Tally {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t wrong_echoes = 0;
};

class World {
 public:
  World(std::uint64_t seed, bool traced) : seed_(seed), traced_(traced) {}

  ~World() { teardown(); }

  /// Start the nodes, dial every connection and wait for one warm call per
  /// client. Returns false if the world could not be built.
  bool build() {
    std::uint16_t ports[kClients + 1];
    {
      std::vector<ew::Fd> held;
      for (auto& port : ports) {
        auto l = ew::tcp_listen(0);
        if (!l) return false;
        port = *ew::local_port(*l);
        held.push_back(std::move(*l));
      }
    }
    server_ep_ = ew::Endpoint{"127.0.0.1", ports[kClients]};
    auto role = [](const ew::Endpoint&) { return std::string("call.dispatch"); };

    built_ = true;  // from here on, teardown() has something to undo
    server_tcp_ = std::make_unique<ew::TcpTransport>(reactor_);
    ew::Transport* server_t = server_tcp_.get();
    if (traced_) {
      server_traced_ = std::make_unique<TracedTransport>(*server_tcp_, role);
      server_t = server_traced_.get();
    }
    server_ = std::make_unique<ew::Node>(reactor_, *server_t, server_ep_);
    if (!server_->start().ok()) return false;
    const std::uint32_t echo_name = Tracer::intern("handler.echo");
    server_->handle(kEcho, [echo_name](const ew::IncomingMessage& m, ew::Responder r) {
      Scope span(echo_name, m.packet.seq);
      r.ok(m.packet.payload);
    });

    ew::Rng rng(seed_);
    for (std::size_t i = 0; i < kClients; ++i) {
      Client& c = clients_[i];
      c.tcp = std::make_unique<ew::TcpTransport>(reactor_);
      ew::Transport* t = c.tcp.get();
      if (traced_) {
        c.traced = std::make_unique<TracedTransport>(*c.tcp, role);
        t = c.traced.get();
      }
      c.node = std::make_unique<ew::Node>(reactor_, *t, ew::Endpoint{"127.0.0.1", ports[i]});
      if (!c.node->start().ok()) return false;
      c.base.resize(kPayloadBytes);
      for (auto& b : c.base) b = static_cast<std::uint8_t>(rng.next_u64());
    }
    for (std::size_t i = 0; i < kClients; ++i) issue(i, 0);
    drain();
    return tally_.failed == 0 && tally_.wrong_echoes == 0;
  }

  /// Fill every client to kDepth calls in flight and keep it there while
  /// the reactor runs.
  void start_loop() {
    looping_ = true;
    for (std::size_t i = 0; i < kClients; ++i) {
      for (std::size_t s = 0; s < kDepth; ++s) {
        if (!clients_[i].slots[s].pending) issue(i, s);
      }
    }
  }

  /// Run the reactor for `d` (calls in flight keep the loop busy).
  void run_for(ew::Duration d) { reactor_.run_for(d); }

  /// Trade the latency histogram for `h` (the next slice's, cleared).
  void swap_latencies(LatencyHistogram& h) { std::swap(latencies_, h); }

  /// Start or stop recording latencies and block times.
  void set_recording(bool on) { recording_ = on; }

  const Tally& tally() const { return tally_; }

  /// Stop issuing and run the reactor until every call in flight has
  /// resolved (each does: a call fails at its 30 s time-out at worst).
  void drain() {
    looping_ = false;
    if (in_flight_ > 0) reactor_.run();
  }

  const std::vector<std::int64_t>& block_ends() const { return block_ends_ns_; }

  void teardown() {
    if (!built_) return;
    for (Client& c : clients_) {
      c.node.reset();
      c.traced.reset();
      c.tcp.reset();
    }
    server_.reset();
    server_traced_.reset();
    server_tcp_.reset();
    built_ = false;
  }

 private:
  void issue(std::size_t client, std::size_t slot) {
    static const std::uint32_t issue_name = Tracer::intern("call.issue");
    static const std::uint32_t callback_name = Tracer::intern("driver.callback");
    Client& c = clients_[client];
    Slot& s = c.slots[slot];
    const std::uint64_t id = ++next_call_id_;
    s.pending = true;
    s.call_id = id;
    ++tally_.issued;
    ++in_flight_;
    ew::Bytes payload = c.base;
    std::memcpy(payload.data(), &id, sizeof(id));
    s.issued_ns = now_ns();
    Scope span(issue_name, id);
    c.node->call(server_ep_, kEcho, std::move(payload), ew::CallOptions::fixed(30 * ew::kSecond),
                 [this, client, slot, id](ew::Result<ew::Bytes> res) {
                   Scope cb_span(callback_name, id);
                   on_reply(client, slot, id, res);
                 });
  }

  void on_reply(std::size_t client, std::size_t slot, std::uint64_t id,
                const ew::Result<ew::Bytes>& res) {
    Client& c = clients_[client];
    Slot& s = c.slots[slot];
    if (!s.pending || s.call_id != id) {
      ++tally_.duplicates;
      return;
    }
    s.pending = false;
    --in_flight_;
    const std::int64_t now = now_ns();
    if (!res.ok()) {
      ++tally_.failed;
    } else if (!echo_matches(c, id, *res)) {
      ++tally_.wrong_echoes;
    } else {
      ++tally_.completed;
      if (recording_) {
        latencies_.add_ns(now - s.issued_ns);
        if (++recorded_ % kBlockCalls == 0) block_ends_ns_.push_back(now);
      }
    }
    if (looping_) {
      issue(client, slot);
    } else if (in_flight_ == 0) {
      reactor_.stop();  // drain() is waiting for this
    }
  }

  bool echo_matches(const Client& c, std::uint64_t id, const ew::Bytes& got) const {
    if (got.size() != kPayloadBytes) return false;
    return std::memcmp(got.data(), &id, sizeof(id)) == 0 &&
           std::memcmp(got.data() + sizeof(id), c.base.data() + sizeof(id),
                       kPayloadBytes - sizeof(id)) == 0;
  }

  std::uint64_t seed_;
  bool traced_;
  ew::Reactor reactor_;  // declared first: outlives the transports and nodes
  bool built_ = false;
  ew::Endpoint server_ep_;
  std::unique_ptr<ew::TcpTransport> server_tcp_;
  std::unique_ptr<TracedTransport> server_traced_;
  std::unique_ptr<ew::Node> server_;
  Client clients_[kClients];
  bool looping_ = false;
  bool recording_ = false;
  std::uint64_t next_call_id_ = 0;
  std::uint64_t in_flight_ = 0;
  std::uint64_t recorded_ = 0;
  Tally tally_;
  LatencyHistogram latencies_;
  std::vector<std::int64_t> block_ends_ns_;
};

/// What the measured window of a world produced. The window is cut into
/// half-second slices; the rates, CPU per call and latency percentiles are
/// medians over the slices, so a burst of noise moves one slice, not the
/// figure. wall_s is the median over the blocks of kBlockCalls calls that
/// fall wholly inside one segment of the window.
struct Window {
  double seconds = 0;
  std::uint64_t calls = 0;
  CpuSample reactor;  // the reactor thread's, summed over the segments
  std::uint64_t latency_samples = 0;
  int stalled_slices = 0;  // slices in which no call completed
  std::vector<double> rates, cpu_us, p50_us, p90_us;  // one per slice
  std::vector<double> block_s;
};

/// One segment of a window: ramp the loop up, record `seconds` of slices
/// into `win`, stop recording. The calls stay in flight until drained.
void measure_segment(World& w, double seconds, Window& win) {
  constexpr std::int64_t kSliceNs = 500'000'000;
  w.start_loop();
  w.run_for(100 * ew::kMillisecond);  // ramp
  w.set_recording(true);
  LatencyHistogram slice_latencies;
  w.swap_latencies(slice_latencies);
  slice_latencies.clear();
  const Tally t0 = w.tally();
  Tally t_prev = t0;
  CpuSample p_prev = process_cpu();
  const CpuSample r0 = thread_cpu();
  const std::int64_t start = now_ns();
  std::int64_t prev = start;
  const int slices = std::max(1, static_cast<int>(seconds * 1e9 / kSliceNs + 0.5));
  for (int i = 1; i <= slices; ++i) {
    const std::int64_t left = start + i * kSliceNs - now_ns();
    if (left > 0) w.run_for(left / 1000);
    const Tally t = w.tally();
    const CpuSample p = process_cpu();
    const std::int64_t now = now_ns();
    w.swap_latencies(slice_latencies);
    const auto calls = static_cast<double>(t.completed - t_prev.completed);
    win.rates.push_back(calls / (static_cast<double>(now - prev) * 1e-9));
    if (calls == 0) {
      ++win.stalled_slices;  // a stall counts as a zero rate, and has no per-call figures
    } else {
      const CpuSample used = p - p_prev;
      win.cpu_us.push_back((used.user_s + used.sys_s) * 1e6 / calls);
      win.p50_us.push_back(slice_latencies.percentile_us(0.50));
      win.p90_us.push_back(slice_latencies.percentile_us(0.90));
    }
    win.latency_samples += slice_latencies.count();
    slice_latencies.clear();
    t_prev = t;
    p_prev = p;
    prev = now;
  }
  w.set_recording(false);
  const CpuSample reactor = thread_cpu() - r0;
  win.reactor.user_s += reactor.user_s;
  win.reactor.sys_s += reactor.sys_s;
  win.reactor.voluntary_switches += reactor.voluntary_switches;
  const std::int64_t end = prev;
  win.seconds += static_cast<double>(end - start) * 1e-9;
  win.calls += t_prev.completed - t0.completed;
  // The first block ending in the segment began before it: skip it.
  std::int64_t last = 0;
  for (std::int64_t e : w.block_ends()) {
    if (e > end) break;
    if (e > start && last > start) win.block_s.push_back(static_cast<double>(e - last) * 1e-9);
    last = e;
  }
}

/// A window of `seconds` in `segments` equal parts. After each part the
/// loop is drained and `between` runs with the world idle.
Window measure(World& w, double seconds, int segments, const std::function<void()>& between) {
  Window win;
  for (int i = 0; i < segments; ++i) {
    measure_segment(w, seconds / segments, win);
    w.drain();
    between();
  }
  return win;
}

std::uint64_t counter(const char* name) { return ew::obs::registry().counter(name).value(); }

}  // namespace

int run_rpc(const Options& opts, Report& out) {
  namespace n = ew::obs::names;
  const std::int64_t run_start = now_ns();
  Checks checks;
  auto account = [&](World& w) {
    w.drain();
    const Tally t = w.tally();
    const std::uint64_t resolved = t.completed + t.failed + t.wrong_echoes;
    const std::uint64_t lost = t.issued > resolved ? t.issued - resolved : 0;
    checks.attempted += t.issued;
    checks.failed += t.failed + t.wrong_echoes + lost + t.duplicates;
    return t;
  };

  const std::uint64_t started0 = counter(n::kNetCallsStarted);
  const std::uint64_t attempts0 = counter(n::kNetAttempts);
  const std::uint64_t timeouts0 = counter(n::kNetTimeoutsFired);
  const std::uint64_t failed0 = counter(n::kNetCallsFailed);

  // The measured window uses the budget (half of it when a traced world
  // follows), less a margin for teardown and, per segment, the ramp, the
  // drain and the set-ups.
  const double elapsed = static_cast<double>(now_ns() - run_start) * 1e-9;
  double budget = std::max(0.5, opts.seconds - elapsed - 1.0 - kSegments * 0.15);
  if (opts.trace) budget = std::max(0.5, budget / 2);

  // Set-up cost: build the whole world (reactor, ports, nodes, dialled and
  // warm connections) and tear it down again.
  std::vector<double> setup_s;
  bool setups_built = true;
  auto time_setups = [&] {
    for (int i = 0; i < kSetupCycles && setups_built; ++i) {
      const std::int64_t t0 = now_ns();
      World w(opts.seed + setup_s.size() + 1, false);
      setups_built = w.build();
      setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
      account(w);
    }
  };

  World plain(opts.seed, false);
  if (!plain.build()) return 2;
  Window win = measure(plain, budget, kSegments, time_setups);
  if (!setups_built) return 2;
  account(plain);
  plain.teardown();

  const double calls = static_cast<double>(win.calls);
  const double cpu_us_per_call = percentile(win.cpu_us, 0.5);
  Report e2e;
  e2e.num("calls_per_s", percentile(win.rates, 0.5))
      .num("p50_us", percentile(win.p50_us, 0.5))
      .num("p90_us", percentile(win.p90_us, 0.5))
      .num("cpu_us_per_call", cpu_us_per_call)
      .num("wall_s", percentile(win.block_s, 0.5))
      .integer("latency_samples", win.latency_samples)
      .integer("stalled_slices", static_cast<std::uint64_t>(win.stalled_slices))
      .integer("wall_s_blocks", win.block_s.size());

  Report layers;
  if (opts.trace) {
    const WireCost wire = measure_wire({kPayloadBytes}, opts.seed);
    layers.num("wire.encode_ns", wire.encode_ns)
        .num("wire.parse_ns", wire.parse_ns)
        .num("reactor.user_us_per_call", win.reactor.user_s * 1e6 / calls)
        .num("reactor.sys_us_per_call", win.reactor.sys_s * 1e6 / calls)
        .num("reactor.wakeups_per_call",
             static_cast<double>(win.reactor.voluntary_switches) / calls);

    // Traced world: a shorter window, so the spans held in memory stay
    // bounded (about 1.5 s of calls). Spans cover the ramp and the window.
    World traced(opts.seed, true);
    if (!traced.build()) return 2;
    Tracer::set_enabled(true);
    const std::int64_t traced_from = now_ns();
    Window tw = measure(traced, std::min(budget, 1.5), 1, [] {});
    Tracer::set_enabled(false);
    const double traced_ns = static_cast<double>(now_ns() - traced_from);
    account(traced);
    traced.teardown();
    const auto spans = Tracer::summarize();
    const SpanStats callback = find_stats(spans, "driver.callback");
    layers.num("transport.send_ns", mean_ns(find_stats(spans, "transport.send"), false))
        .num("call.issue_self_ns", mean_ns(find_stats(spans, "call.issue"), true))
        .num("call.dispatch_self_ns", mean_ns(find_stats(spans, "call.dispatch"), true))
        .num("handler.echo_ns", mean_ns(find_stats(spans, "handler.echo"), true))
        .num("driver.self_frac", static_cast<double>(callback.self_ns) / traced_ns)
        .num("trace.overhead_frac", percentile(tw.cpu_us, 0.5) / cpu_us_per_call - 1.0)
        .integer("spans", Tracer::span_count());
    if (!opts.trace_out.empty()) Tracer::write_csv(opts.trace_out);
  }

  const std::uint64_t started = counter(n::kNetCallsStarted) - started0;
  layers.num("call.attempts_per_call",
             started ? static_cast<double>(counter(n::kNetAttempts) - attempts0) /
                           static_cast<double>(started)
                     : 0)
      .integer("call.timeouts_fired", counter(n::kNetTimeoutsFired) - timeouts0);

  out.list("setup_s", setup_s)
      .num("peak_rss_mb", peak_rss_mb())
      .num("failed_frac",
           checks.attempted ? static_cast<double>(checks.failed) /
                                  static_cast<double>(checks.attempted)
                            : 0)
      .integer("net_calls_failed", counter(n::kNetCallsFailed) - failed0)
      .integer("attempted", checks.attempted)
      .integer("failed", checks.failed)
      .raw("e2e", e2e.json())
      .raw("layers", layers.json());
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace perfbench
