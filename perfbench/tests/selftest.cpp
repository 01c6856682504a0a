// Self-tests of the benchmark's own machinery. Plain executable: prints one
// line per failed expectation and exits non-zero if there was any.
//
//   python3 perfbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "driver/stats.hpp"
#include "driver/trace.hpp"
#include "driver/traced_transport.hpp"
#include "net/node.hpp"
#include "net/reactor.hpp"
#include "net/tcp.hpp"
#include "net/tcp_transport.hpp"
#include "obs/registry.hpp"
#include "sim/event_queue.hpp"
#include "sim/network_model.hpp"
#include "sim/sim_transport.hpp"

namespace perfbench {
namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest:%d: FAILED: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b, double tol = 1e-9) { return std::fabs(a - b) <= tol; }

void percentile_known_vectors() {
  std::vector<double> empty;
  EXPECT(percentile(empty, 0.5) == 0);
  std::vector<double> one{5};
  EXPECT(percentile(one, 0.0) == 5 && percentile(one, 0.9) == 5);
  std::vector<double> v{4, 1, 3, 2};
  EXPECT(near(percentile(v, 0.0), 1));
  EXPECT(near(percentile(v, 1.0), 4));
  EXPECT(near(percentile(v, 0.5), 2.5));
  EXPECT(near(percentile(v, 0.9), 3.7));
  EXPECT(near(percentile(v, 0.25), 1.75));
  std::vector<double> odd{3, 1, 2};
  EXPECT(near(percentile(odd, 0.5), 2));
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  EXPECT(near(percentile(hundred, 0.5), 50.5));
  EXPECT(near(percentile(hundred, 0.9), 90.1));

  // The histogram agrees with the exact helper to within one 0.1 us bin.
  LatencyHistogram h;
  std::vector<double> exact;
  for (int i = 1; i <= 1000; ++i) {
    h.add_ns(i * 1000 + 250);  // 1.25 us .. 1000.25 us
    exact.push_back(i + 0.25);
  }
  h.add_ns(20'000'000);  // 20 ms: above the binned range, kept exactly
  exact.push_back(20'000);
  EXPECT(h.count() == 1001);
  for (double p : {0.0, 0.5, 0.9, 0.99}) {
    EXPECT(near(h.percentile_us(p), percentile(exact, p), 0.1));
  }
  EXPECT(near(h.percentile_us(1.0), 20'000));
}

void self_time_arithmetic() {
  std::vector<Interval> none;
  EXPECT(self_time({0, 100}, none) == 100);
  std::vector<Interval> disjoint{{50, 60}, {10, 30}};
  EXPECT(self_time({0, 100}, disjoint) == 70);
  // Overlapping children count once; children are clipped to the parent.
  std::vector<Interval> overlap{{10, 30}, {20, 40}, {50, 60}, {90, 120}, {-5, 2}};
  EXPECT(self_time({0, 100}, overlap) == 100 - (30 + 10 + 10 + 2));
  std::vector<Interval> nested{{10, 90}, {20, 30}, {40, 50}};
  EXPECT(self_time({0, 100}, nested) == 20);
  std::vector<Interval> whole{{0, 100}};
  EXPECT(self_time({0, 100}, whole) == 0);
  std::vector<Interval> outside{{100, 200}, {-50, 0}};
  EXPECT(self_time({0, 100}, outside) == 100);

  // The tracer applies the same arithmetic to recorded spans: a parent's
  // self time is its span minus its direct children, not grandchildren.
  Tracer::clear();
  Tracer::set_enabled(true);
  const std::uint32_t a = Tracer::intern("t.parent");
  const std::uint32_t b = Tracer::intern("t.child");
  const std::uint32_t c = Tracer::intern("t.grandchild");
  {
    Scope parent(a);
    for (int i = 0; i < 3; ++i) {
      Scope child(b);
      Scope grandchild(c);
      volatile int spin = 0;
      for (int k = 0; k < 10000; ++k) spin = spin + k;
    }
  }
  Tracer::set_enabled(false);
  const auto stats = Tracer::summarize();
  const SpanStats p = find_stats(stats, "t.parent");
  const SpanStats ch = find_stats(stats, "t.child");
  const SpanStats g = find_stats(stats, "t.grandchild");
  EXPECT(p.count == 1 && ch.count == 3 && g.count == 3);
  EXPECT(p.self_ns == p.total_ns - ch.total_ns);
  EXPECT(ch.self_ns == ch.total_ns - g.total_ns);
  EXPECT(g.self_ns == g.total_ns);
  EXPECT(sum_prefix(stats, "t.").count == 7);
  Tracer::clear();
}

std::uint64_t counter(const char* name) { return ew::obs::registry().counter(name).value(); }

/// Echo `calls` requests of varying sizes through a TracedTransport over
/// `inner`, driving `exec` with `pump` until all complete. Checks every
/// packet arrives unchanged and the wrapper's counts match the registry.
template <typename Pump>
void forwarding_run(ew::Executor& exec, ew::Transport& inner, ew::Endpoint server_ep,
                    ew::Endpoint client_ep, Pump pump, const char* label) {
  namespace n = ew::obs::names;
  constexpr int kCalls = 200;
  TracedTransport traced(inner, [](const ew::Endpoint&) { return std::string("t.deliver"); });
  ew::Node server(exec, traced, server_ep);
  ew::Node client(exec, traced, client_ep);
  EXPECT(server.start().ok() && client.start().ok());
  auto payload_for = [](int i) {
    ew::Bytes b(static_cast<std::size_t>(i * 37 % 5000 + 1));
    for (std::size_t k = 0; k < b.size(); ++k) b[k] = static_cast<std::uint8_t>(i * 31 + k);
    return b;
  };
  int bad_requests = 0, good = 0, bad = 0;
  server.handle(0x77, [&](const ew::IncomingMessage& m, ew::Responder r) {
    // The request's first bytes identify it; its whole content must match.
    int id = 0;
    std::memcpy(&id, m.packet.payload.data(), std::min<std::size_t>(4, m.packet.payload.size()));
    ew::Bytes want = payload_for(id);
    std::memcpy(want.data(), &id, std::min<std::size_t>(4, want.size()));
    if (m.packet.payload != want) ++bad_requests;
    r.ok(m.packet.payload);
  });
  const std::uint64_t started0 = counter(n::kNetCallsStarted);
  const std::uint64_t attempts0 = counter(n::kNetAttempts);
  const std::uint64_t ok0 = counter(n::kNetCallsOk);
  for (int i = 8; i < 8 + kCalls; ++i) {
    ew::Bytes p = payload_for(i);
    std::memcpy(p.data(), &i, std::min<std::size_t>(4, p.size()));
    client.call(server_ep, 0x77, p, ew::CallOptions::fixed(5 * ew::kSecond),
                [&, p](ew::Result<ew::Bytes> r) { (r.ok() && *r == p ? good : bad)++; });
  }
  pump([&] { return good + bad == kCalls; });
  const std::uint64_t started = counter(n::kNetCallsStarted) - started0;
  const std::uint64_t attempts = counter(n::kNetAttempts) - attempts0;
  const std::uint64_t ok = counter(n::kNetCallsOk) - ok0;
  if (good != kCalls || bad != 0 || bad_requests != 0) {
    std::fprintf(stderr, "selftest: %s: good=%d bad=%d bad_requests=%d\n", label, good, bad,
                 bad_requests);
  }
  EXPECT(good == kCalls && bad == 0 && bad_requests == 0);
  EXPECT(started == kCalls && ok == kCalls && attempts == kCalls);
  // Each call is one request out and one response back.
  EXPECT(traced.sends() == attempts + ok);
  EXPECT(traced.delivers() == attempts + ok);
  client.stop();
  server.stop();
}

void forwarding_transport_is_transparent() {
  {
    ew::sim::EventQueue q;
    ew::sim::NetworkModel net{ew::Rng(7)};
    net.set_loss_rate(0.0);
    ew::sim::SimTransport sim(q, net);
    forwarding_run(q, sim, {"srv", 1}, {"cli", 2},
                   [&](auto done) {
                     for (int i = 0; i < 100 && !done(); ++i) q.run_for(ew::kSecond);
                   },
                   "sim");
  }
  {
    ew::Reactor reactor;
    ew::TcpTransport tcp(reactor);
    std::uint16_t ports[2];
    {
      std::vector<ew::Fd> held;
      for (auto& port : ports) {
        auto l = ew::tcp_listen(0);
        EXPECT(l.ok());
        if (!l.ok()) return;
        port = *ew::local_port(*l);
        held.push_back(std::move(*l));
      }
    }
    forwarding_run(reactor, tcp, {"127.0.0.1", ports[0]}, {"127.0.0.1", ports[1]},
                   [&](auto done) {
                     for (int i = 0; i < 500 && !done(); ++i) reactor.run_for(10 * ew::kMillisecond);
                   },
                   "tcp");
  }
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::percentile_known_vectors();
  perfbench::self_time_arithmetic();
  perfbench::forwarding_transport_is_transparent();
  if (perfbench::failures) {
    std::fprintf(stderr, "selftest: %d failure(s)\n", perfbench::failures);
    return 1;
  }
  std::printf("selftest: all passed\n");
  return 0;
}
