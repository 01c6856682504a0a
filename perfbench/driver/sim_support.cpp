#include "driver/sim_support.hpp"

#include <cstring>

#include "net/node.hpp"
#include "obs/registry.hpp"

namespace perfbench {

void EpisodeClock::run_for(ew::Duration d) {
  const ew::TimePoint until = q_.clock().now() + d;
  bool reached = false;
  q_.schedule(d, [&reached] { reached = true; });
  ++markers_;
  for (;;) {
    const std::int64_t t0 = now_ns();
    q_.step();
    if (reached) break;
    per_event_.add_ns(now_ns() - t0);
  }
  // Events due at exactly `until` but queued after the marker.
  q_.run_until(until);
}

NetCounters NetCounters::read() {
  namespace n = ew::obs::names;
  auto& r = ew::obs::registry();
  return {r.counter(n::kNetCallsStarted).value(), r.counter(n::kNetCallsOk).value(),
          r.counter(n::kNetCallsFailed).value(), r.counter(n::kNetAttempts).value(),
          r.counter(n::kNetTimeoutsFired).value()};
}

void report_episode(const EpisodeClock& clock, std::uint64_t events, double wall_s,
                    const CpuSample& process, const CpuSample& thread, const NetCounters& net,
                    Report& e2e, Report& layers) {
  const auto calls = static_cast<double>(net.ok + net.failed);
  e2e.num("wall_s", wall_s)
      .num("calls_per_s", calls / wall_s)
      .num("cpu_us_per_call", (process.user_s + process.sys_s) * 1e6 / calls)
      .num("p50_us", clock.per_event().percentile_us(0.50))
      .num("p90_us", clock.per_event().percentile_us(0.90))
      .integer("latency_samples", clock.per_event().count());
  layers.num("reactor.user_us_per_call", thread.user_s * 1e6 / calls)
      .num("reactor.sys_us_per_call", thread.sys_s * 1e6 / calls)
      .num("reactor.wakeups_per_call", static_cast<double>(thread.voluntary_switches) / calls)
      .num("call.attempts_per_call",
           net.started ? static_cast<double>(net.attempts) / static_cast<double>(net.started) : 0)
      .integer("call.timeouts_fired", net.timeouts)
      .integer("sim.events", events)
      .num("sim.ns_per_event", wall_s * 1e9 / static_cast<double>(events));
}

void report_traced_episode(const std::vector<SpanStats>& spans, const SpanStats& episode,
                           std::uint64_t events, const std::vector<std::size_t>& sizes,
                           std::uint64_t seed, Report& layers) {
  const WireCost wire = measure_wire(sizes, seed);
  const double send_ns = mean_ns(find_stats(spans, "transport.send"), false);
  const SpanStats driver = sum_prefix(spans, "driver.");
  layers.num("wire.encode_ns", wire.encode_ns)
      .num("wire.parse_ns", wire.parse_ns)
      .num("transport.send_ns", send_ns)
      .num("simnet.send_ns", send_ns)
      .num("handler.echo_ns", mean_ns(find_stats(spans, "handler.echo"), true))
      .num("sim.core_self_ns_per_event",
           static_cast<double>(episode.self_ns) / static_cast<double>(events))
      .num("driver.self_frac",
           static_cast<double>(driver.self_ns) / static_cast<double>(episode.total_ns))
      .str("sim.core_self_note",
           "timer callbacks not reached through the transport (poll, sync and "
           "sweep ticks) count as event-core self time");
}

void run_echo_probe(ew::sim::EventQueue& q, ew::Transport& transport, std::size_t calls,
                    Checks& checks) {
  constexpr ew::MsgType kEcho = 0x77;
  constexpr std::size_t kInFlight = 16;
  const std::uint32_t issue_name = Tracer::intern("probe.call.issue");
  const std::uint32_t callback_name = Tracer::intern("probe.callback");
  const std::uint32_t echo_name = Tracer::intern("handler.echo");
  ew::Node server(q, transport, ew::Endpoint{"bench-echo", 7001});
  ew::Node client(q, transport, ew::Endpoint{"bench-probe", 7000});
  if (!server.start().ok() || !client.start().ok()) {
    checks.expect(false);
    return;
  }
  server.handle(kEcho, [echo_name](const ew::IncomingMessage& m, ew::Responder r) {
    Scope span(echo_name, m.packet.seq);
    r.ok(m.packet.payload);
  });
  std::size_t issued = 0, done = 0;
  std::function<void()> issue = [&] {
    const std::uint64_t id = ++issued;
    ew::Bytes payload(64, static_cast<std::uint8_t>(id));
    std::memcpy(payload.data(), &id, sizeof(id));
    Scope span(issue_name, id);
    client.call(server.self(), kEcho, payload, ew::CallOptions::fixed(10 * ew::kSecond),
                [&, id, payload](ew::Result<ew::Bytes> res) {
                  Scope cb(callback_name, id);
                  ++done;
                  checks.expect(res.ok() && *res == payload);
                  if (issued < calls) issue();
                });
  };
  for (std::size_t i = 0; i < kInFlight && issued < calls; ++i) issue();
  for (int guard = 0; done < calls && guard < 100'000; ++guard) q.run_for(ew::kSecond);
  checks.expect(done == calls);
  server.stop();
  client.stop();
}

}  // namespace perfbench
