// Microbenchmark for the wire path (DESIGN.md §3, §11).
//
// PR 6 rebuilt the per-frame byte plumbing: encode_packet and
// encode_routed_frame write each frame with exactly one allocation, and
// FrameParser::next_view() parses with none. This harness times the four
// legs at a small (64 B) and a large (4 KiB) payload and *gates* on the
// allocation counts — counted by a replacement global operator new (the
// micro_obs pattern), so the single-allocation/zero-copy claims are
// asserted, not assumed. The ns/frame numbers are informational (a loaded
// CI box must not flake the smoke run); the allocation gates are
// deterministic and always enforced. Emits ONE machine-readable JSON line
// (see EXPERIMENTS.md, "Wire-path microbenchmark"):
//
//   {"bench":"micro_packet","iters":...,
//    "ns_encode_64":...,"ns_encode_4096":...,
//    "ns_encode_routed_64":...,"ns_encode_routed_4096":...,
//    "ns_parse_copy_64":...,"ns_parse_copy_4096":...,
//    "ns_parse_view_64":...,"ns_parse_view_4096":...,
//    "encode_allocs_per_frame":...,"parse_view_allocs":...,"checksum":...}
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "bench/bench_util.hpp"
#include "net/packet.hpp"
#include "net/tcp_transport.hpp"

// Program-wide allocation counter (replaces the global operator new) so the
// one-allocation-per-encode and zero-copy-parse gates are measured.
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

namespace ew {
namespace {

using bench::now_ns;

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

Packet make_packet(std::size_t payload_bytes) {
  Packet p;
  p.kind = PacketKind::kRequest;
  p.type = 7;
  p.seq = 424242;
  p.payload.resize(payload_bytes);
  for (std::size_t i = 0; i < payload_bytes; ++i) {
    p.payload[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  return p;
}

struct Leg {
  double ns_per_op = 0;
  double checksum = 0;           // defeats dead-code elimination
  std::uint64_t leg_allocs = 0;  // steady-state allocations across the leg
};

template <typename F>
Leg run_leg(std::size_t iters, F&& op) {
  Leg leg;
  (void)op(0);  // warm-up: first-touch buffer growth is not steady state
  const std::uint64_t a0 = allocs();
  const double t0 = now_ns();
  for (std::size_t i = 0; i < iters; ++i) leg.checksum += op(i);
  const double t1 = now_ns();
  leg.leg_allocs = allocs() - a0;
  leg.ns_per_op = (t1 - t0) / static_cast<double>(iters);
  return leg;
}

/// ns/frame to serialize a bare packet (header + payload, one buffer).
Leg bench_encode(std::size_t iters, const Packet& p) {
  return run_leg(iters, [&](std::size_t) {
    Bytes frame = encode_packet(p);
    return static_cast<double>(frame.size() + frame.back());
  });
}

/// ns/frame for the transport's send-path encoder (adds routing + patched
/// checksum — still one allocation).
Leg bench_encode_routed(std::size_t iters, const Packet& p,
                        const Endpoint& src, const Endpoint& dst) {
  return run_leg(iters, [&](std::size_t) {
    Bytes frame = encode_routed_frame(p, src, dst);
    return static_cast<double>(frame.size() + frame.back());
  });
}

/// ns/frame to reparse via next() — the copy-out arm (payload materialized
/// as an owning Packet each iteration).
Leg bench_parse_copy(std::size_t iters, const Bytes& frame) {
  FrameParser parser;
  return run_leg(iters, [&](std::size_t) {
    parser.feed(frame);
    auto pkt = parser.next();
    return pkt ? static_cast<double>(pkt->payload.size()) : -1e9;
  });
}

/// ns/frame via recv_buffer/commit + next_view — the zero-copy arm. After
/// the parser's reassembly buffer warms up this path must not allocate.
Leg bench_parse_view(std::size_t iters, const Bytes& frame) {
  FrameParser parser;
  return run_leg(iters, [&](std::size_t) {
    auto dst = parser.recv_buffer(frame.size());
    std::memcpy(dst.data(), frame.data(), frame.size());
    parser.commit(frame.size());
    auto view = parser.next_view();
    return view ? static_cast<double>(view->payload.size() +
                                      view->payload.back())
                : -1e9;
  });
}

}  // namespace
}  // namespace ew

int main(int argc, char** argv) {
  using namespace ew;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::size_t kIters = quick ? 20'000 : 1'000'000;

  const Packet small = make_packet(64);
  const Packet large = make_packet(4096);
  const Endpoint src{"10.0.0.1", 9001};
  const Endpoint dst{"10.0.0.2", 9002};
  const Bytes small_frame = encode_packet(small);
  const Bytes large_frame = encode_packet(large);

  const Leg enc_64 = bench_encode(kIters, small);
  const Leg enc_4096 = bench_encode(kIters, large);
  const Leg encr_64 = bench_encode_routed(kIters, small, src, dst);
  const Leg encr_4096 = bench_encode_routed(kIters, large, src, dst);
  const Leg copy_64 = bench_parse_copy(kIters, small_frame);
  const Leg copy_4096 = bench_parse_copy(kIters, large_frame);
  const Leg view_64 = bench_parse_view(kIters, small_frame);
  const Leg view_4096 = bench_parse_view(kIters, large_frame);

  const double checksum = enc_64.checksum + enc_4096.checksum +
                          encr_64.checksum + encr_4096.checksum +
                          copy_64.checksum + copy_4096.checksum +
                          view_64.checksum + view_4096.checksum;

  // Gate 1: encoding is one allocation per frame (the frame buffer itself),
  // for both the bare and the routed encoder, at both payload sizes.
  const std::uint64_t encode_allocs_per_frame =
      (enc_64.leg_allocs + enc_4096.leg_allocs + encr_64.leg_allocs +
       encr_4096.leg_allocs) /
      (4 * kIters);
  // Gate 2: the zero-copy parse arm allocates nothing in steady state (the
  // reassembly buffer was warmed before counting).
  const std::uint64_t parse_view_allocs =
      view_64.leg_allocs + view_4096.leg_allocs;

  bench::JsonWriter line;
  line.u64("iters", kIters)
      .f("ns_encode_64", enc_64.ns_per_op, 2)
      .f("ns_encode_4096", enc_4096.ns_per_op, 2)
      .f("ns_encode_routed_64", encr_64.ns_per_op, 2)
      .f("ns_encode_routed_4096", encr_4096.ns_per_op, 2)
      .f("ns_parse_copy_64", copy_64.ns_per_op, 2)
      .f("ns_parse_copy_4096", copy_4096.ns_per_op, 2)
      .f("ns_parse_view_64", view_64.ns_per_op, 2)
      .f("ns_parse_view_4096", view_4096.ns_per_op, 2)
      .u64("encode_allocs_per_frame", encode_allocs_per_frame)
      .u64("parse_view_allocs", parse_view_allocs)
      .g("checksum", checksum);
  bench::emit_json("micro_packet", line);

  bool ok = true;
  if (encode_allocs_per_frame != 1) {
    std::fprintf(stderr,
                 "micro_packet: %llu allocations per encoded frame "
                 "(budget: exactly 1)\n",
                 static_cast<unsigned long long>(encode_allocs_per_frame));
    ok = false;
  }
  if (parse_view_allocs != 0) {
    std::fprintf(stderr,
                 "micro_packet: %llu allocations in steady-state zero-copy "
                 "parse (budget: 0)\n",
                 static_cast<unsigned long long>(parse_view_allocs));
    ok = false;
  }
  if (copy_64.checksum < 0 || copy_4096.checksum < 0 ||
      view_64.checksum < 0 || view_4096.checksum < 0) {
    std::fprintf(stderr, "micro_packet: a parse leg failed to round-trip\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
