// Deterministic fuzz tests: every wire decoder must survive arbitrary bytes
// (returning an error or a valid object, never crashing or reading out of
// bounds) — the lingua franca's peers are federated machines the paper's
// toolkit explicitly does not trust to be well-behaved.
#include <gtest/gtest.h>

#include "core/protocol.hpp"
#include "core/server_directory.hpp"
#include "gossip/protocol.hpp"
#include "net/packet.hpp"
#include "nws/nws.hpp"
#include "ramsey/graph.hpp"
#include "ramsey/workunit.hpp"

namespace ew {
namespace {

Bytes random_bytes(Rng& rng, std::size_t max_len) {
  const std::size_t len = rng.below(max_len + 1);
  Bytes out(len);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

/// Each decoder under test, type-erased to "parse and tell me if it was ok".
using Decoder = std::function<bool(const Bytes&)>;

std::vector<std::pair<const char*, Decoder>> decoders() {
  return {
      {"ColoredGraph",
       [](const Bytes& b) { return ramsey::ColoredGraph::deserialize(b).ok(); }},
      {"WorkSpec", [](const Bytes& b) { return ramsey::WorkSpec::deserialize(b).ok(); }},
      {"WorkReport",
       [](const Bytes& b) { return ramsey::WorkReport::deserialize(b).ok(); }},
      {"Registration",
       [](const Bytes& b) { return gossip::Registration::deserialize(b).ok(); }},
      {"Digest", [](const Bytes& b) { return gossip::Digest::deserialize(b).ok(); }},
      {"Delta", [](const Bytes& b) { return gossip::Delta::deserialize(b).ok(); }},
      {"ParentDigest",
       [](const Bytes& b) { return gossip::ParentDigest::deserialize(b).ok(); }},
      {"PollRequest",
       [](const Bytes& b) { return gossip::PollRequest::deserialize(b).ok(); }},
      {"PollReply",
       [](const Bytes& b) { return gossip::PollReply::deserialize(b).ok(); }},
      {"View", [](const Bytes& b) { return gossip::View::deserialize(b).ok(); }},
      {"Token", [](const Bytes& b) { return gossip::Token::deserialize(b).ok(); }},
      {"ClientHello",
       [](const Bytes& b) { return core::ClientHello::deserialize(b).ok(); }},
      {"ReportBatch",
       [](const Bytes& b) { return core::ReportBatch::deserialize(b).ok(); }},
      {"DirectiveBatch",
       [](const Bytes& b) { return core::DirectiveBatch::deserialize(b).ok(); }},
      {"LogRecord", [](const Bytes& b) { return core::LogRecord::deserialize(b).ok(); }},
      {"StoreRequest",
       [](const Bytes& b) { return core::StoreRequest::deserialize(b).ok(); }},
      {"ServerList",
       [](const Bytes& b) { return core::ServerList::deserialize(b).ok(); }},
      {"NwsMeasurement",
       [](const Bytes& b) { return nws::NwsMeasurement::deserialize(b).ok(); }},
      {"NwsForecastReply",
       [](const Bytes& b) { return nws::NwsForecastReply::deserialize(b).ok(); }},
  };
}

TEST(Fuzz, DecodersSurviveRandomBytes) {
  Rng rng(0xF00D);
  for (const auto& [name, decode] : decoders()) {
    int accepted = 0;
    for (int i = 0; i < 3000; ++i) {
      const Bytes junk = random_bytes(rng, 256);
      accepted += decode(junk) ? 1 : 0;  // must simply not crash
    }
    // Random bytes should almost never be a valid object for the structured
    // formats (a tiny accept rate is fine for the smallest encodings).
    EXPECT_LT(accepted, 600) << name;
  }
}

TEST(Fuzz, DecodersSurviveBitflippedValidEncodings) {
  // Take valid encodings and flip one byte at a time: the decoder must
  // return ok-or-error, never crash, for every single-byte corruption.
  Rng rng(0xBEEF);
  ramsey::WorkSpec spec;
  spec.resume = ramsey::ColoredGraph::random(12, rng);
  gossip::Token token;
  token.view.leader = Endpoint{"leader", 1};
  token.view.members = {Endpoint{"leader", 1}, Endpoint{"m", 2}};
  token.visited = {Endpoint{"leader", 1}};
  gossip::PollReply poll_reply;
  poll_reply.blobs.push_back(
      gossip::StateBlob{7, ramsey::ColoredGraph::random(8, rng).serialize()});
  core::ReportBatch batch;
  batch.client = Endpoint{"client", 2000};
  batch.seq = 7;
  batch.want_units = 3;
  for (int i = 0; i < 3; ++i) {
    ramsey::WorkReport rep;
    rep.unit_id = static_cast<std::uint64_t>(i + 1);
    rep.ops_done = 1000;
    rep.best_energy = 40;
    rep.best_graph = ramsey::ColoredGraph::random(8, rng).serialize();
    batch.reports.push_back(std::move(rep));
  }
  core::DirectiveBatch dir;
  dir.revoke = {9, 11};
  dir.assign.push_back(spec);

  const std::vector<std::pair<Bytes, Decoder>> cases = {
      {spec.serialize(),
       [](const Bytes& b) { return ramsey::WorkSpec::deserialize(b).ok(); }},
      {token.serialize(),
       [](const Bytes& b) { return gossip::Token::deserialize(b).ok(); }},
      {poll_reply.serialize(),
       [](const Bytes& b) { return gossip::PollReply::deserialize(b).ok(); }},
      {batch.serialize(),
       [](const Bytes& b) { return core::ReportBatch::deserialize(b).ok(); }},
      {dir.serialize(),
       [](const Bytes& b) { return core::DirectiveBatch::deserialize(b).ok(); }},
  };
  for (const auto& [wire, decode] : cases) {
    for (std::size_t pos = 0; pos < wire.size(); ++pos) {
      for (std::uint8_t flip : {0x01, 0x80, 0xFF}) {
        Bytes mutated = wire;
        mutated[pos] ^= flip;
        decode(mutated);  // must not crash; result value is irrelevant
      }
    }
    // Truncations at every length must also be safe.
    for (std::size_t len = 0; len < wire.size(); ++len) {
      decode(Bytes(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(len)));
    }
  }
}

TEST(Fuzz, SchedBatchDecodersRejectHugeCounts) {
  // A hostile peer can claim an enormous element count in a tiny payload;
  // the batch decoders must reject it up front instead of reserving memory
  // for elements the stream cannot possibly contain.
  {
    Writer w;
    write_envelope(w, core::kSchedWireVersion,
                   core::msgtype::kSchedDirectiveBatch);
    w.u32(0xFFFF'FFFFu);  // revoke count far beyond the remaining bytes
    EXPECT_FALSE(core::DirectiveBatch::deserialize(w.take()).ok());
  }
  {
    Writer w;
    write_envelope(w, core::kSchedWireVersion,
                   core::msgtype::kSchedDirectiveBatch);
    w.u32(0);                               // no revokes
    w.u32(core::kMaxSchedBatch + 1);        // assign count above the hard cap
    EXPECT_FALSE(core::DirectiveBatch::deserialize(w.take()).ok());
  }
  {
    Writer w;
    write_envelope(w, core::kSchedWireVersion,
                   core::msgtype::kSchedReportBatch);
    gossip::write_endpoint(w, Endpoint{"c", 1});
    w.u64(1);            // seq
    w.u32(1);            // want_units
    w.u32(0xFFFF'FFFFu); // report count far beyond the remaining bytes
    EXPECT_FALSE(core::ReportBatch::deserialize(w.take()).ok());
  }
}

TEST(Fuzz, SchedEnvelopeRejectsBadVersionAndKind) {
  // Future wire versions must be refused rather than misparsed...
  {
    Writer w;
    w.u8(core::kSchedWireVersion + 1);
    w.u16(static_cast<std::uint16_t>(core::msgtype::kSchedDirectiveBatch));
    w.u32(0);
    w.u32(0);
    EXPECT_FALSE(core::DirectiveBatch::deserialize(w.take()).ok());
  }
  // ...and a message of one kind must not decode as another.
  {
    Writer w;
    write_envelope(w, core::kSchedWireVersion,
                   core::msgtype::kSchedReportBatch);
    w.u32(0);
    w.u32(0);
    EXPECT_FALSE(core::DirectiveBatch::deserialize(w.take()).ok());
  }
}

TEST(Fuzz, WorkReportRejectsOversizedGraphBlob) {
  // The best-graph blob length is bounded by the largest legal ColoredGraph
  // image; a length field beyond that must be rejected before any copy.
  Writer w;
  w.u64(1);             // unit_id
  w.u64(1000);          // ops_done
  w.u64(40);            // best_energy
  w.boolean(false);     // found
  w.u32(1u << 24);      // blob length: 16 MiB of graph that is not there
  EXPECT_FALSE(ramsey::WorkReport::deserialize(w.take()).ok());
}

TEST(Fuzz, FrameParserSurvivesRandomStreams) {
  Rng rng(0xCAFE);
  for (int trial = 0; trial < 200; ++trial) {
    FrameParser fp;
    for (int chunk = 0; chunk < 20 && !fp.poisoned(); ++chunk) {
      fp.feed(random_bytes(rng, 128));
      for (int i = 0; i < 50; ++i) {
        if (!fp.next().ok()) break;
      }
    }
  }
}

TEST(Fuzz, FrameParserSurvivesCorruptedValidStream) {
  Rng rng(0xD00D);
  Bytes wire;
  for (int i = 0; i < 8; ++i) {
    Packet p;
    p.kind = PacketKind::kRequest;
    p.type = static_cast<MsgType>(i);
    p.seq = static_cast<std::uint64_t>(i);
    p.payload = random_bytes(rng, 64);
    const Bytes one = encode_packet(p);
    wire.insert(wire.end(), one.begin(), one.end());
  }
  for (std::size_t pos = 0; pos < wire.size(); pos += 3) {
    Bytes mutated = wire;
    mutated[pos] ^= 0xFF;
    FrameParser fp;
    fp.feed(mutated);
    int parsed = 0;
    for (int i = 0; i < 64; ++i) {
      auto out = fp.next();
      if (!out.ok()) break;
      ++parsed;
    }
    EXPECT_LE(parsed, 8);
  }
}

TEST(Fuzz, GraphDeserializeNeverYieldsInvalidGraph) {
  // Whatever bytes go in, an accepted graph must satisfy the invariants the
  // rest of the system relies on (symmetry, no self-loops, order bounds).
  Rng rng(0x9A9A);
  int accepted = 0;
  for (int i = 0; i < 20'000; ++i) {
    Bytes junk;
    if (i % 50 == 0) {
      // Seed the stream with near-valid inputs: a valid graph with a couple
      // of random byte mutations (some of these will be accepted, which is
      // exactly when the invariant check below matters).
      const int n = static_cast<int>(1 + rng.below(16));
      junk = ramsey::ColoredGraph::random(n, rng).serialize();
      const int mutations = static_cast<int>(rng.below(3));  // 0..2
      for (int m = 0; m < mutations; ++m) {
        junk[rng.below(junk.size())] ^= static_cast<std::uint8_t>(rng.below(256));
      }
    } else {
      junk = random_bytes(rng, 80);
      if (!junk.empty()) junk[0] = static_cast<std::uint8_t>(1 + rng.below(64));
    }
    auto g = ramsey::ColoredGraph::deserialize(junk);
    if (!g.ok()) continue;
    ++accepted;
    for (int v = 0; v < g->order(); ++v) {
      const auto red = g->neighbors(ramsey::Color::kRed, v);
      ASSERT_EQ(red & ~g->vertex_mask(), 0u);
      ASSERT_EQ((red >> v) & 1u, 0u);
      for (int u = 0; u < g->order(); ++u) {
        if (u == v) continue;
        ASSERT_EQ(g->color(u, v), g->color(v, u));
      }
    }
  }
  // Graphs of order 1..2 with correct length are easy to hit; just make
  // sure the check above ran at least once on something.
  EXPECT_GT(accepted, 0);
}

}  // namespace
}  // namespace ew
