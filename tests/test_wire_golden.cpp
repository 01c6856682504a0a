// Golden-bytes pins for the wire codecs: one fixed message per protocol
// family, encoded to a literal hex string. Round-trip tests cannot see an
// encoder and decoder that drift together; these fail on any change to the
// bytes on the wire, and the decode half checks the literal still parses back
// to the same bytes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "core/server_directory.hpp"
#include "core/work_pool.hpp"
#include "gossip/protocol.hpp"
#include "wish/env_store.hpp"
#include "wish/protocol.hpp"

namespace ew {
namespace {

std::string hex(const Bytes& b) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(b.size() * 2);
  for (std::uint8_t v : b) {
    out.push_back(kDigits[v >> 4]);
    out.push_back(kDigits[v & 0xf]);
  }
  return out;
}

Bytes unhex(const std::string& s) {
  Bytes out;
  for (std::size_t i = 0; i + 1 < s.size(); i += 2) {
    out.push_back(
        static_cast<std::uint8_t>(std::stoul(s.substr(i, 2), nullptr, 16)));
  }
  return out;
}

// Encodes `msg`, compares against `golden`, then decodes the golden bytes
// and re-encodes them.
template <typename T>
void expect_golden(const T& msg, const std::string& golden) {
  EXPECT_EQ(hex(msg.serialize()), golden);
  auto back = T::deserialize(unhex(golden));
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  EXPECT_EQ(hex(back->serialize()), golden);
}

TEST(WireGolden, SchedDirectiveBatch) {
  core::DirectiveBatch d;
  d.revoke = {7, 0x0102030405060708ULL};
  ramsey::WorkSpec spec;
  spec.unit_id = 42;
  spec.kind = ramsey::HeuristicKind::kTabu;
  spec.seed = 9;
  spec.report_ops = 1000;
  d.assign = {spec};
  expect_golden(d,
                "0204020200000007000000000000000807060504030201010000002a"
                "000000000000001104010900000000000000e80300000000000000");
}

TEST(WireGolden, SchedReportBatch) {
  core::ReportBatch b;
  b.client = Endpoint{"c1", 9001};
  b.seq = 5;
  b.want_units = 2;
  ramsey::WorkReport rep;
  rep.unit_id = 42;
  rep.ops_done = 123456;
  rep.best_energy = 3;
  rep.found = true;
  rep.best_graph = {0xaa, 0xbb};
  b.reports = {rep, ramsey::WorkReport{}};
  expect_golden(b,
                "0203020200000063312923050000000000000002000000020000002a"
                "0000000000000040e201000000000003000000000000000102000000"
                "aabb0000000000000000000000000000000000000000000000000000"
                "000000");
}

TEST(WireGolden, GossipDelta) {
  gossip::Delta d;
  d.clique = 3;
  d.blobs = {gossip::StateBlob{0x0301, {1, 2, 3}}};
  d.want = {0x0302, 0x0303};
  d.registrations = {gossip::Registration{Endpoint{"g", 7}, {0x0301}}};
  expect_golden(d,
                "03000000010000000103030000000102030200000002030303010000"
                "0001000000670700010000000103");
}

TEST(WireGolden, GossipToken) {
  gossip::Token t;
  t.round = 9;
  t.view.generation = 4;
  t.view.leader = Endpoint{"a", 1};
  t.view.members = {Endpoint{"a", 1}, Endpoint{"b", 2}};
  t.visited = {Endpoint{"a", 1}};
  expect_golden(t,
                "09000000000000000400000000000000010000006101000200000001"
                "00000061010001000000620200010000000100000061010000000000");
}

TEST(WireGolden, GossipPollReply) {
  gossip::PollReply p;
  p.fresh = true;
  p.blobs = {gossip::StateBlob{0x0303, {0xff}}};
  expect_golden(p, "0101000000030301000000ff");
}

TEST(WireGolden, WishSpawnRequest) {
  wish::SpawnRequest req;
  req.owner = Endpoint{"o", 3};
  req.jobs = {wish::JobSpec{"ls", 5}};
  expect_golden(req,
                "010104010000006f030001000000020000006c730500000000000000");
}

TEST(WireGolden, WishPollReply) {
  wish::PollReply rep;
  rep.incarnation = 2;
  rep.jobs = {wish::JobStatus{11, wish::JobState::kExited, -1}};
  expect_golden(rep,
                "0102040200000000000000010000000b0000000000000002ffffffff"
                "ffffffff");
}

TEST(WireGolden, ServerList) {
  core::ServerList list;
  list.merge(core::ServerEntry{Endpoint{"s1", 80}, 4});
  list.merge(core::ServerEntry{Endpoint{"s2", 81}, 6});
  expect_golden(list,
                "02000000020000007331500004000000000000000200000073325100"
                "0600000000000000");
}

TEST(WireGolden, EnvStoreSnapshot) {
  wish::EnvStore env(77);
  env.set("PATH", "/bin");
  env.set("X", "");
  const std::string golden =
      "0200000000000000020000000400000050415448040000002f62696e"
      "01000000000000004d00000000000000010000005800000000010000"
      "00000000004d00000000000000";
  EXPECT_EQ(hex(env.snapshot()), golden);
  // A fresh replica folds the golden snapshot in and republishes it as is.
  wish::EnvStore other(78);
  ASSERT_TRUE(other.apply(unhex(golden)).ok());
  EXPECT_EQ(hex(other.snapshot()), golden);
}

// The scheduler's per-shard frontier checkpoints: a fixed issue / report /
// reclaim script on a 3-shard pool with a per-shard idle cap of 2, then every
// shard's export against literal hex. Pins unit ids and mint order, frontier
// stealing, per-shard trimming and the checkpoint bytes.
ramsey::WorkReport pool_report(std::uint64_t unit, std::uint64_t energy,
                               bool with_graph = true) {
  ramsey::WorkReport r;
  r.unit_id = unit;
  r.ops_done = 1000;
  r.best_energy = energy;
  if (with_graph) {
    Rng rng(unit + 1);
    r.best_graph = ramsey::ColoredGraph::random(6, rng).serialize();
  }
  return r;
}

TEST(WireGolden, WorkPoolShardCheckpoints) {
  core::WorkPool::Options o;
  o.n = 6;
  o.k = 3;
  o.seed_base = 7;
  o.max_idle_frontier = 2;
  core::WorkPool pool(o, 3);
  std::vector<std::uint64_t> ids;
  for (const auto& s : pool.issue_many(7)) ids.push_back(s.unit_id);
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6, 7}));
  pool.report_many(std::vector<ramsey::WorkReport>{
      pool_report(1, 40), pool_report(2, 31), pool_report(3, 22),
      pool_report(4, 35), pool_report(5, 12, false), pool_report(6, 50),
      pool_report(7, 27), pool_report(99, 1)});
  pool.reclaim_many(std::vector<std::uint64_t>{1, 2, 3, 4, 5, 7});
  ids.clear();
  for (const auto& s : pool.issue_many(3)) {
    ids.push_back(s.unit_id);
    EXPECT_TRUE(s.resume.has_value());
  }
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{3, 7, 2}));
  pool.report_many(std::vector<ramsey::WorkReport>{
      pool_report(3, 9), pool_report(6, 44), pool_report(6, 60)});
  pool.reclaim_many(std::vector<std::uint64_t>{3, 6});
  EXPECT_TRUE(pool.issue_unit(6).has_value());
  EXPECT_EQ(pool.steals(), 2u);
  EXPECT_EQ(pool.units_issued(), 7u);
  EXPECT_EQ(pool.idle_frontier_size(), 2u);
  EXPECT_EQ(pool.assigned_units(), (std::vector<std::uint64_t>{2, 6, 7}));

  const std::vector<std::string> golden = {
      "0200000004000000000000000b000000000000000123000000000000"
      "00310000000602000000000000002100000000000000280000000000"
      "00001400000000000000080000000000000006000000000000000700"
      "0000000000000e00000000000000011b000000000000003100000006"
      "20000000000000000c00000000000000020000000000000012000000"
      "0000000008000000000000000100000000000000",
      "0100000002000000000000000900000000000000021f000000000000"
      "00310000000628000000000000000c000000000000000a0000000000"
      "0000070000000000000000000000000000000100000000000000",
      "0200000003000000000000000a000000000000000009000000000000"
      "0031000000062a000000000000002900000000000000180000000000"
      "000017000000000000000c0000000000000003000000000000000600"
      "0000000000000d00000000000000002c000000000000003100000006"
      "04000000000000003800000000000000090000000000000006000000"
      "0000000022000000000000001200000000000000"};
  for (std::uint32_t k = 0; k < 3; ++k) {
    EXPECT_TRUE(pool.shard_dirty(k));
    EXPECT_EQ(hex(pool.export_shard(k)), golden[k]) << "shard " << k;
  }

  // A fresh pool replays each shard's golden bytes into that shard only.
  core::WorkPool restored(o, 3);
  const std::size_t own[] = {2, 1, 2};
  for (std::uint32_t k = 0; k < 3; ++k) {
    EXPECT_EQ(restored.import_shard(k, unhex(golden[k])), own[k]);
    EXPECT_EQ(restored.import_shard(k, unhex(golden[(k + 1) % 3])), 0u);
  }
  EXPECT_EQ(restored.idle_frontier_size(), 5u);
  EXPECT_EQ(restored.units_issued(), 6u);
  ids.clear();
  for (const auto& s : restored.issue_many(4)) ids.push_back(s.unit_id);
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{3, 7, 2, 4}));
}

}  // namespace
}  // namespace ew
