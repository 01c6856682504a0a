// Golden-bytes pins for the wire codecs: one fixed message per protocol
// family, encoded to a literal hex string. Round-trip tests cannot see an
// encoder and decoder that drift together; these fail on any change to the
// bytes on the wire, and the decode half checks the literal still parses back
// to the same bytes.
#include <gtest/gtest.h>

#include <string>

#include "core/protocol.hpp"
#include "core/server_directory.hpp"
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

}  // namespace
}  // namespace ew
