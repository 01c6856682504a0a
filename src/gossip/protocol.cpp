#include "gossip/protocol.hpp"

#include <algorithm>

namespace ew::gossip {

namespace {
// Ceilings on decoded list counts; Reader::count also bounds each count by
// the bytes remaining, so a hostile count never drives an allocation.
constexpr std::uint32_t kMaxListLen = 100'000;
constexpr std::uint32_t kMaxRegTypes = 4096;  // types per registration
}  // namespace

void write_endpoint(Writer& w, const Endpoint& e) {
  w.str(e.host);
  w.u16(e.port);
}

Result<Endpoint> read_endpoint(Reader& r) {
  auto host = r.str();
  if (!host) return host.error();
  auto port = r.u16();
  if (!port) return port.error();
  return Endpoint{std::move(*host), *port};
}

void Registration::write(Writer& w) const {
  write_endpoint(w, component);
  write_list(w, types, &Writer::u16);
}

Result<Registration> Registration::read(Reader& r) {
  Registration reg;
  auto ep = read_endpoint(r);
  if (!ep) return ep.error();
  reg.component = std::move(*ep);
  auto types = read_list<MsgType>(r, kMaxRegTypes, sizeof(MsgType),
                                  "registration type list", &Reader::u16);
  if (!types) return types.error();
  reg.types = std::move(*types);
  return reg;
}

Bytes Registration::serialize() const {
  Writer w;
  write(w);
  return w.take();
}

Result<Registration> Registration::deserialize(const Bytes& data) {
  Reader r(data);
  return read(r);
}

void write_state_blob(Writer& w, const StateBlob& s) {
  w.u16(s.type);
  w.blob(s.content);
}

Result<StateBlob> read_state_blob(Reader& r) {
  StateBlob s;
  auto t = r.u16();
  if (!t) return t.error();
  s.type = *t;
  auto c = r.blob();
  if (!c) return c.error();
  s.content = std::move(*c);
  return s;
}

void write_type_summary(Writer& w, const TypeSummary& s) {
  w.u16(s.type);
  w.u64(s.version);
  w.u64(s.checksum);
}

Result<TypeSummary> read_type_summary(Reader& r) {
  TypeSummary s;
  auto t = r.u16();
  if (!t) return t.error();
  s.type = *t;
  auto v = r.u64();
  if (!v) return v.error();
  s.version = *v;
  auto c = r.u64();
  if (!c) return c.error();
  s.checksum = *c;
  return s;
}

Bytes Digest::serialize() const {
  Writer w(4 + 4 + summaries.size() * TypeSummary::kMinWire + 16);
  w.u32(clique);
  write_list(w, summaries, write_type_summary);
  w.u64(reg_count);
  w.u64(reg_checksum);
  return w.take();
}

Result<Digest> Digest::deserialize(const Bytes& data) {
  Reader r(data);
  Digest d;
  auto clique = r.u32();
  if (!clique) return clique.error();
  d.clique = *clique;
  auto summaries =
      read_list<TypeSummary>(r, kMaxListLen, TypeSummary::kMinWire,
                             "digest summary list", read_type_summary);
  if (!summaries) return summaries.error();
  d.summaries = std::move(*summaries);
  auto rc = r.u64();
  if (!rc) return rc.error();
  d.reg_count = *rc;
  auto rx = r.u64();
  if (!rx) return rx.error();
  d.reg_checksum = *rx;
  return d;
}

Bytes Delta::serialize() const {
  Writer w;
  w.u32(clique);
  write_list(w, blobs, write_state_blob);
  write_list(w, want, &Writer::u16);
  write_list(w, registrations, &Registration::write);
  return w.take();
}

Result<Delta> Delta::deserialize(const Bytes& data) {
  Reader r(data);
  Delta d;
  auto clique = r.u32();
  if (!clique) return clique.error();
  d.clique = *clique;
  auto blobs = read_list<StateBlob>(r, kMaxListLen, StateBlob::kMinWire,
                                    "delta blob list", read_state_blob);
  if (!blobs) return blobs.error();
  d.blobs = std::move(*blobs);
  auto want = read_list<MsgType>(r, kMaxListLen, sizeof(MsgType),
                                 "delta want list", &Reader::u16);
  if (!want) return want.error();
  d.want = std::move(*want);
  auto regs =
      read_list<Registration>(r, kMaxListLen, Registration::kMinWire,
                              "delta registration list", &Registration::read);
  if (!regs) return regs.error();
  d.registrations = std::move(*regs);
  return d;
}

void CliqueSummary::write(Writer& w) const {
  w.u32(clique);
  w.u64(version);
  w.u64(checksum);
  w.u64(states);
  w.u64(components);
}

Result<CliqueSummary> CliqueSummary::read(Reader& r) {
  CliqueSummary s;
  auto c = r.u32();
  if (!c) return c.error();
  s.clique = *c;
  auto v = r.u64();
  if (!v) return v.error();
  s.version = *v;
  auto x = r.u64();
  if (!x) return x.error();
  s.checksum = *x;
  auto st = r.u64();
  if (!st) return st.error();
  s.states = *st;
  auto comp = r.u64();
  if (!comp) return comp.error();
  s.components = *comp;
  return s;
}

Bytes ParentDigest::serialize() const {
  Writer w(4 + cliques.size() * CliqueSummary::kMinWire);
  write_list(w, cliques, &CliqueSummary::write);
  return w.take();
}

Result<ParentDigest> ParentDigest::deserialize(const Bytes& data) {
  Reader r(data);
  auto cliques =
      read_list<CliqueSummary>(r, kMaxListLen, CliqueSummary::kMinWire,
                               "parent digest", &CliqueSummary::read);
  if (!cliques) return cliques.error();
  ParentDigest d;
  d.cliques = std::move(*cliques);
  return d;
}

Bytes PollRequest::serialize() const {
  Writer w(4 + held.size() * TypeSummary::kMinWire);
  write_list(w, held, write_type_summary);
  return w.take();
}

Result<PollRequest> PollRequest::deserialize(const Bytes& data) {
  Reader r(data);
  auto held = read_list<TypeSummary>(r, kMaxListLen, TypeSummary::kMinWire,
                                     "poll request", read_type_summary);
  if (!held) return held.error();
  PollRequest req;
  req.held = std::move(*held);
  return req;
}

Bytes PollReply::serialize() const {
  Writer w;
  w.u8(fresh ? 1 : 0);
  write_list(w, blobs, write_state_blob);
  return w.take();
}

Result<PollReply> PollReply::deserialize(const Bytes& data) {
  Reader r(data);
  auto flag = r.u8();
  if (!flag) return flag.error();
  auto blobs = read_list<StateBlob>(r, kMaxListLen, StateBlob::kMinWire,
                                    "poll reply", read_state_blob);
  if (!blobs) return blobs.error();
  PollReply rep;
  rep.fresh = *flag != 0;
  rep.blobs = std::move(*blobs);
  return rep;
}

bool View::contains(const Endpoint& e) const {
  return std::binary_search(members.begin(), members.end(), e);
}

bool View::newer_than(const View& other) const {
  if (generation != other.generation) return generation > other.generation;
  return leader < other.leader;
}

void View::write(Writer& w) const {
  w.u64(generation);
  write_endpoint(w, leader);
  write_list(w, members, write_endpoint);
}

Result<View> View::read(Reader& r) {
  View v;
  auto gen = r.u64();
  if (!gen) return gen.error();
  v.generation = *gen;
  auto leader = read_endpoint(r);
  if (!leader) return leader.error();
  v.leader = std::move(*leader);
  auto members = read_list<Endpoint>(r, kMaxListLen, kEndpointMinWire,
                                     "view member list", read_endpoint);
  if (!members) return members.error();
  v.members = std::move(*members);
  std::sort(v.members.begin(), v.members.end());
  return v;
}

Bytes View::serialize() const {
  Writer w;
  write(w);
  return w.take();
}

Result<View> View::deserialize(const Bytes& data) {
  Reader r(data);
  return read(r);
}

Bytes Token::serialize() const {
  Writer w;
  w.u64(round);
  view.write(w);
  write_list(w, visited, write_endpoint);
  write_list(w, suspects, write_endpoint);
  return w.take();
}

Result<Token> Token::deserialize(const Bytes& data) {
  Reader r(data);
  Token t;
  auto round = r.u64();
  if (!round) return round.error();
  t.round = *round;
  auto v = View::read(r);
  if (!v) return v.error();
  t.view = std::move(*v);
  auto visited = read_list<Endpoint>(r, kMaxListLen, kEndpointMinWire,
                                     "endpoint list", read_endpoint);
  if (!visited) return visited.error();
  t.visited = std::move(*visited);
  auto suspects = read_list<Endpoint>(r, kMaxListLen, kEndpointMinWire,
                                      "endpoint list", read_endpoint);
  if (!suspects) return suspects.error();
  t.suspects = std::move(*suspects);
  return t;
}

}  // namespace ew::gossip
