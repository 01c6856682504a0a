#include "gossip/protocol.hpp"

#include <algorithm>

namespace ew::gossip {

namespace {
// Count guards: a hostile or truncated encoding must be rejected before any
// allocation it names. Every variable-length vector is checked against both
// a hard cap and the bytes actually remaining in the buffer (each element
// costs at least `min_elem` wire bytes, so a count beyond remaining/min_elem
// cannot be honest).
constexpr std::uint32_t kMaxListLen = 100'000;

Result<std::uint32_t> read_count(Reader& r, std::size_t min_elem,
                                 const char* what) {
  auto n = r.u32();
  if (!n) return n.error();
  if (*n > kMaxListLen) return Error{Err::kProtocol, std::string(what) + " too large"};
  if (min_elem > 0 && *n > r.remaining() / min_elem) {
    return Error{Err::kProtocol, std::string(what) + " count exceeds payload"};
  }
  return *n;
}
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
  w.u32(static_cast<std::uint32_t>(types.size()));
  for (MsgType t : types) w.u16(t);
}

Result<Registration> Registration::read(Reader& r) {
  Registration reg;
  auto ep = read_endpoint(r);
  if (!ep) return ep.error();
  reg.component = std::move(*ep);
  auto n = read_count(r, sizeof(MsgType), "registration type list");
  if (!n) return n.error();
  if (*n > 4096) return Error{Err::kProtocol, "registration type list too long"};
  reg.types.reserve(*n);
  for (std::uint32_t i = 0; i < *n; ++i) {
    auto t = r.u16();
    if (!t) return t.error();
    reg.types.push_back(*t);
  }
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
  Writer w(4 + 4 + summaries.size() * 18 + 16);
  w.u32(clique);
  w.u32(static_cast<std::uint32_t>(summaries.size()));
  for (const auto& s : summaries) write_type_summary(w, s);
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
  auto n = read_count(r, 18, "digest summary list");  // u16 + 2 * u64
  if (!n) return n.error();
  d.summaries.reserve(*n);
  for (std::uint32_t i = 0; i < *n; ++i) {
    auto s = read_type_summary(r);
    if (!s) return s.error();
    d.summaries.push_back(*s);
  }
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
  w.u32(static_cast<std::uint32_t>(blobs.size()));
  for (const auto& b : blobs) write_state_blob(w, b);
  w.u32(static_cast<std::uint32_t>(want.size()));
  for (MsgType t : want) w.u16(t);
  w.u32(static_cast<std::uint32_t>(registrations.size()));
  for (const auto& reg : registrations) reg.write(w);
  return w.take();
}

Result<Delta> Delta::deserialize(const Bytes& data) {
  Reader r(data);
  Delta d;
  auto clique = r.u32();
  if (!clique) return clique.error();
  d.clique = *clique;
  auto nb = read_count(r, 6, "delta blob list");  // u16 + empty u32 blob
  if (!nb) return nb.error();
  d.blobs.reserve(*nb);
  for (std::uint32_t i = 0; i < *nb; ++i) {
    auto b = read_state_blob(r);
    if (!b) return b.error();
    d.blobs.push_back(std::move(*b));
  }
  auto nw = read_count(r, sizeof(MsgType), "delta want list");
  if (!nw) return nw.error();
  d.want.reserve(*nw);
  for (std::uint32_t i = 0; i < *nw; ++i) {
    auto t = r.u16();
    if (!t) return t.error();
    d.want.push_back(*t);
  }
  auto nr = read_count(r, 10, "delta registration list");  // min endpoint+count
  if (!nr) return nr.error();
  d.registrations.reserve(*nr);
  for (std::uint32_t i = 0; i < *nr; ++i) {
    auto reg = Registration::read(r);
    if (!reg) return reg.error();
    d.registrations.push_back(std::move(*reg));
  }
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
  Writer w(4 + cliques.size() * 36);
  w.u32(static_cast<std::uint32_t>(cliques.size()));
  for (const auto& c : cliques) c.write(w);
  return w.take();
}

Result<ParentDigest> ParentDigest::deserialize(const Bytes& data) {
  Reader r(data);
  ParentDigest d;
  auto n = read_count(r, 36, "parent digest");  // u32 + 4 * u64
  if (!n) return n.error();
  d.cliques.reserve(*n);
  for (std::uint32_t i = 0; i < *n; ++i) {
    auto c = CliqueSummary::read(r);
    if (!c) return c.error();
    d.cliques.push_back(*c);
  }
  return d;
}

Bytes PollRequest::serialize() const {
  Writer w(4 + held.size() * 18);
  w.u32(static_cast<std::uint32_t>(held.size()));
  for (const auto& s : held) write_type_summary(w, s);
  return w.take();
}

Result<PollRequest> PollRequest::deserialize(const Bytes& data) {
  Reader r(data);
  auto n = read_count(r, 18, "poll request");
  if (!n) return n.error();
  PollRequest req;
  req.held.reserve(*n);
  for (std::uint32_t i = 0; i < *n; ++i) {
    auto s = read_type_summary(r);
    if (!s) return s.error();
    req.held.push_back(*s);
  }
  return req;
}

Bytes PollReply::serialize() const {
  Writer w;
  w.u8(fresh ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(blobs.size()));
  for (const auto& b : blobs) write_state_blob(w, b);
  return w.take();
}

Result<PollReply> PollReply::deserialize(const Bytes& data) {
  Reader r(data);
  auto flag = r.u8();
  if (!flag) return flag.error();
  auto n = read_count(r, 6, "poll reply");
  if (!n) return n.error();
  PollReply rep;
  rep.fresh = *flag != 0;
  rep.blobs.reserve(*n);
  for (std::uint32_t i = 0; i < *n; ++i) {
    auto b = read_state_blob(r);
    if (!b) return b.error();
    rep.blobs.push_back(std::move(*b));
  }
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
  w.u32(static_cast<std::uint32_t>(members.size()));
  for (const auto& m : members) write_endpoint(w, m);
}

Result<View> View::read(Reader& r) {
  View v;
  auto gen = r.u64();
  if (!gen) return gen.error();
  v.generation = *gen;
  auto leader = read_endpoint(r);
  if (!leader) return leader.error();
  v.leader = std::move(*leader);
  auto n = read_count(r, 6, "view member list");
  if (!n) return n.error();
  v.members.reserve(*n);
  for (std::uint32_t i = 0; i < *n; ++i) {
    auto m = read_endpoint(r);
    if (!m) return m.error();
    v.members.push_back(std::move(*m));
  }
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

namespace {
void write_endpoint_list(Writer& w, const std::vector<Endpoint>& list) {
  w.u32(static_cast<std::uint32_t>(list.size()));
  for (const auto& e : list) write_endpoint(w, e);
}

Result<std::vector<Endpoint>> read_endpoint_list(Reader& r) {
  auto n = read_count(r, 6, "endpoint list");
  if (!n) return n.error();
  std::vector<Endpoint> out;
  out.reserve(*n);
  for (std::uint32_t i = 0; i < *n; ++i) {
    auto e = read_endpoint(r);
    if (!e) return e.error();
    out.push_back(std::move(*e));
  }
  return out;
}
}  // namespace

Bytes Token::serialize() const {
  Writer w;
  w.u64(round);
  view.write(w);
  write_endpoint_list(w, visited);
  write_endpoint_list(w, suspects);
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
  auto visited = read_endpoint_list(r);
  if (!visited) return visited.error();
  t.visited = std::move(*visited);
  auto suspects = read_endpoint_list(r);
  if (!suspects) return suspects.error();
  t.suspects = std::move(*suspects);
  return t;
}

}  // namespace ew::gossip
