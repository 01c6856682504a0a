#include "wish/protocol.hpp"

#include "common/hash.hpp"

namespace ew::wish {

void JobSpec::write(Writer& w) const {
  w.str(command);
  w.i64(runtime);
}

Result<JobSpec> JobSpec::read(Reader& r) {
  JobSpec s;
  auto cmd = r.str();
  if (!cmd) return cmd.error();
  s.command = std::move(*cmd);
  auto rt = r.i64();
  if (!rt) return rt.error();
  if (*rt < 0) return Error{Err::kProtocol, "negative job runtime"};
  s.runtime = *rt;
  return s;
}

Bytes SpawnRequest::serialize() const {
  Writer w;
  write_envelope(w, kWishWireVersion, msgtype::kJobSpawn);
  gossip::write_endpoint(w, owner);
  write_list(w, jobs, &JobSpec::write);
  return w.take();
}

Result<SpawnRequest> SpawnRequest::deserialize(const Bytes& data) {
  Reader r(data);
  auto hdr = read_envelope(r, kWishWireVersion, msgtype::kJobSpawn, "wish");
  if (!hdr) return hdr.error();
  SpawnRequest req;
  auto ep = gossip::read_endpoint(r);
  if (!ep) return ep.error();
  req.owner = std::move(*ep);
  auto jobs = read_list<JobSpec>(r, kMaxWishBatch, JobSpec::kMinWire,
                                 "spawn batch", &JobSpec::read);
  if (!jobs) return jobs.error();
  if (jobs->empty()) return Error{Err::kProtocol, "empty spawn batch"};
  req.jobs = std::move(*jobs);
  return req;
}

Bytes SpawnReply::serialize() const {
  Writer w;
  write_envelope(w, kWishWireVersion, msgtype::kJobSpawn);
  w.u64(incarnation);
  write_list(w, ids, &Writer::u64);
  return w.take();
}

Result<SpawnReply> SpawnReply::deserialize(const Bytes& data) {
  Reader r(data);
  auto hdr = read_envelope(r, kWishWireVersion, msgtype::kJobSpawn, "wish");
  if (!hdr) return hdr.error();
  SpawnReply rep;
  auto inc = r.u64();
  if (!inc) return inc.error();
  rep.incarnation = *inc;
  auto ids = read_list<std::uint64_t>(r, kMaxWishBatch, sizeof(std::uint64_t),
                                      "id list", &Reader::u64);
  if (!ids) return ids.error();
  rep.ids = std::move(*ids);
  return rep;
}

Bytes PollRequest::serialize() const {
  Writer w;
  write_envelope(w, kWishWireVersion, msgtype::kJobPoll);
  write_list(w, ids, &Writer::u64);
  return w.take();
}

Result<PollRequest> PollRequest::deserialize(const Bytes& data) {
  Reader r(data);
  auto hdr = read_envelope(r, kWishWireVersion, msgtype::kJobPoll, "wish");
  if (!hdr) return hdr.error();
  PollRequest req;
  auto ids = read_list<std::uint64_t>(r, kMaxWishBatch, sizeof(std::uint64_t),
                                      "poll id list", &Reader::u64);
  if (!ids) return ids.error();
  req.ids = std::move(*ids);
  return req;
}

void JobStatus::write(Writer& w) const {
  w.u64(id);
  w.u8(static_cast<std::uint8_t>(state));
  w.i64(exit_code);
}

Result<JobStatus> JobStatus::read(Reader& r) {
  JobStatus s;
  auto id = r.u64();
  if (!id) return id.error();
  s.id = *id;
  auto st = r.u8();
  if (!st) return st.error();
  if (*st >= kJobStateCount) return Error{Err::kProtocol, "bad job state"};
  s.state = static_cast<JobState>(*st);
  auto ec = r.i64();
  if (!ec) return ec.error();
  s.exit_code = *ec;
  return s;
}

Bytes PollReply::serialize() const {
  Writer w;
  write_envelope(w, kWishWireVersion, msgtype::kJobPoll);
  w.u64(incarnation);
  write_list(w, jobs, &JobStatus::write);
  return w.take();
}

Result<PollReply> PollReply::deserialize(const Bytes& data) {
  Reader r(data);
  auto hdr = read_envelope(r, kWishWireVersion, msgtype::kJobPoll, "wish");
  if (!hdr) return hdr.error();
  PollReply rep;
  auto inc = r.u64();
  if (!inc) return inc.error();
  rep.incarnation = *inc;
  auto jobs = read_list<JobStatus>(r, kMaxWishBatch, JobStatus::kMinWire,
                                   "status list", &JobStatus::read);
  if (!jobs) return jobs.error();
  rep.jobs = std::move(*jobs);
  return rep;
}

Bytes SignalRequest::serialize() const {
  Writer w;
  write_envelope(w, kWishWireVersion, msgtype::kJobSignal);
  w.u64(id);
  w.u8(signum);
  return w.take();
}

Result<SignalRequest> SignalRequest::deserialize(const Bytes& data) {
  Reader r(data);
  auto hdr = read_envelope(r, kWishWireVersion, msgtype::kJobSignal, "wish");
  if (!hdr) return hdr.error();
  SignalRequest req;
  auto id = r.u64();
  if (!id) return id.error();
  req.id = *id;
  auto sig = r.u8();
  if (!sig) return sig.error();
  req.signum = *sig;
  return req;
}

Bytes SignalReply::serialize() const {
  Writer w;
  write_envelope(w, kWishWireVersion, msgtype::kJobSignal);
  w.u8(static_cast<std::uint8_t>(state));
  return w.take();
}

Result<SignalReply> SignalReply::deserialize(const Bytes& data) {
  Reader r(data);
  auto hdr = read_envelope(r, kWishWireVersion, msgtype::kJobSignal, "wish");
  if (!hdr) return hdr.error();
  SignalReply rep;
  auto st = r.u8();
  if (!st) return st.error();
  if (*st >= kJobStateCount) return Error{Err::kProtocol, "bad job state"};
  rep.state = static_cast<JobState>(*st);
  return rep;
}

Bytes ReapRequest::serialize() const {
  Writer w;
  write_envelope(w, kWishWireVersion, msgtype::kJobReap);
  write_list(w, ids, &Writer::u64);
  return w.take();
}

Result<ReapRequest> ReapRequest::deserialize(const Bytes& data) {
  Reader r(data);
  auto hdr = read_envelope(r, kWishWireVersion, msgtype::kJobReap, "wish");
  if (!hdr) return hdr.error();
  ReapRequest req;
  auto ids = read_list<std::uint64_t>(r, kMaxWishBatch, sizeof(std::uint64_t),
                                      "reap id list", &Reader::u64);
  if (!ids) return ids.error();
  req.ids = std::move(*ids);
  return req;
}

Bytes ReapReply::serialize() const {
  Writer w;
  write_envelope(w, kWishWireVersion, msgtype::kJobReap);
  w.u32(reaped);
  return w.take();
}

Result<ReapReply> ReapReply::deserialize(const Bytes& data) {
  Reader r(data);
  auto hdr = read_envelope(r, kWishWireVersion, msgtype::kJobReap, "wish");
  if (!hdr) return hdr.error();
  ReapReply rep;
  auto n = r.u32();
  if (!n) return n.error();
  rep.reaped = *n;
  return rep;
}

Bytes EnvSetRequest::serialize() const {
  Writer w;
  write_envelope(w, kWishWireVersion, msgtype::kEnvSet);
  w.str(key);
  w.str(value);
  return w.take();
}

Result<EnvSetRequest> EnvSetRequest::deserialize(const Bytes& data) {
  Reader r(data);
  auto hdr = read_envelope(r, kWishWireVersion, msgtype::kEnvSet, "wish");
  if (!hdr) return hdr.error();
  EnvSetRequest req;
  auto key = r.str();
  if (!key) return key.error();
  if (key->empty()) return Error{Err::kProtocol, "empty env key"};
  req.key = std::move(*key);
  auto value = r.str();
  if (!value) return value.error();
  req.value = std::move(*value);
  return req;
}

Bytes EnvSetReply::serialize() const {
  Writer w;
  write_envelope(w, kWishWireVersion, msgtype::kEnvSet);
  w.u64(version);
  return w.take();
}

Result<EnvSetReply> EnvSetReply::deserialize(const Bytes& data) {
  Reader r(data);
  auto hdr = read_envelope(r, kWishWireVersion, msgtype::kEnvSet, "wish");
  if (!hdr) return hdr.error();
  EnvSetReply rep;
  auto v = r.u64();
  if (!v) return v.error();
  rep.version = *v;
  return rep;
}

Bytes EnvGetRequest::serialize() const {
  Writer w;
  write_envelope(w, kWishWireVersion, msgtype::kEnvGet);
  w.str(key);
  return w.take();
}

Result<EnvGetRequest> EnvGetRequest::deserialize(const Bytes& data) {
  Reader r(data);
  auto hdr = read_envelope(r, kWishWireVersion, msgtype::kEnvGet, "wish");
  if (!hdr) return hdr.error();
  EnvGetRequest req;
  auto key = r.str();
  if (!key) return key.error();
  req.key = std::move(*key);
  return req;
}

Bytes EnvGetReply::serialize() const {
  Writer w;
  write_envelope(w, kWishWireVersion, msgtype::kEnvGet);
  w.boolean(found);
  w.str(value);
  w.u64(version);
  return w.take();
}

Result<EnvGetReply> EnvGetReply::deserialize(const Bytes& data) {
  Reader r(data);
  auto hdr = read_envelope(r, kWishWireVersion, msgtype::kEnvGet, "wish");
  if (!hdr) return hdr.error();
  EnvGetReply rep;
  auto found = r.boolean();
  if (!found) return found.error();
  rep.found = *found;
  auto value = r.str();
  if (!value) return value.error();
  rep.value = std::move(*value);
  auto v = r.u64();
  if (!v) return v.error();
  rep.version = *v;
  return rep;
}

Bytes BarrierEnter::serialize() const {
  Writer w;
  write_envelope(w, kWishWireVersion, msgtype::kBarrierEnter);
  w.str(name);
  w.u64(epoch);
  w.u32(expected);
  gossip::write_endpoint(w, participant);
  w.boolean(released_seen);
  return w.take();
}

Result<BarrierEnter> BarrierEnter::deserialize(const Bytes& data) {
  Reader r(data);
  auto hdr = read_envelope(r, kWishWireVersion, msgtype::kBarrierEnter, "wish");
  if (!hdr) return hdr.error();
  BarrierEnter e;
  auto name = r.str();
  if (!name) return name.error();
  if (name->empty()) return Error{Err::kProtocol, "empty barrier name"};
  e.name = std::move(*name);
  auto epoch = r.u64();
  if (!epoch) return epoch.error();
  e.epoch = *epoch;
  auto expected = r.u32();
  if (!expected) return expected.error();
  if (*expected == 0 || *expected > kMaxWishBatch) {
    return Error{Err::kProtocol, "bad barrier width"};
  }
  e.expected = *expected;
  auto ep = gossip::read_endpoint(r);
  if (!ep) return ep.error();
  e.participant = std::move(*ep);
  auto seen = r.boolean();
  if (!seen) return seen.error();
  e.released_seen = *seen;
  return e;
}

Bytes BarrierEnterReply::serialize() const {
  Writer w;
  write_envelope(w, kWishWireVersion, msgtype::kBarrierEnter);
  w.boolean(released);
  w.u64(coordinator_incarnation);
  return w.take();
}

Result<BarrierEnterReply> BarrierEnterReply::deserialize(const Bytes& data) {
  Reader r(data);
  auto hdr = read_envelope(r, kWishWireVersion, msgtype::kBarrierEnter, "wish");
  if (!hdr) return hdr.error();
  BarrierEnterReply rep;
  auto rel = r.boolean();
  if (!rel) return rel.error();
  rep.released = *rel;
  auto inc = r.u64();
  if (!inc) return inc.error();
  rep.coordinator_incarnation = *inc;
  return rep;
}

Bytes BarrierRelease::serialize() const {
  Writer w;
  write_envelope(w, kWishWireVersion, msgtype::kBarrierRelease);
  w.str(name);
  w.u64(epoch);
  return w.take();
}

Result<BarrierRelease> BarrierRelease::deserialize(const Bytes& data) {
  Reader r(data);
  auto hdr =
      read_envelope(r, kWishWireVersion, msgtype::kBarrierRelease, "wish");
  if (!hdr) return hdr.error();
  BarrierRelease rel;
  auto name = r.str();
  if (!name) return name.error();
  rel.name = std::move(*name);
  auto epoch = r.u64();
  if (!epoch) return epoch.error();
  rel.epoch = *epoch;
  return rel;
}

Bytes LeaderClaim::serialize() const {
  Writer w;
  write_envelope(w, kWishWireVersion, msgtype::kLeaderClaim);
  w.str(name);
  w.u64(epoch);
  w.str(claimant);
  return w.take();
}

Result<LeaderClaim> LeaderClaim::deserialize(const Bytes& data) {
  Reader r(data);
  auto hdr = read_envelope(r, kWishWireVersion, msgtype::kLeaderClaim, "wish");
  if (!hdr) return hdr.error();
  LeaderClaim c;
  auto name = r.str();
  if (!name) return name.error();
  if (name->empty()) return Error{Err::kProtocol, "empty leader name"};
  c.name = std::move(*name);
  auto epoch = r.u64();
  if (!epoch) return epoch.error();
  c.epoch = *epoch;
  auto claimant = r.str();
  if (!claimant) return claimant.error();
  if (claimant->empty()) return Error{Err::kProtocol, "empty claimant"};
  c.claimant = std::move(*claimant);
  return c;
}

Bytes LeaderReply::serialize() const {
  Writer w;
  write_envelope(w, kWishWireVersion, msgtype::kLeaderClaim);
  w.str(winner);
  w.u64(coordinator_incarnation);
  return w.take();
}

Result<LeaderReply> LeaderReply::deserialize(const Bytes& data) {
  Reader r(data);
  auto hdr = read_envelope(r, kWishWireVersion, msgtype::kLeaderClaim, "wish");
  if (!hdr) return hdr.error();
  LeaderReply rep;
  auto winner = r.str();
  if (!winner) return winner.error();
  rep.winner = std::move(*winner);
  auto inc = r.u64();
  if (!inc) return inc.error();
  rep.coordinator_incarnation = *inc;
  return rep;
}

Bytes ScatterRequest::serialize() const {
  Writer w;
  write_envelope(w, kWishWireVersion, msgtype::kScatter);
  w.str(name);
  w.u64(epoch);
  w.blob(payload);
  write_list(w, subtree, gossip::write_endpoint);
  return w.take();
}

Result<ScatterRequest> ScatterRequest::deserialize(const Bytes& data) {
  Reader r(data);
  auto hdr = read_envelope(r, kWishWireVersion, msgtype::kScatter, "wish");
  if (!hdr) return hdr.error();
  ScatterRequest req;
  auto name = r.str();
  if (!name) return name.error();
  req.name = std::move(*name);
  auto epoch = r.u64();
  if (!epoch) return epoch.error();
  req.epoch = *epoch;
  auto payload = r.blob();
  if (!payload) return payload.error();
  req.payload = std::move(*payload);
  auto subtree =
      read_list<Endpoint>(r, kMaxWishBatch, gossip::kEndpointMinWire,
                          "scatter subtree", gossip::read_endpoint);
  if (!subtree) return subtree.error();
  req.subtree = std::move(*subtree);
  return req;
}

Bytes ScatterReply::serialize() const {
  Writer w;
  write_envelope(w, kWishWireVersion, msgtype::kScatter);
  w.u32(delivered);
  w.u64(checksum);
  return w.take();
}

Result<ScatterReply> ScatterReply::deserialize(const Bytes& data) {
  Reader r(data);
  auto hdr = read_envelope(r, kWishWireVersion, msgtype::kScatter, "wish");
  if (!hdr) return hdr.error();
  ScatterReply rep;
  auto n = r.u32();
  if (!n) return n.error();
  rep.delivered = *n;
  auto cs = r.u64();
  if (!cs) return cs.error();
  rep.checksum = *cs;
  return rep;
}

std::uint64_t scatter_fold(const Endpoint& self, const Bytes& payload) {
  std::uint64_t h = fnv1a64(self.to_string());
  h ^= fnv1a64(std::string_view(
      reinterpret_cast<const char*>(payload.data()), payload.size()));
  return h;
}

}  // namespace ew::wish
