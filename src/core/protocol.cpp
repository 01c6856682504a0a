#include "core/protocol.hpp"

namespace ew::core {

const char* infra_name(Infra i) {
  switch (i) {
    case Infra::kUnix: return "Unix";
    case Infra::kGlobus: return "Globus";
    case Infra::kLegion: return "Legion";
    case Infra::kCondor: return "Condor";
    case Infra::kNT: return "NT";
    case Infra::kJava: return "Java";
    case Infra::kNetSolve: return "Netsolve";
  }
  return "Unknown";
}

Bytes ClientHello::serialize() const {
  Writer w;
  write_envelope(w, kSchedWireVersion, msgtype::kSchedRegister);
  gossip::write_endpoint(w, client);
  w.u8(static_cast<std::uint8_t>(infra));
  w.str(host);
  w.u32(want_units);
  return w.take();
}

Result<ClientHello> ClientHello::deserialize(const Bytes& data) {
  Reader r(data);
  auto hdr =
      read_envelope(r, kSchedWireVersion, msgtype::kSchedRegister, "sched");
  if (!hdr) return hdr.error();
  ClientHello h;
  auto ep = gossip::read_endpoint(r);
  if (!ep) return ep.error();
  h.client = std::move(*ep);
  auto infra = r.u8();
  if (!infra) return infra.error();
  if (*infra >= kInfraCount) return Error{Err::kProtocol, "bad infra id"};
  h.infra = static_cast<Infra>(*infra);
  auto host = r.str();
  if (!host) return host.error();
  h.host = std::move(*host);
  auto want = r.u32();
  if (!want) return want.error();
  if (*want == 0 || *want > kMaxSchedBatch) {
    return Error{Err::kProtocol, "bad lease size"};
  }
  h.want_units = *want;
  return h;
}

Bytes ReportBatch::serialize() const {
  Writer w;
  write_envelope(w, kSchedWireVersion, msgtype::kSchedReportBatch);
  gossip::write_endpoint(w, client);
  w.u64(seq);
  w.u32(want_units);
  write_list(w, reports, &ramsey::WorkReport::write);
  return w.take();
}

Result<ReportBatch> ReportBatch::deserialize(const Bytes& data) {
  Reader r(data);
  auto hdr =
      read_envelope(r, kSchedWireVersion, msgtype::kSchedReportBatch, "sched");
  if (!hdr) return hdr.error();
  ReportBatch b;
  auto ep = gossip::read_endpoint(r);
  if (!ep) return ep.error();
  b.client = std::move(*ep);
  auto seq = r.u64();
  if (!seq) return seq.error();
  b.seq = *seq;
  auto want = r.u32();
  if (!want) return want.error();
  if (*want == 0 || *want > kMaxSchedBatch) {
    return Error{Err::kProtocol, "bad lease size"};
  }
  b.want_units = *want;
  auto reports = read_list<ramsey::WorkReport>(
      r, kMaxSchedBatch, ramsey::WorkReport::kMinWire, "report batch",
      &ramsey::WorkReport::read);
  if (!reports) return reports.error();
  b.reports = std::move(*reports);
  return b;
}

Bytes DirectiveBatch::serialize() const {
  Writer w;
  write_envelope(w, kSchedWireVersion, msgtype::kSchedDirectiveBatch);
  write_list(w, revoke, &Writer::u64);
  write_list(w, assign, &ramsey::WorkSpec::write);
  return w.take();
}

Result<DirectiveBatch> DirectiveBatch::deserialize(const Bytes& data) {
  Reader r(data);
  auto hdr = read_envelope(r, kSchedWireVersion,
                           msgtype::kSchedDirectiveBatch, "sched");
  if (!hdr) return hdr.error();
  DirectiveBatch d;
  auto revoke = read_list<std::uint64_t>(
      r, kMaxSchedBatch, sizeof(std::uint64_t), "revoke list", &Reader::u64);
  if (!revoke) return revoke.error();
  d.revoke = std::move(*revoke);
  auto assign = read_list<ramsey::WorkSpec>(
      r, kMaxSchedBatch, ramsey::WorkSpec::kMinWire, "assign list",
      &ramsey::WorkSpec::read);
  if (!assign) return assign.error();
  d.assign = std::move(*assign);
  return d;
}

Bytes LogRecord::serialize() const {
  Writer w;
  w.i64(when);
  gossip::write_endpoint(w, client);
  w.u8(static_cast<std::uint8_t>(infra));
  w.str(host);
  w.u64(ops);
  w.u64(best_energy);
  w.boolean(found);
  return w.take();
}

Result<LogRecord> LogRecord::deserialize(const Bytes& data) {
  Reader r(data);
  LogRecord rec;
  auto when = r.i64();
  if (!when) return when.error();
  rec.when = *when;
  auto ep = gossip::read_endpoint(r);
  if (!ep) return ep.error();
  rec.client = std::move(*ep);
  auto infra = r.u8();
  if (!infra) return infra.error();
  if (*infra >= kInfraCount) return Error{Err::kProtocol, "bad infra id"};
  rec.infra = static_cast<Infra>(*infra);
  auto host = r.str();
  if (!host) return host.error();
  rec.host = std::move(*host);
  auto ops = r.u64();
  if (!ops) return ops.error();
  rec.ops = *ops;
  auto be = r.u64();
  if (!be) return be.error();
  rec.best_energy = *be;
  auto found = r.boolean();
  if (!found) return found.error();
  rec.found = *found;
  return rec;
}

Bytes MetricsSnapshot::serialize() const {
  Writer w;
  w.i64(when);
  gossip::write_endpoint(w, source);
  w.str(json);
  return w.take();
}

Result<MetricsSnapshot> MetricsSnapshot::deserialize(const Bytes& data) {
  Reader r(data);
  MetricsSnapshot snap;
  auto when = r.i64();
  if (!when) return when.error();
  snap.when = *when;
  auto ep = gossip::read_endpoint(r);
  if (!ep) return ep.error();
  snap.source = std::move(*ep);
  auto json = r.str();
  if (!json) return json.error();
  snap.json = std::move(*json);
  return snap;
}

Bytes StoreRequest::serialize() const {
  Writer w;
  w.str(name);
  w.blob(blob);
  return w.take();
}

Result<StoreRequest> StoreRequest::deserialize(const Bytes& data) {
  Reader r(data);
  StoreRequest s;
  auto name = r.str();
  if (!name) return name.error();
  s.name = std::move(*name);
  auto blob = r.blob();
  if (!blob) return blob.error();
  s.blob = std::move(*blob);
  return s;
}

}  // namespace ew::core
