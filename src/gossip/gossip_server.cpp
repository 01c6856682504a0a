#include "gossip/gossip_server.hpp"

#include <algorithm>
#include <string_view>

#include "common/log.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace ew::gossip {

namespace {
constexpr int kDropAfterMisses = 5;  // consecutive poll failures

const char* merge_counter_name(MergeOutcome o) {
  switch (o) {
    case MergeOutcome::kNew: return obs::names::kGossipMergeNew;
    case MergeOutcome::kFresher: return obs::names::kGossipMergeFresher;
    case MergeOutcome::kEqual: return obs::names::kGossipMergeEqual;
    case MergeOutcome::kStale: return obs::names::kGossipMergeStale;
    case MergeOutcome::kMerged: return obs::names::kGossipMergeMerged;
  }
  return obs::names::kGossipMergeEqual;
}

void sort_types(std::vector<MsgType>& types) {
  std::sort(types.begin(), types.end());
  types.erase(std::unique(types.begin(), types.end()), types.end());
}
}  // namespace

GossipServer::GossipServer(Node& node, const ComparatorRegistry& comparators,
                           std::vector<Endpoint> well_known_gossips,
                           Options opts)
    : node_(node),
      well_known_(std::move(well_known_gossips)),
      opts_(opts),
      clique_id_(clique_of_gossip(node.self(), well_known_, opts.num_cliques)),
      clique_pool_(clique_members(well_known_, opts.num_cliques, clique_id_)),
      clique_(node, clique_pool_, opts.clique),
      store_(comparators) {
  if (opts_.num_cliques > 1) {
    CliqueMember::Options po = opts_.clique;
    po.msg_base =
        static_cast<MsgType>(msgtype::kToken + msgtype::kParentTierOffset);
    // The parent tier probes the whole pool: leaders change, so there is no
    // stable leaders-only address list. Non-leaders' parent members are
    // stopped and refuse the traffic, so only current leaders stay in the
    // parent view.
    parent_ = std::make_unique<CliqueMember>(node_, well_known_, po);
  }
}

void GossipServer::start() {
  if (running_) return;
  running_ = true;
  // A Gossip fans out to every registered component each poll period; a
  // dead component would otherwise cost a full time-out per batch per tick.
  // The breaker sheds those polls fast and probes for recovery, and a shed
  // poll counts as a miss below just like a timed-out one.
  node_.call_policy().set_breaker_enabled(true);
  node_.handle(msgtype::kRegister, [this](const IncomingMessage& m, Responder r) {
    on_register(m, r);
  });
  node_.handle(msgtype::kRegForward,
               [this](const IncomingMessage& m, Responder r) { on_reg_forward(m, r); });
  node_.handle(msgtype::kDigest, [this](const IncomingMessage& m, Responder r) {
    on_digest(m, r);
  });
  node_.handle(msgtype::kDelta, [this](const IncomingMessage& m, Responder r) {
    on_delta(m, r);
  });
  if (parent_) {
    node_.handle(msgtype::kParentDigest,
                 [this](const IncomingMessage& m, Responder r) {
                   on_parent_digest(m, r);
                 });
    clique_.on_view_change([this](const View&) { update_parent_membership(); });
  }
  clique_.start();
  poll_timer_ = node_.executor().schedule(opts_.poll_period, [this] { poll_tick(); });
  sync_timer_ =
      node_.executor().schedule(opts_.peer_sync_period, [this] { peer_sync_tick(); });
  if (parent_) {
    parent_timer_ = node_.executor().schedule(opts_.parent_sync_period,
                                              [this] { parent_sync_tick(); });
  }
}

void GossipServer::stop() {
  if (!running_) return;
  running_ = false;
  if (parent_ && parent_running_) {
    parent_running_ = false;
    parent_->stop();
  }
  clique_.stop();
  node_.executor().cancel(poll_timer_);
  node_.executor().cancel(sync_timer_);
  node_.executor().cancel(parent_timer_);
}

void GossipServer::update_parent_membership() {
  if (!parent_ || !running_) return;
  const bool lead = clique_.is_leader();
  if (lead && !parent_running_) {
    parent_running_ = true;
    parent_->start();
  } else if (!lead && parent_running_) {
    parent_running_ = false;
    parent_->stop();
  }
}

bool GossipServer::responsible_for(const Endpoint& component) const {
  const auto& members = clique_.view().members;
  if (members.empty()) return true;
  const std::string item = component.to_string();
  const Endpoint* best = nullptr;
  std::uint64_t best_w = 0;
  for (const auto& m : members) {
    const std::uint64_t w = rendezvous_weight(m.to_string(), item);
    if (best == nullptr || w > best_w || (w == best_w && m < *best)) {
      best = &m;
      best_w = w;
    }
  }
  return best != nullptr && *best == node_.self();
}

std::string GossipServer::clique_label() const {
  return "clique=" + std::to_string(clique_id_);
}

void GossipServer::mark_dirty() {
  if (!dirty_) {
    dirty_ = true;
    sync_rounds_dirty_ = 0;
  }
}

void GossipServer::note_clean_exchange() {
  if (!dirty_) return;
  dirty_ = false;
  last_convergence_rounds_ = sync_rounds_dirty_;
  obs::registry().histogram(obs::names::kGossipConvergenceRounds)
      .record(sync_rounds_dirty_);
  if (opts_.num_cliques > 1) {
    obs::registry()
        .histogram(obs::names::kGossipConvergenceRounds, clique_label())
        .record(sync_rounds_dirty_);
  }
  sync_rounds_dirty_ = 0;
}

void GossipServer::record_digest_bytes(std::size_t bytes) {
  digest_bytes_max_ = std::max<std::uint64_t>(digest_bytes_max_, bytes);
  obs::registry().histogram(obs::names::kGossipDigestBytes).record(bytes);
  if (opts_.num_cliques > 1) {
    obs::registry()
        .histogram(obs::names::kGossipDigestBytes, clique_label())
        .record(bytes);
  }
}

bool GossipServer::admit(const Registration& reg) {
  Registration mine;
  mine.component = reg.component;
  for (MsgType t : reg.types) {
    if (owns_type(t)) mine.types.push_back(t);
  }
  sort_types(mine.types);
  if (mine.types.empty()) return false;
  auto& entry = registry_[mine.component];
  const bool changed = entry.reg.types != mine.types;
  entry.reg = std::move(mine);
  entry.lease_expiry = node_.executor().now() + opts_.lease;
  entry.misses = 0;
  if (changed) mark_dirty();
  return true;
}

void GossipServer::on_register(const IncomingMessage& msg, const Responder& resp) {
  auto reg = Registration::deserialize(msg.packet.payload);
  if (!reg) {
    resp.fail(Err::kProtocol, reg.error().message);
    return;
  }
  resp.ok();
  // Route each type to its home clique: the slice we own is admitted and
  // broadcast inside our clique; foreign slices forward to every member of
  // their home clique (volatile-but-replicated state, §2.3).
  std::map<std::uint32_t, Registration> split;
  for (MsgType t : reg->types) {
    auto& sub = split[home_clique(t, opts_.num_cliques)];
    sub.component = reg->component;
    sub.types.push_back(t);
  }
  for (auto& [k, sub] : split) {
    sort_types(sub.types);
    if (k == clique_id_) {
      admit(sub);
      for (const auto& peer : clique_.view().members) {
        if (peer == node_.self()) continue;
        node_.send_oneway(peer, msgtype::kRegForward, sub.serialize());
      }
    } else {
      for (const auto& peer : clique_members(well_known_, opts_.num_cliques, k)) {
        if (peer == node_.self()) continue;
        node_.send_oneway(peer, msgtype::kRegForward, sub.serialize());
      }
    }
  }
}

void GossipServer::on_reg_forward(const IncomingMessage& msg, const Responder& resp) {
  auto reg = Registration::deserialize(msg.packet.payload);
  if (!reg) {
    resp.fail(Err::kProtocol, reg.error().message);
    return;
  }
  admit(*reg);
  resp.ok();
}

std::uint64_t GossipServer::reg_rollup_checksum() const {
  // XOR of per-registration hashes: order-independent, and any admitted,
  // dropped, or re-typed registration flips the rollup.
  std::uint64_t acc = 0;
  for (const auto& [ep, entry] : registry_) {
    const Bytes wire = entry.reg.serialize();
    acc ^= fnv1a64(std::string_view(reinterpret_cast<const char*>(wire.data()),
                                    wire.size()));
  }
  return acc;
}

Digest GossipServer::make_digest() const {
  Digest d;
  d.clique = clique_id_;
  d.summaries = store_.summary();
  d.reg_count = registry_.size();
  d.reg_checksum = reg_rollup_checksum();
  return d;
}

MergeOutcome GossipServer::absorb(const StateBlob& blob) {
  const MergeOutcome o = store_.merge(blob);
  ++merge_counts_[static_cast<std::size_t>(o)];
  obs::registry().counter(merge_counter_name(o)).inc();
  if (opts_.num_cliques > 1) {
    obs::registry().counter(merge_counter_name(o), clique_label()).inc();
  }
  if (merge_accepted(o)) {
    ++states_absorbed_;
    obs::registry().counter(obs::names::kGossipStatesAbsorbed).inc();
    mark_dirty();
  }
  return o;
}

void GossipServer::on_digest(const IncomingMessage& msg, const Responder& resp) {
  auto digest = Digest::deserialize(msg.packet.payload);
  if (!digest) {
    resp.fail(Err::kProtocol, digest.error().message);
    return;
  }
  record_digest_bytes(msg.packet.payload.size());
  Delta reply;
  reply.clique = clique_id_;
  reply.blobs = store_.blobs_fresher_than(digest->summaries);
  reply.want = store_.types_stale_against(digest->summaries);
  if (digest->reg_count != registry_.size() ||
      digest->reg_checksum != reg_rollup_checksum()) {
    for (const auto& [ep, entry] : registry_) {
      reply.registrations.push_back(entry.reg);  // std::map → sorted, deterministic
    }
  }
  if (reply.blobs.empty() && reply.want.empty() && reply.registrations.empty()) {
    note_clean_exchange();
  }
  if (!reply.blobs.empty()) {
    delta_blobs_sent_ += reply.blobs.size();
    obs::registry().counter(obs::names::kGossipDeltaBlobs).inc(reply.blobs.size());
    if (opts_.num_cliques > 1) {
      obs::registry()
          .counter(obs::names::kGossipDeltaBlobs, clique_label())
          .inc(reply.blobs.size());
    }
  }
  resp.ok(reply.serialize());
}

void GossipServer::on_delta(const IncomingMessage& msg, const Responder& resp) {
  auto delta = Delta::deserialize(msg.packet.payload);
  if (!delta) {
    resp.fail(Err::kProtocol, delta.error().message);
    return;
  }
  if (obs::trace().enabled()) {
    obs::trace().record(node_.executor().now(), obs::SpanKind::kGossipDelta,
                        obs::trace().intern(node_.self().to_string()),
                        static_cast<std::int64_t>(delta->blobs.size()),
                        static_cast<std::int64_t>(delta->registrations.size()));
  }
  for (const auto& reg : delta->registrations) admit(reg);
  for (const auto& b : delta->blobs) absorb(b);
  resp.ok();
}

void GossipServer::push_delta(const Endpoint& peer,
                              const std::vector<MsgType>& want,
                              bool include_regs) {
  Delta d;
  d.clique = clique_id_;
  for (MsgType t : want) {
    if (auto b = store_.get(t)) d.blobs.push_back(std::move(*b));
  }
  if (include_regs) {
    for (const auto& [ep, entry] : registry_) d.registrations.push_back(entry.reg);
  }
  if (d.blobs.empty() && d.registrations.empty()) return;
  delta_blobs_sent_ += d.blobs.size();
  obs::registry().counter(obs::names::kGossipDeltaBlobs).inc(d.blobs.size());
  if (opts_.num_cliques > 1) {
    obs::registry()
        .counter(obs::names::kGossipDeltaBlobs, clique_label())
        .inc(d.blobs.size());
  }
  if (obs::trace().enabled()) {
    obs::trace().record(node_.executor().now(), obs::SpanKind::kGossipDelta,
                        obs::trace().intern(peer.to_string()),
                        static_cast<std::int64_t>(d.blobs.size()),
                        static_cast<std::int64_t>(d.registrations.size()));
  }
  // A delta push is an idempotent merge at the receiver; retries are safe.
  CallOptions opts;
  opts.retry = RetryPolicy::standard(2);
  opts.trace_tag = "gossip.delta";
  node_.call(peer, msgtype::kDelta, d.serialize(), std::move(opts),
             [](Result<Bytes>) {});
}

void GossipServer::poll_tick() {
  if (!running_) return;
  const TimePoint now = node_.executor().now();
  // Purge expired leases and hopeless components.
  for (auto it = registry_.begin(); it != registry_.end();) {
    if (it->second.lease_expiry < now || it->second.misses >= kDropAfterMisses) {
      it = registry_.erase(it);
    } else {
      ++it;
    }
  }
  for (const auto& [ep, entry] : registry_) {
    if (!responsible_for(ep)) continue;
    poll_component(ep, entry.reg.types);
  }
  poll_timer_ = node_.executor().schedule(opts_.poll_period, [this] { poll_tick(); });
}

void GossipServer::poll_component(const Endpoint& component,
                                  const std::vector<MsgType>& types) {
  ++polls_sent_;
  obs::registry().counter(obs::names::kGossipPolls).inc();
  if (obs::trace().enabled()) {
    obs::trace().record(node_.executor().now(), obs::SpanKind::kGossipPoll,
                        obs::trace().intern(component.to_string()),
                        static_cast<std::int64_t>(types.size()));
  }
  // One batched poll per component instead of one call per type, carrying
  // our stored (version, checksum) per type so an unchanged component can
  // answer "fresh" without shipping content (the digest cache). Polls are
  // read-only: retry freely, and hedge once the tag has RTT history so one
  // slow component doesn't stall the whole poll round.
  PollRequest req;
  req.held.reserve(types.size());
  for (MsgType type : types) req.held.push_back(store_.summary_of(type));
  CallOptions poll;
  poll.retry = RetryPolicy::standard(2);
  poll.hedge = HedgePolicy::at(0.95);
  poll.trace_tag = "gossip.poll";
  node_.call(
      component, msgtype::kGetStateBatch, req.serialize(),
      std::move(poll), [this, component](Result<Bytes> r) {
        if (!running_) return;
        auto it = registry_.find(component);
        if (!r.ok()) {
          // Transport-level failure (including a breaker shed): the
          // component may be gone. Application rejections don't count.
          if (err_retryable(r.code())) {
            if (it != registry_.end()) ++it->second.misses;
          }
          return;
        }
        if (it != registry_.end()) it->second.misses = 0;
        auto reply = PollReply::deserialize(*r);
        if (!reply) return;
        // A fresh reply proved every exposed type matched: nothing to
        // absorb, nothing to push back.
        if (reply->fresh) return;
        for (const auto& theirs : reply->blobs) {
          if (!merge_sender_stale(absorb(theirs))) continue;
          // The component is out of date (kStale, or kMerged: its copy was
          // missing facts the union now holds): push our fresher copy ("the
          // Gossip sends a fresh state update to the application component
          // that originated the out-of-date message").
          auto fresh = store_.get(theirs.type);
          if (!fresh) continue;
          Writer upd;
          write_state_blob(upd, *fresh);
          ++updates_pushed_;
          obs::registry().counter(obs::names::kGossipUpdatesPushed).inc();
          // Updates carry versioned blobs, so duplicates are no-ops at the
          // receiver and a retry is safe.
          CallOptions push;
          push.retry = RetryPolicy::standard(2);
          push.trace_tag = "gossip.push";
          node_.call(component, msgtype::kStateUpdate, upd.take(),
                     std::move(push), [](Result<Bytes>) {});
        }
      });
}

void GossipServer::peer_sync_tick() {
  if (!running_) return;
  if (dirty_) ++sync_rounds_dirty_;
  const auto& members = clique_.view().members;
  std::vector<Endpoint> peers;
  for (const auto& m : members) {
    if (m != node_.self()) peers.push_back(m);
  }
  if (!peers.empty()) {
    const Endpoint peer = peers[peer_index_++ % peers.size()];
    obs::registry().counter(obs::names::kGossipSyncRounds).inc();
    const Digest digest = make_digest();
    Bytes wire = digest.serialize();
    record_digest_bytes(wire.size());
    if (obs::trace().enabled()) {
      obs::trace().record(node_.executor().now(),
                          obs::SpanKind::kGossipSyncRound,
                          obs::trace().intern(peer.to_string()),
                          static_cast<std::int64_t>(digest.summaries.size()),
                          static_cast<std::int64_t>((peer_index_ - 1) %
                                                    peers.size()));
    }
    // Digest exchange is an idempotent anti-entropy merge; the next tick
    // rotates to another peer anyway, so two attempts suffice.
    CallOptions opts;
    opts.retry = RetryPolicy::standard(2);
    opts.trace_tag = "gossip.digest";
    node_.call(peer, msgtype::kDigest, std::move(wire), std::move(opts),
               [this, peer](Result<Bytes> r) {
                 if (!running_ || !r.ok()) return;
                 auto delta = Delta::deserialize(*r);
                 if (!delta) return;
                 const bool reg_mismatch = !delta->registrations.empty();
                 for (const auto& reg : delta->registrations) admit(reg);
                 for (const auto& b : delta->blobs) absorb(b);
                 if (!delta->want.empty() || reg_mismatch) {
                   push_delta(peer, delta->want, reg_mismatch);
                 }
                 if (delta->blobs.empty() && delta->want.empty() &&
                     !reg_mismatch) {
                   note_clean_exchange();
                 }
               });
  }
  sync_timer_ =
      node_.executor().schedule(opts_.peer_sync_period, [this] { peer_sync_tick(); });
}

void GossipServer::refresh_my_rollup() {
  CliqueSummary me;
  me.clique = clique_id_;
  me.checksum = store_.rollup_checksum() ^ reg_rollup_checksum();
  me.states = store_.size();
  me.components = registry_.size();
  auto it = rollups_.find(clique_id_);
  if (it == rollups_.end()) {
    me.version = 1;
    rollups_.emplace(clique_id_, me);
  } else if (it->second.checksum != me.checksum ||
             it->second.states != me.states ||
             it->second.components != me.components) {
    me.version = it->second.version + 1;
    it->second = me;
  }
}

void GossipServer::merge_rollups(const ParentDigest& d) {
  for (const auto& c : d.cliques) {
    auto it = rollups_.find(c.clique);
    if (it == rollups_.end()) {
      rollups_.emplace(c.clique, c);
    } else if (c.version > it->second.version ||
               (c.version == it->second.version &&
                c.checksum > it->second.checksum)) {
      it->second = c;
    }
  }
}

void GossipServer::on_parent_digest(const IncomingMessage& msg,
                                    const Responder& resp) {
  if (!parent_ || !parent_running_) {
    resp.fail(Err::kRejected, "not a clique leader");
    return;
  }
  auto digest = ParentDigest::deserialize(msg.packet.payload);
  if (!digest) {
    resp.fail(Err::kProtocol, digest.error().message);
    return;
  }
  merge_rollups(*digest);
  refresh_my_rollup();
  ParentDigest reply;
  for (const auto& [k, sum] : rollups_) reply.cliques.push_back(sum);
  resp.ok(reply.serialize());
}

void GossipServer::parent_sync_tick() {
  if (!running_) return;
  if (parent_ && parent_running_) {
    refresh_my_rollup();
    std::vector<Endpoint> peers;
    for (const auto& m : parent_->view().members) {
      if (m != node_.self()) peers.push_back(m);
    }
    if (!peers.empty()) {
      const Endpoint peer = peers[parent_peer_index_++ % peers.size()];
      ParentDigest pd;
      for (const auto& [k, sum] : rollups_) pd.cliques.push_back(sum);
      CallOptions opts;
      opts.retry = RetryPolicy::standard(2);
      opts.trace_tag = "gossip.parent";
      node_.call(peer, msgtype::kParentDigest, pd.serialize(), std::move(opts),
                 [this](Result<Bytes> r) {
                   if (!running_ || !r.ok()) return;
                   auto reply = ParentDigest::deserialize(*r);
                   if (reply) merge_rollups(*reply);
                 });
    }
  }
  parent_timer_ = node_.executor().schedule(opts_.parent_sync_period,
                                            [this] { parent_sync_tick(); });
}

}  // namespace ew::gossip
