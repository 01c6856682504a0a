#include "core/scheduler.hpp"

#include <algorithm>
#include <vector>

#include "common/log.hpp"
#include "core/persistent_state.hpp"
#include "gossip/state.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace ew::core {

namespace {

constexpr double kOverdueFactor = 5.0;  // multiples of forecast report interval
constexpr double kMigrationRatio = 0.25;  // slow if forecast < ratio * pool median
/// A client's workload is moved at most once per cooldown — permanently
/// slow resources (interpreted Java applets) must not thrash the pool.
constexpr Duration kMigrationCooldown = 30 * kMinute;
/// Frontier checkpoint cadence to the persistent state manager (the
/// scheduler's soft state rebuilds from re-registrations, but search
/// progress must survive a restart).
constexpr Duration kCheckpointPeriod = 5 * kMinute;

void erase_unit(std::vector<std::uint64_t>& units, std::uint64_t id) {
  units.erase(std::remove(units.begin(), units.end(), id), units.end());
}

}  // namespace

SchedulerServer::SchedulerServer(Node& node, Options opts)
    : node_(node),
      opts_(opts),
      pool_(opts.pool, opts.pool_shards) {}

void SchedulerServer::start() {
  if (running_) return;
  running_ = true;
  pool_.set_kind_chooser(
      [this](std::uint64_t unit_id) { return choose_kind(unit_id); });
  node_.handle(msgtype::kSchedRegister,
               [this](const IncomingMessage& m, Responder r) { on_register(m, r); });
  node_.handle(msgtype::kSchedReportBatch,
               [this](const IncomingMessage& m, Responder r) { on_report_batch(m, r); });
  sweep_timer_ = node_.executor().schedule(opts_.sweep_period, [this] { sweep_tick(); });
  migrate_timer_ =
      node_.executor().schedule(opts_.migration_period, [this] { migrate_tick(); });
  if (opts_.state_manager.valid()) {
    restore_frontier();
    checkpoint_timer_ = node_.executor().schedule(kCheckpointPeriod,
                                                  [this] { checkpoint_tick(); });
  }
}

void SchedulerServer::stop() {
  if (!running_) return;
  running_ = false;
  node_.executor().cancel(sweep_timer_);
  node_.executor().cancel(migrate_timer_);
  node_.executor().cancel(checkpoint_timer_);
}

std::string SchedulerServer::checkpoint_name(std::uint32_t shard) const {
  return "sched/frontier/" + node_.self().to_string() + "/shard-" +
         std::to_string(shard);
}

std::uint32_t SchedulerServer::clamp_want(std::uint32_t want) const {
  return std::clamp<std::uint32_t>(want, 1, opts_.max_units_per_client);
}

void SchedulerServer::note_unit_issued(std::uint64_t unit_id) {
  if (unit_id == 0 || !obs::trace().enabled()) return;
  obs::trace().record(node_.executor().now(), obs::SpanKind::kSchedUnitIssued,
                      obs::trace().intern(node_.self().to_string()),
                      static_cast<std::int64_t>(unit_id));
}

void SchedulerServer::note_unit_reclaimed(std::uint64_t unit_id,
                                          std::int64_t reason) {
  if (unit_id == 0 || !obs::trace().enabled()) return;
  obs::trace().record(node_.executor().now(),
                      obs::SpanKind::kSchedUnitReclaimed,
                      obs::trace().intern(node_.self().to_string()),
                      static_cast<std::int64_t>(unit_id), reason);
}

void SchedulerServer::update_pool_gauges() {
  obs::registry().gauge(obs::names::kSchedOutstandingUnits)
      .set(static_cast<double>(pool_.assigned_count()));
  obs::registry().gauge(obs::names::kSchedFrontierUnits)
      .set(static_cast<double>(pool_.idle_frontier_size()));
  const std::uint64_t steals = pool_.steals();
  if (steals > steals_seen_) {
    obs::registry().counter(obs::names::kSchedShardSteals)
        .inc(steals - steals_seen_);
    steals_seen_ = steals;
  }
}

void SchedulerServer::checkpoint_tick() {
  if (!running_) return;
  checkpoint_timer_ = node_.executor().schedule(kCheckpointPeriod,
                                                [this] { checkpoint_tick(); });
  // Incremental: only shards whose frontier content changed since their last
  // export are stored, each under its own per-shard name.
  for (std::uint32_t k = 0; k < pool_.shard_count(); ++k) {
    if (!pool_.shard_dirty(k)) continue;
    StoreRequest req;
    req.name = checkpoint_name(k);
    // Version by current time: monotonically fresher across restarts too.
    req.blob = gossip::versioned_blob(
        static_cast<std::uint64_t>(node_.executor().now()),
        pool_.export_shard(k));
    // Checkpoint stores are versioned, so a duplicate arrival is harmless and
    // a retry is pure upside.
    CallOptions ckpt;
    ckpt.retry = RetryPolicy::standard(2);
    ckpt.trace_tag = "sched.checkpoint";
    node_.call(opts_.state_manager, msgtype::kStateStore, req.serialize(),
               std::move(ckpt), [](Result<Bytes>) {});
  }
}

void SchedulerServer::restore_frontier() {
  // One fetch per shard: a restarted scheduler re-imports each shard's
  // checkpoint into exactly that shard, which refuses ids outside its range
  // — recovery replays only the slice that belongs there.
  for (std::uint32_t k = 0; k < pool_.shard_count(); ++k) {
    Writer w;
    w.str(checkpoint_name(k));
    // A missed restore silently loses the frontier, so spend retries — and a
    // hedge once the fetch RTT is known — before giving up on it.
    CallOptions fetch;
    fetch.retry = RetryPolicy::standard(3);
    fetch.hedge = HedgePolicy::at(0.95);
    fetch.trace_tag = "sched.restore";
    node_.call(opts_.state_manager, msgtype::kStateFetch, w.take(),
               std::move(fetch), [this, k](Result<Bytes> r) {
                 if (!running_) return;
                 if (!r.ok()) return;  // no checkpoint yet: fresh start
                 auto body = gossip::blob_body(*r);
                 if (!body) return;
                 const std::size_t n = pool_.import_shard(k, *body);
                 restored_ += n;
                 if (n > 0) {
                   EW_DEBUG << node_.self().to_string() << ": restored " << n
                            << " frontier units into shard " << k
                            << " from checkpoint";
                 }
               });
  }
}

void SchedulerServer::on_register(const IncomingMessage& msg, const Responder& resp) {
  auto hello = ClientHello::deserialize(msg.packet.payload);
  if (!hello) {
    resp.fail(Err::kProtocol, hello.error().message);
    return;
  }
  // A re-registration from a client we thought was active means it lost its
  // work (eviction, restart): reclaim the old lease first.
  auto it = clients_.find(hello->client);
  if (it != clients_.end() && !it->second.units.empty()) {
    for (auto id : it->second.units) {
      note_unit_reclaimed(id, obs::reclaim::kReleased);
    }
    pool_.reclaim_many(it->second.units);
  }
  ClientInfo info;
  info.hello = std::move(*hello);
  info.want = clamp_want(info.hello.want_units);
  info.last_report = node_.executor().now();
  DirectiveBatch d;
  d.assign = pool_.issue_many(info.want);
  info.units.reserve(d.assign.size());
  for (const auto& spec : d.assign) {
    info.units.push_back(spec.unit_id);
    note_unit_issued(spec.unit_id);
  }
  obs::registry().counter(obs::names::kSchedDispatches).inc(d.assign.size());
  if (obs::trace().enabled()) {
    obs::trace().record(node_.executor().now(), obs::SpanKind::kSchedDispatch,
                        obs::trace().intern(msg.from.to_string()),
                        /*a=register=*/0,
                        static_cast<std::int64_t>(clients_.size() + 1));
  }
  clients_[info.hello.client] = std::move(info);
  update_pool_gauges();
  resp.ok(d.serialize());
}

void SchedulerServer::on_report_batch(const IncomingMessage& msg,
                                      const Responder& resp) {
  auto parsed = ReportBatch::deserialize(msg.packet.payload);
  if (!parsed) {
    resp.fail(Err::kProtocol, parsed.error().message);
    return;
  }
  const ReportBatch& batch = *parsed;
  auto it = clients_.find(batch.client);
  if (it == clients_.end()) {
    // We do not know this client (scheduler restarted, or the client was
    // swept). Make it re-register rather than guessing.
    resp.fail(Err::kRejected, "unregistered client");
    return;
  }
  ClientInfo& info = it->second;
  // Hedged/retried duplicate: replay the cached reply, touch nothing. This
  // is what makes the batch call safe to hedge — the pool mutations below
  // run exactly once per sequence number.
  if (batch.seq != 0 && batch.seq == info.last_seq) {
    ++replays_;
    obs::registry().counter(obs::names::kSchedBatchReplays).inc();
    resp.ok(Bytes(info.last_reply));
    return;
  }
  ++batches_;
  reports_ += batch.reports.size();
  obs::registry().counter(obs::names::kSchedReports).inc(batch.reports.size());
  obs::registry().counter(obs::names::kSchedBatchReports).inc();
  const TimePoint now = node_.executor().now();
  const Duration gap = now - info.last_report;
  info.last_report = now;

  std::uint64_t total_ops = 0;
  std::uint64_t batch_best = ~0ULL;
  bool any_found = false;
  for (const auto& rep : batch.reports) {
    total_ops += rep.ops_done;
    batch_best = std::min(batch_best, rep.best_energy);
    any_found = any_found || rep.found;
  }
  if (gap > 0) {
    info.interval.observe(static_cast<double>(gap));
    info.rate.observe(static_cast<double>(total_ops) / to_seconds(gap));
  }
  // Progress accounting per heuristic kind, against the unit's energy just
  // before the pool absorbs each report: the directive policy steers fresh
  // units toward whichever algorithm has been buying the most energy
  // reduction per op.
  pool_.report_many(
      batch.reports,
      [this](const ramsey::WorkReport& rep, ramsey::HeuristicKind kind,
             std::optional<std::uint64_t> prev) {
        KindStats& ks = kind_stats_[static_cast<std::size_t>(kind)];
        if (prev && rep.best_energy < *prev) {
          ks.improvement += static_cast<double>(*prev - rep.best_energy);
        }
        ks.gops += static_cast<double>(rep.ops_done) / 1e9;
      });
  for (const auto& rep : batch.reports) {
    note_best(rep.best_energy, rep.best_graph, rep.found);
    if (rep.found) store_counterexample(rep);
  }
  if (!batch.reports.empty()) {
    forward_log(info, total_ops, batch_best == ~0ULL ? 0 : batch_best,
                any_found);
  }

  info.want = clamp_want(batch.want_units);
  DirectiveBatch d = std::move(info.pending);
  info.pending = DirectiveBatch{};
  // Top the lease back up to the client's target.
  if (info.units.size() < info.want) {
    auto specs = pool_.issue_many(info.want - info.units.size());
    for (auto& spec : specs) {
      info.units.push_back(spec.unit_id);
      note_unit_issued(spec.unit_id);
      d.assign.push_back(std::move(spec));
    }
  }
  if (!d.assign.empty()) {
    obs::registry().counter(obs::names::kSchedDispatches).inc(d.assign.size());
    if (obs::trace().enabled()) {
      obs::trace().record(now, obs::SpanKind::kSchedDispatch,
                          obs::trace().intern(batch.client.to_string()),
                          /*a=redirect=*/1,
                          static_cast<std::int64_t>(clients_.size()));
    }
  }
  Bytes reply = d.serialize();
  if (batch.seq != 0) {
    info.last_seq = batch.seq;
    info.last_reply = reply;
  }
  update_pool_gauges();
  resp.ok(std::move(reply));
}

void SchedulerServer::forward_log(const ClientInfo& info,
                                  std::uint64_t total_ops,
                                  std::uint64_t best_energy, bool found) {
  if (!opts_.logging.valid()) return;
  LogRecord rec;
  rec.when = node_.executor().now();
  rec.client = info.hello.client;
  rec.infra = info.hello.infra;
  rec.host = info.hello.host;
  rec.ops = total_ops;
  rec.best_energy = best_energy;
  rec.found = found;
  node_.send_oneway(opts_.logging, msgtype::kLogRecord, rec.serialize());
}

void SchedulerServer::store_counterexample(const ramsey::WorkReport& rep) {
  if (!opts_.state_manager.valid() || rep.best_graph.empty()) return;
  StoreRequest req;
  req.name = best_graph_name(opts_.pool.n, opts_.pool.k);
  req.blob = gossip::versioned_blob(~rep.best_energy,
                                    make_best_graph_body(rep.best_graph, rep.found));
  // A counter-example is the whole point of the computation; retry hard.
  CallOptions store;
  store.retry = RetryPolicy::standard(3);
  store.trace_tag = "sched.counterexample";
  node_.call(opts_.state_manager, msgtype::kStateStore, req.serialize(),
             std::move(store), [this](Result<Bytes> r) {
               if (!running_) return;
               if (r.ok()) ++found_stored_;
             });
}

void SchedulerServer::note_best(std::uint64_t energy, const Bytes& graph_blob,
                                bool found) {
  if (graph_blob.empty() || energy >= best_energy_) return;
  best_energy_ = energy;
  ++best_version_;
  Writer body;
  body.u64(energy);
  body.boolean(found);
  body.blob(graph_blob);
  // Version is the bitwise complement of energy: the gossip default
  // version-prefix comparator then treats lower energy as fresher, with no
  // cross-scheduler version coordination needed.
  best_graph_ = gossip::versioned_blob(~energy, body.take());
}

Bytes SchedulerServer::best_graph_state() const {
  if (best_graph_.empty()) {
    return gossip::versioned_blob(0, {});  // "know nothing" placeholder
  }
  return best_graph_;
}

void SchedulerServer::apply_best_graph_state(const Bytes& blob) {
  auto body = gossip::blob_body(blob);
  if (!body || body->empty()) return;
  Reader r(*body);
  auto energy = r.u64();
  if (!energy) return;
  auto found = r.boolean();
  if (!found) return;
  auto graph = r.blob();
  if (!graph) return;
  if (*energy < best_energy_) {
    best_energy_ = *energy;
    best_graph_ = blob;
  }
}

ramsey::HeuristicKind SchedulerServer::choose_kind(std::uint64_t unit_id) const {
  // Epsilon-greedy over observed yield: every fourth unit explores a
  // rotating kind; the rest run the best performer. Until every kind has
  // meaningful spend, rotate so the comparison is fair.
  if (unit_id % 4 == 0) {
    return static_cast<ramsey::HeuristicKind>((unit_id / 4) % 3);
  }
  for (const auto& ks : kind_stats_) {
    if (ks.gops < 1.0) return static_cast<ramsey::HeuristicKind>(unit_id % 3);
  }
  std::size_t best = 0;
  for (std::size_t k = 1; k < kind_stats_.size(); ++k) {
    if (kind_stats_[k].yield() > kind_stats_[best].yield()) best = k;
  }
  return static_cast<ramsey::HeuristicKind>(best);
}

Duration SchedulerServer::overdue_threshold(const ClientInfo& info) const {
  const Forecast f = info.interval.forecast();
  if (f.samples < 2) return opts_.overdue_floor;
  const auto d = static_cast<Duration>(kOverdueFactor * f.value);
  return std::max(d, opts_.overdue_floor);
}

void SchedulerServer::sweep_tick() {
  if (!running_) return;
  const TimePoint now = node_.executor().now();
  for (auto it = clients_.begin(); it != clients_.end();) {
    if (now - it->second.last_report > overdue_threshold(it->second)) {
      // Presumed dead (reclaimed host, network partition, browser closed).
      // Its whole lease goes back to the pool with whatever colorings it
      // last reported — the work, unlike the process, survives.
      for (auto id : it->second.units) {
        note_unit_reclaimed(id, obs::reclaim::kPresumedDead);
      }
      pool_.reclaim_many(it->second.units);
      ++presumed_dead_;
      obs::registry().counter(obs::names::kSchedPresumedDead).inc();
      it = clients_.erase(it);
    } else {
      ++it;
    }
  }
  update_pool_gauges();
  sweep_timer_ = node_.executor().schedule(opts_.sweep_period, [this] { sweep_tick(); });
}

void SchedulerServer::migrate_tick() {
  if (!running_) return;
  migrate_timer_ =
      node_.executor().schedule(opts_.migration_period, [this] { migrate_tick(); });
  if (clients_.size() < 2) return;

  // Forecast every client's rate; compute the median.
  const TimePoint now = node_.executor().now();
  std::vector<std::pair<double, Endpoint>> rates;
  for (const auto& [ep, info] : clients_) {
    const Forecast f = info.rate.forecast();
    if (f.samples >= 2 && info.pending.empty()) rates.emplace_back(f.value, ep);
  }
  if (rates.size() < 2) return;
  std::sort(rates.begin(), rates.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const double median = rates[rates.size() / 2].first;
  const auto slow_it = std::find_if(rates.begin(), rates.end(), [&](const auto& r) {
    return now - clients_.at(r.second).last_migration >= kMigrationCooldown;
  });
  if (slow_it == rates.end()) return;
  const auto& [slow_rate, slow_ep] = *slow_it;
  if (slow_rate >= kMigrationRatio * median) return;

  ClientInfo& slow = clients_.at(slow_ep);
  slow.last_migration = now;
  // Units worth carrying over: those with reported state, best energy first.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> cand;  // (energy, id)
  for (auto id : slow.units) {
    if (const auto e = pool_.best_energy(id)) cand.emplace_back(*e, id);
  }
  if (cand.empty()) return;
  std::sort(cand.begin(), cand.end());

  // "It may choose to migrate that client's current workload to a machine
  // that it predicts will be faster": the fastest other client takes over up
  // to half the slow client's reported lease (resuming the colorings); the
  // slow client's lease refills with fresh streams at its next report.
  auto fast_it = std::find_if(rates.rbegin(), rates.rend(), [&](const auto& r) {
    return !(r.second == slow_ep);
  });
  if (fast_it == rates.rend()) return;
  ClientInfo& fast = clients_.at(fast_it->second);
  const std::vector<std::uint64_t> fast_before = fast.units;

  const std::size_t moves = std::max<std::size_t>(1, cand.size() / 2);
  std::vector<std::uint64_t> move_ids;
  move_ids.reserve(moves);
  for (std::size_t i = 0; i < moves && i < cand.size(); ++i) {
    move_ids.push_back(cand[i].second);
  }
  for (auto id : move_ids) note_unit_reclaimed(id, obs::reclaim::kMigrated);
  pool_.reclaim_many(move_ids);
  std::size_t moved = 0;
  for (auto id : move_ids) {
    auto spec = pool_.issue_unit(id);
    if (!spec) continue;  // trimmed from the frontier between release/issue
    note_unit_issued(id);
    erase_unit(slow.units, id);
    slow.pending.revoke.push_back(id);
    fast.units.push_back(id);
    fast.pending.assign.push_back(std::move(*spec));
    ++moved;
  }
  if (moved == 0) return;
  // Keep the fast client at its lease target: revoke one of its original
  // units per takeover (the old swap semantics at want == 1).
  for (auto id : fast_before) {
    if (fast.units.size() <= fast.want) break;
    note_unit_reclaimed(id, obs::reclaim::kMigrated);
    pool_.reclaim_many(std::span<const std::uint64_t>(&id, 1));
    erase_unit(fast.units, id);
    fast.pending.revoke.push_back(id);
  }
  obs::registry().counter(obs::names::kSchedUnitsRevoked)
      .inc(slow.pending.revoke.size() + fast.pending.revoke.size());
  ++migrations_;
  obs::registry().counter(obs::names::kSchedMigrations).inc();
  if (obs::trace().enabled()) {
    obs::trace().record(now, obs::SpanKind::kSchedMigration,
                        obs::trace().intern(slow_ep.to_string()),
                        static_cast<std::int64_t>(migrations_),
                        static_cast<std::int64_t>(moved));
  }
  EW_DEBUG << "scheduler: migrating " << moved << " unit(s) from "
           << slow_ep.to_string() << " to " << fast_it->second.to_string();
}

}  // namespace ew::core
