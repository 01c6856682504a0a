#include "obs/registry.hpp"

#include <cinttypes>
#include <cstdio>

namespace ew::obs {

void Gauge::add(double d) {
  // CAS loop over the bit pattern; atomic<double>::fetch_add is C++20 but
  // spotty across libstdc++ targets, and this path is never hot.
  std::uint64_t expected = bits_.load(std::memory_order_relaxed);
  for (;;) {
    const std::uint64_t desired =
        std::bit_cast<std::uint64_t>(std::bit_cast<double>(expected) + d);
    if (bits_.compare_exchange_weak(expected, desired,
                                    std::memory_order_relaxed)) {
      return;
    }
  }
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

std::size_t Registry::instrument_count() const {
  std::lock_guard lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

namespace {

void append_quoted(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

void append_f64(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace

std::string Registry::snapshot_json() const {
  std::lock_guard lock(mu_);
  std::string out;
  out.reserve(64 * (counters_.size() + gauges_.size()) +
              256 * histograms_.size() + 64);
  out += "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out.push_back(',');
    first = false;
    append_quoted(out, name);
    out.push_back(':');
    append_u64(out, c->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out.push_back(',');
    first = false;
    append_quoted(out, name);
    out.push_back(':');
    append_f64(out, g->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out.push_back(',');
    first = false;
    append_quoted(out, name);
    out += ":{\"count\":";
    append_u64(out, h->count());
    out += ",\"sum\":";
    append_u64(out, h->sum());
    out += ",\"buckets\":[";
    bool bfirst = true;
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      const std::uint64_t n = h->bucket(b);
      if (n == 0) continue;
      if (!bfirst) out.push_back(',');
      bfirst = false;
      out.push_back('[');
      append_u64(out, Histogram::bucket_upper(b));
      out.push_back(',');
      append_u64(out, n);
      out += "]";
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

void Registry::reset() {
  std::lock_guard lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

const std::vector<const char*>& mandatory_counters() {
  static const std::vector<const char*> kList = {
      names::kNetCallsStarted,    names::kNetCallsOk,
      names::kNetCallsFailed,     names::kNetAttempts,
      names::kNetRetries,         names::kNetHedges,
      names::kNetHedgeWins,       names::kNetHedgeLosses,
      names::kNetTimeoutsFired,   names::kNetLateResponses,
      names::kNetLateRescues,     names::kNetDuplicateResponses,
      names::kNetShortCircuits,   names::kNetBreakerOpened,
      names::kNetFramesCorrupt,   names::kNetFramesTruncated,
      names::kNetBackpressureRejects, names::kNetAcceptErrors,
      names::kGossipSyncRounds,
      names::kGossipPolls,
      names::kGossipUpdatesPushed, names::kGossipStatesAbsorbed,
      names::kGossipDeltaBlobs,   names::kGossipMergeNew,
      names::kGossipMergeFresher, names::kGossipMergeStale,
      names::kGossipMergeEqual,   names::kGossipMergeMerged,
      names::kCliqueTokens,       names::kCliqueRounds,
      names::kCliqueFragmentations, names::kCliqueElections,
      names::kSchedDispatches,    names::kSchedReports,
      names::kSchedMigrations,    names::kSchedPresumedDead,
      names::kSchedBatchReports,  names::kSchedBatchReplays,
      names::kSchedUnitsRevoked,  names::kSchedShardSteals,
      names::kForecastMethodSwitches, names::kAppDroppedSamples,
  };
  return kList;
}

const std::vector<const char*>& mandatory_gauges() {
  static const std::vector<const char*> kList = {
      names::kNetConnsOpen,
      names::kNetOutboxBytes,
      names::kSchedOutstandingUnits,
      names::kSchedFrontierUnits,
  };
  return kList;
}

const std::vector<const char*>& mandatory_histograms() {
  static const std::vector<const char*> kList = {
      names::kNetCallLatencyUs,
      names::kNetTimeoutWaitUs,
      names::kGossipDigestBytes,
      names::kGossipConvergenceRounds,
      names::kSchedDirectiveLatencyUs,
  };
  return kList;
}

Registry& registry() {
  static Registry* r = [] {
    auto* reg = new Registry();
    for (const char* n : mandatory_counters()) reg->counter(n);
    for (const char* n : mandatory_gauges()) reg->gauge(n);
    for (const char* n : mandatory_histograms()) reg->histogram(n);
    return reg;
  }();
  return *r;
}

std::string snapshot_json() { return registry().snapshot_json(); }

}  // namespace ew::obs
