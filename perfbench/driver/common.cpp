#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/rng.hpp"
#include "driver/stats.hpp"
#include "driver/workload.hpp"
#include "net/packet.hpp"

namespace perfbench {

namespace {

std::string render(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string quoted(const std::string& v) {
  std::string q = "\"";
  for (char c : v) {
    if (c == '"' || c == '\\') q.push_back('\\');
    q.push_back(c);
  }
  return q + "\"";
}

}  // namespace

Report& Report::num(const std::string& key, double v) { return raw(key, render(v)); }

Report& Report::integer(const std::string& key, std::uint64_t v) {
  return raw(key, std::to_string(v));
}

Report& Report::flag(const std::string& key, bool v) { return raw(key, v ? "true" : "false"); }

Report& Report::str(const std::string& key, const std::string& v) { return raw(key, quoted(v)); }

Report& Report::list(const std::string& key, const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) s += ',';
    s += render(v[i]);
  }
  return raw(key, s + "]");
}

Report& Report::raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

std::string Report::json() const {
  std::string s = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i) s += ',';
    s += quoted(fields_[i].first);
    s += ':';
    s += fields_[i].second;
  }
  return s + "}";
}

WireCost measure_wire(const std::vector<std::size_t>& payload_sizes, std::uint64_t seed) {
  constexpr std::size_t kMaxFrames = 4096;
  constexpr int kPasses = 7;
  constexpr std::size_t kMinFrames = 1024;
  constexpr std::size_t kMaxBytes = 16 << 20;  // per pass
  // Subsample evenly down to the frame and byte caps, then repeat a short
  // list so one pass is long enough to time.
  std::size_t total = 0;
  for (std::size_t n : payload_sizes) total += n;
  const std::size_t stride = std::max(payload_sizes.size() / kMaxFrames, total / kMaxBytes) + 1;
  std::vector<std::size_t> sizes;
  std::size_t bytes = 0;
  for (std::size_t i = 0; i < payload_sizes.size(); i += stride) {
    sizes.push_back(payload_sizes[i]);
    bytes += payload_sizes[i];
  }
  if (sizes.empty()) return {};
  for (std::size_t i = 0; sizes.size() < kMinFrames && bytes < kMaxBytes / 4; ++i) {
    sizes.push_back(sizes[i]);
    bytes += sizes[i];
  }

  ew::Rng rng(seed ^ 0x9E3779B97F4A7C15ull);
  std::vector<ew::Packet> packets(sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    packets[i].kind = ew::PacketKind::kRequest;
    packets[i].type = 0x77;
    packets[i].seq = i + 1;
    packets[i].payload.resize(sizes[i]);
    for (auto& b : packets[i].payload) b = static_cast<std::uint8_t>(rng.next_u64());
  }
  std::vector<ew::Bytes> frames(packets.size());
  std::vector<double> encode, parse;
  std::uint64_t sink = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < packets.size(); ++i) frames[i] = ew::encode_packet(packets[i]);
    const std::int64_t t1 = now_ns();
    ew::FrameParser parser;
    for (const ew::Bytes& f : frames) {
      parser.feed(f);
      auto view = parser.next_view();
      if (!view.ok()) std::abort();  // the wire layer rejected its own frame
      sink += view->payload.size();
    }
    const std::int64_t t2 = now_ns();
    const auto n = static_cast<double>(frames.size());
    encode.push_back(static_cast<double>(t1 - t0) / n);
    parse.push_back(static_cast<double>(t2 - t1) / n);
  }
  if (sink == 0 && sizes.front() != 0) std::abort();
  return {percentile(encode, 0.5), percentile(parse, 0.5)};
}

}  // namespace perfbench
