// TcpTransport: the lingua franca over real TCP sockets.
//
// Each frame on the wire is a standard EveryWare packet whose payload is
// prefixed with (source endpoint, destination endpoint) routing — this lets
// any number of components share one process and, crucially, lets replies
// reuse the connection a request arrived on (components are not always
// re-connectable across the federated environments of Section 5).
//
// All methods must be called on the owning Reactor's thread; one process may
// run many transports on many reactor shards (net/shard_pool.hpp), each
// strictly confined to its own shard. Connections are created lazily on
// first send and cached per peer endpoint. Dialling is asynchronous: send()
// starts a non-blocking connect, queues the frame, and returns — a dead or
// black-holed peer never stalls the event loop; the connect verdict arrives
// through a writable watcher (or the connect timer) and a failed dial simply
// tears the connection down, dropping its queued frames. Reliability above
// that is the job of the time-out / retry machinery in Node and the
// forecasting layer.
//
// The wire path is built to touch bytes once per direction:
//   * send — encode_routed_frame() writes header + routing + payload into
//     one exact-size buffer; frames queue in a per-connection ring of owned
//     buffers and leave via scatter-gather sendmsg (several frames per
//     syscall, no prefix-compaction memmove, no coalescing copy);
//   * receive — recv(2) lands directly in the FrameParser's reassembly
//     buffer (FrameParser::recv_buffer) and frames are dispatched as
//     zero-copy views; the payload is copied out only once a bound local
//     endpoint actually takes delivery.
//
// Backpressure is explicit: each connection's outbox is bounded
// (set_max_outbox_bytes), and a send that would overflow it fails
// synchronously with Err::kOverloaded (counted in net.backpressure_rejects)
// instead of buffering without limit against a slow or stalled peer.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "net/reactor.hpp"
#include "net/transport.hpp"
#include "obs/registry.hpp"

namespace ew {

/// Single-allocation encode of a routed wire frame: packet header +
/// (src, dst) routing prefix + payload, written in place with the checksum
/// patched in after the bytes it covers. This is the transport's send-path
/// encoder; exposed so benches and tests can pin its cost and wire shape.
Bytes encode_routed_frame(const Packet& p, const Endpoint& src,
                          const Endpoint& dst);

class TcpTransport final : public Transport {
 public:
  /// `metrics_label` tags this transport's net.* instruments — per-shard
  /// deployments pass "shard=K" so each shard's gauges/counters are visible
  /// individually. The unlabelled process-wide instruments are always
  /// updated too (by atomic delta, so shards sum instead of clobbering).
  explicit TcpTransport(Reactor& reactor, std::string_view metrics_label = {});
  ~TcpTransport() override;
  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  Status bind(const Endpoint& self, PacketHandler handler) override;
  void unbind(const Endpoint& self) override;
  Status send(const Endpoint& from, const Endpoint& to, Packet packet) override;

  /// Bind listeners with SO_REUSEPORT so several transports (one per
  /// reactor shard) can share one port and let the kernel spread inbound
  /// connections across them. Affects subsequent bind() calls.
  void set_reuse_port(bool on) { reuse_port_ = on; }

  /// Budget for an asynchronous dial to complete (default 2 s). The dial
  /// itself never blocks the reactor; this bounds how long queued frames
  /// wait on an unresponsive peer before the connection is abandoned.
  void set_connect_timeout(Duration d) { connect_timeout_ = d; }

  /// Per-connection outbox ceiling in bytes (default 64 MiB, which admits a
  /// few maximum-size frames). Sends that would exceed it fail with
  /// Err::kOverloaded.
  void set_max_outbox_bytes(std::size_t n) { max_outbox_bytes_ = n; }

  [[nodiscard]] std::size_t open_connections() const { return conns_.size(); }
  /// Bytes queued across every connection's outbox (backpressure signal).
  [[nodiscard]] std::size_t queued_bytes() const { return total_outbox_bytes_; }

 private:
  struct Conn {
    std::uint64_t id = 0;  // unique per Conn; guards against fd-number reuse
    Fd fd;
    FrameParser parser;
    /// Outbox ring: whole encoded frames, oldest first. Flushed by
    /// scatter-gather sendmsg; `outbox_head` is how much of the front frame
    /// already left. Fully-sent frames pop — no compaction memmove, ever.
    std::deque<Bytes> outbox;
    std::size_t outbox_head = 0;
    std::size_t outbox_bytes = 0;  // unsent bytes across the ring
    Endpoint peer;  // last known routable address of the other side
    bool writable_watched = false;
    bool connecting = false;             // dial started, verdict pending
    TimerId connect_timer = kInvalidTimer;
  };
  struct Listener {
    Fd fd;
    PacketHandler handler;
    /// Set while accepting is paused for lack of descriptors.
    TimerId rewatch_timer = kInvalidTimer;
  };

  Status flush(int fd);
  void close_conn(int fd);
  void on_conn_readable(int fd);
  void on_conn_writable(int fd);
  void on_listener_readable(int listener_fd);
  void watch_listener(int listener_fd);
  Listener* listener_for(int listener_fd);
  void dispatch_frames(int fd);
  int ensure_connection(const Endpoint& to, Status& status);
  /// Adjust the shared outbox accounting (and its gauges) by +/- delta. The
  /// gauges aggregate by delta so several transports in one process — on
  /// one shard or across shards — sum instead of clobbering each other
  /// (Gauge::add is a CAS loop, safe under concurrent shard threads).
  void account_outbox(std::ptrdiff_t delta);
  void account_conns(double delta);

  Reactor& reactor_;
  Duration connect_timeout_ = 2 * kSecond;
  std::size_t max_outbox_bytes_ = 64 * 1024 * 1024;
  std::size_t total_outbox_bytes_ = 0;
  std::uint64_t next_conn_id_ = 1;
  bool reuse_port_ = false;
  std::unordered_map<Endpoint, Listener, EndpointHash> listeners_;
  std::unordered_map<int, Conn> conns_;                       // keyed by fd
  std::unordered_map<Endpoint, int, EndpointHash> peer_conn_;  // peer -> fd
  obs::Counter* backpressure_rejects_;
  obs::Counter* frames_truncated_;
  obs::Counter* accept_errors_;
  obs::Gauge* conns_open_;
  obs::Gauge* outbox_bytes_;
  // Per-shard labelled twins (null when no metrics label was given).
  obs::Counter* backpressure_rejects_shard_ = nullptr;
  obs::Counter* frames_truncated_shard_ = nullptr;
  obs::Gauge* conns_open_shard_ = nullptr;
  obs::Gauge* outbox_bytes_shard_ = nullptr;
};

}  // namespace ew
