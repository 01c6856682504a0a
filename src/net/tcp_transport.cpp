#include "net/tcp_transport.hpp"

#include <array>
#include <utility>

#include "common/log.hpp"
#include "common/serialize.hpp"

namespace ew {

namespace {

/// Routing prefix parsed straight off a frame view. The endpoints own their
/// strings (they outlive the handler call); `body` stays a view into the
/// parser's buffer and is copied only on delivery.
struct RoutedView {
  Endpoint src;
  Endpoint dst;
  std::span<const std::uint8_t> body;
};

Result<RoutedView> unroute_view(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  auto sh = r.str();
  if (!sh) return sh.error();
  auto sp = r.u16();
  if (!sp) return sp.error();
  auto dh = r.str();
  if (!dh) return dh.error();
  auto dp = r.u16();
  if (!dp) return dp.error();
  RoutedView out;
  out.src = Endpoint{std::move(*sh), *sp};
  out.dst = Endpoint{std::move(*dh), *dp};
  out.body = r.rest();
  return out;
}

/// Frames fed to one sendmsg(2); matches the iovec cap in send_some.
constexpr std::size_t kFlushBatch = 64;

/// Pause before a listener that ran out of descriptors tries accept again.
constexpr Duration kAcceptBackoff = 50 * kMillisecond;

}  // namespace

Bytes encode_routed_frame(const Packet& p, const Endpoint& src,
                          const Endpoint& dst) {
  // Wire payload = routing prefix + application payload; sized exactly so
  // the whole frame is one allocation written front to back.
  const std::size_t routing =
      4 + src.host.size() + 2 + 4 + dst.host.size() + 2;
  const std::size_t wire_len = routing + p.payload.size();
  Writer w(wire::kHeaderSize + wire_len);
  w.u32(wire::kMagic);
  w.u8(wire::kVersion);
  w.u8(static_cast<std::uint8_t>(p.kind));
  w.u16(p.type);
  w.u64(p.seq);
  w.u32(static_cast<std::uint32_t>(wire_len));
  w.u32(0);  // checksum placeholder — covers bytes not yet written
  w.str(src.host);
  w.u16(src.port);
  w.str(dst.host);
  w.u16(dst.port);
  w.raw(p.payload);
  w.patch_u32(wire::kHeaderSize - 4,
              wire::checksum(p.type, p.seq,
                             std::span<const std::uint8_t>(w.bytes())
                                 .subspan(wire::kHeaderSize)));
  return w.take();
}

TcpTransport::TcpTransport(Reactor& reactor, std::string_view metrics_label)
    : reactor_(reactor),
      backpressure_rejects_(
          &obs::registry().counter(obs::names::kNetBackpressureRejects)),
      frames_truncated_(
          &obs::registry().counter(obs::names::kNetFramesTruncated)),
      accept_errors_(&obs::registry().counter(obs::names::kNetAcceptErrors)),
      conns_open_(&obs::registry().gauge(obs::names::kNetConnsOpen)),
      outbox_bytes_(&obs::registry().gauge(obs::names::kNetOutboxBytes)) {
  if (!metrics_label.empty()) {
    auto& reg = obs::registry();
    backpressure_rejects_shard_ =
        &reg.counter(obs::names::kNetBackpressureRejects, metrics_label);
    frames_truncated_shard_ =
        &reg.counter(obs::names::kNetFramesTruncated, metrics_label);
    conns_open_shard_ = &reg.gauge(obs::names::kNetConnsOpen, metrics_label);
    outbox_bytes_shard_ =
        &reg.gauge(obs::names::kNetOutboxBytes, metrics_label);
  }
}

TcpTransport::~TcpTransport() {
  for (auto& [ep, l] : listeners_) {
    reactor_.unwatch_readable(l.fd.get());
    reactor_.cancel(l.rewatch_timer);
  }
  for (auto& [fd, c] : conns_) {
    reactor_.unwatch_readable(fd);
    if (c.writable_watched) reactor_.unwatch_writable(fd);
    if (c.connect_timer != kInvalidTimer) reactor_.cancel(c.connect_timer);
  }
  account_conns(-static_cast<double>(conns_.size()));
  account_outbox(-static_cast<std::ptrdiff_t>(total_outbox_bytes_));
}

void TcpTransport::account_outbox(std::ptrdiff_t delta) {
  total_outbox_bytes_ = static_cast<std::size_t>(
      static_cast<std::ptrdiff_t>(total_outbox_bytes_) + delta);
  outbox_bytes_->add(static_cast<double>(delta));
  if (outbox_bytes_shard_ != nullptr) {
    outbox_bytes_shard_->add(static_cast<double>(delta));
  }
}

void TcpTransport::account_conns(double delta) {
  conns_open_->add(delta);
  if (conns_open_shard_ != nullptr) conns_open_shard_->add(delta);
}

Status TcpTransport::bind(const Endpoint& self, PacketHandler handler) {
  if (listeners_.contains(self)) {
    return Status(Err::kRejected, "endpoint already bound: " + self.to_string());
  }
  auto fd = tcp_listen(self.port, /*backlog=*/4096, reuse_port_);
  if (!fd) return fd.error();
  const int raw = fd->get();
  listeners_.emplace(self, Listener{std::move(*fd), std::move(handler)});
  watch_listener(raw);
  return {};
}

void TcpTransport::unbind(const Endpoint& self) {
  auto it = listeners_.find(self);
  if (it == listeners_.end()) return;
  reactor_.unwatch_readable(it->second.fd.get());
  reactor_.cancel(it->second.rewatch_timer);
  listeners_.erase(it);
}

int TcpTransport::ensure_connection(const Endpoint& to, Status& status) {
  if (auto it = peer_conn_.find(to); it != peer_conn_.end()) return it->second;
  auto started = tcp_connect_start(to);
  if (!started) {
    status = started.error();
    return -1;
  }
  const int raw = started->fd.get();
  const std::uint64_t id = next_conn_id_++;
  Conn conn;
  conn.id = id;
  conn.fd = std::move(started->fd);
  conn.peer = to;
  conn.connecting = !started->completed;
  conns_.emplace(raw, std::move(conn));
  peer_conn_[to] = raw;
  account_conns(1);
  reactor_.watch_readable(raw, [this, raw] { on_conn_readable(raw); });
  if (!started->completed) {
    // The handshake verdict selects writable (success and failure alike);
    // the timer bounds a peer that answers with silence. Both guards check
    // the conn id: the fd number may belong to a different connection by
    // the time they run.
    Conn& c = conns_.at(raw);
    c.writable_watched = true;
    reactor_.watch_writable(raw, [this, raw] { on_conn_writable(raw); });
    c.connect_timer = reactor_.schedule(connect_timeout_, [this, raw, id] {
      auto cit = conns_.find(raw);
      if (cit == conns_.end() || cit->second.id != id) return;
      cit->second.connect_timer = kInvalidTimer;
      if (!cit->second.connecting) return;
      EW_DEBUG << "TcpTransport: connect to " << cit->second.peer.to_string()
               << " timed out";
      close_conn(raw);
    });
  }
  return raw;
}

Status TcpTransport::send(const Endpoint& from, const Endpoint& to, Packet packet) {
  Status status;
  const int fd = ensure_connection(to, status);
  if (fd < 0) return status;
  Bytes frame = encode_routed_frame(packet, from, to);
  auto& conn = conns_.at(fd);
  if (conn.outbox_bytes + frame.size() > max_outbox_bytes_) {
    backpressure_rejects_->inc();
    if (backpressure_rejects_shard_ != nullptr) {
      backpressure_rejects_shard_->inc();
    }
    return Status(Err::kOverloaded,
                  "outbox full to " + to.to_string() + " (" +
                      std::to_string(conn.outbox_bytes) + " bytes pending)");
  }
  conn.outbox_bytes += frame.size();
  account_outbox(static_cast<std::ptrdiff_t>(frame.size()));
  conn.outbox.push_back(std::move(frame));
  // Still dialling: the frame rides the outbox until the handshake verdict
  // arrives via on_conn_writable. Queueing is success — delivery was never
  // guaranteed (see Transport::send).
  if (conn.connecting) return {};
  return flush(fd);
}

Status TcpTransport::flush(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return Status(Err::kClosed, "connection gone");
  Conn& c = it->second;
  while (!c.outbox.empty()) {
    // Gather the head of the ring into one sendmsg: the front frame from
    // its partial-send offset, then whole frames. No bytes move — the
    // iovecs point straight at the queued buffers.
    std::array<std::span<const std::uint8_t>, kFlushBatch> segs;
    std::size_t nsegs = 0;
    std::size_t attempted = 0;
    for (const Bytes& f : c.outbox) {
      std::span<const std::uint8_t> seg(f);
      if (nsegs == 0) seg = seg.subspan(c.outbox_head);
      segs[nsegs++] = seg;
      attempted += seg.size();
      if (nsegs == segs.size()) break;
    }
    auto n = send_some(c.fd, std::span(segs.data(), nsegs));
    if (!n) {
      close_conn(fd);
      return n.error();
    }
    if (*n > 0) {
      c.outbox_bytes -= *n;
      account_outbox(-static_cast<std::ptrdiff_t>(*n));
      // Retire fully-sent frames; a partial tail just advances the head
      // offset (the next flush resumes mid-frame, still copy-free).
      std::size_t sent = *n;
      while (sent > 0) {
        const std::size_t front_left = c.outbox.front().size() - c.outbox_head;
        if (sent >= front_left) {
          sent -= front_left;
          c.outbox.pop_front();
          c.outbox_head = 0;
        } else {
          c.outbox_head += sent;
          sent = 0;
        }
      }
    }
    if (*n < attempted) {
      // Socket buffer full (or short write); resume when writable.
      if (!c.writable_watched) {
        c.writable_watched = true;
        reactor_.watch_writable(fd, [this, fd] { on_conn_writable(fd); });
      }
      return {};
    }
  }
  if (c.writable_watched && !c.connecting) {
    c.writable_watched = false;
    reactor_.unwatch_writable(fd);
  }
  return {};
}

void TcpTransport::close_conn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  reactor_.unwatch_readable(fd);
  if (it->second.writable_watched) reactor_.unwatch_writable(fd);
  if (it->second.connect_timer != kInvalidTimer) {
    reactor_.cancel(it->second.connect_timer);
  }
  account_outbox(-static_cast<std::ptrdiff_t>(it->second.outbox_bytes));
  if (it->second.peer.valid()) {
    auto pit = peer_conn_.find(it->second.peer);
    if (pit != peer_conn_.end() && pit->second == fd) peer_conn_.erase(pit);
  }
  conns_.erase(it);
  account_conns(-1);
}

void TcpTransport::on_conn_writable(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& c = it->second;
  if (c.connecting) {
    const Status verdict = tcp_finish_connect(c.fd, c.peer);
    if (!verdict.ok()) {
      EW_DEBUG << "TcpTransport: async connect to " << c.peer.to_string()
               << " failed: " << verdict.to_string();
      close_conn(fd);  // queued frames die with the conn; Node times out
      return;
    }
    c.connecting = false;
    if (c.connect_timer != kInvalidTimer) {
      reactor_.cancel(c.connect_timer);
      c.connect_timer = kInvalidTimer;
    }
  }
  (void)flush(fd);  // drains the outbox; unwatches writable once empty
}

TcpTransport::Listener* TcpTransport::listener_for(int listener_fd) {
  // There are at most a handful of listeners.
  for (auto& [ep, l] : listeners_) {
    if (l.fd.get() == listener_fd) return &l;
  }
  return nullptr;
}

void TcpTransport::watch_listener(int listener_fd) {
  reactor_.watch_readable(
      listener_fd, [this, listener_fd] { on_listener_readable(listener_fd); });
}

void TcpTransport::on_listener_readable(int listener_fd) {
  for (;;) {
    Listener* listener = listener_for(listener_fd);
    if (listener == nullptr) return;
    auto accepted = tcp_accept(listener->fd);
    if (!accepted) {
      if (accepted.code() == Err::kUnavailable) return;  // drained
      accept_errors_->inc();
      if (accepted.code() == Err::kOverloaded) {
        // Out of descriptors: the connection stays in the backlog, so the
        // level-triggered listener would fire again at once and spin the
        // reactor. Stop watching and look again after a short pause.
        reactor_.unwatch_readable(listener_fd);
        listener->rewatch_timer =
            reactor_.schedule(kAcceptBackoff, [this, listener_fd] {
              Listener* l = listener_for(listener_fd);
              if (l == nullptr) return;
              l->rewatch_timer = kInvalidTimer;
              watch_listener(listener_fd);
            });
      }
      return;
    }
    const int raw = accepted->get();
    Conn conn;
    conn.id = next_conn_id_++;
    conn.fd = std::move(*accepted);
    conns_.emplace(raw, std::move(conn));
    account_conns(1);
    reactor_.watch_readable(raw, [this, raw] { on_conn_readable(raw); });
  }
}

void TcpTransport::on_conn_readable(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  // Zero-copy receive: recv(2) writes straight into the parser's reassembly
  // buffer — no intermediate chunk, no feed() copy. 4 KiB floor: the parser
  // grows geometrically for bigger frames, and a process holding thousands
  // of idle connections cannot afford a 16 KiB-resident buffer per conn.
  auto n = recv_into(it->second.fd, it->second.parser.recv_buffer(4096));
  if (!n) {
    if (n.code() == Err::kClosed) {
      // Peer half-closed. Frames already complete in the parser buffer must
      // still be delivered; only a partial trailing frame is lost, and that
      // loss is counted rather than silent.
      const std::uint64_t id = it->second.id;
      dispatch_frames(fd);
      auto again = conns_.find(fd);
      if (again == conns_.end() || again->second.id != id) return;
      if (again->second.parser.buffered() > 0 && !again->second.parser.poisoned()) {
        frames_truncated_->inc();
        if (frames_truncated_shard_ != nullptr) frames_truncated_shard_->inc();
        EW_DEBUG << "TcpTransport: peer closed mid-frame ("
                 << again->second.parser.buffered() << " bytes dropped)";
      }
    }
    close_conn(fd);
    return;
  }
  if (*n == 0) return;
  it->second.parser.commit(*n);
  dispatch_frames(fd);
}

void TcpTransport::dispatch_frames(int fd) {
  // Handlers run user code: they may close this connection, accept a new
  // one that reuses the fd number, or unbind the very listener being
  // dispatched to. Every iteration therefore re-finds the connection and
  // verifies it is still the same one (by id), and the handler is invoked
  // through a copy so an unbind mid-call cannot destroy the callable under
  // our feet.
  std::uint64_t conn_id = 0;
  for (;;) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;  // a handler closed us
    if (conn_id == 0) {
      conn_id = it->second.id;
    } else if (it->second.id != conn_id) {
      return;  // fd number reused by a different connection mid-loop
    }
    // Zero-copy pop: the view's payload points into the parser buffer and
    // stays valid until the parser is touched again — i.e. through the
    // routing parse and the delivery copy below, but not into the handler.
    auto view = it->second.parser.next_view();
    if (!view) {
      if (view.code() == Err::kProtocol) {
        EW_WARN << "TcpTransport: corrupt stream from "
                << it->second.peer.to_string() << ", dropping connection";
        close_conn(fd);
      }
      return;
    }
    auto routed = unroute_view(view->payload);
    if (!routed) {
      EW_WARN << "TcpTransport: bad routing header, dropping connection";
      close_conn(fd);
      return;
    }
    // Learn/refresh the peer's routable address so replies reuse this
    // connection instead of dialling back.
    if (routed->src.valid()) {
      Conn& c = it->second;
      if (c.peer != routed->src) {
        if (c.peer.valid()) {
          auto pit = peer_conn_.find(c.peer);
          if (pit != peer_conn_.end() && pit->second == fd) peer_conn_.erase(pit);
        }
        c.peer = routed->src;
        peer_conn_[c.peer] = fd;
      }
    }
    auto lit = listeners_.find(routed->dst);
    if (lit == listeners_.end()) {
      // Frame already consumed by next_view(); nothing to copy, move on.
      EW_DEBUG << "TcpTransport: no local endpoint " << routed->dst.to_string();
      continue;
    }
    // A local endpoint takes delivery: copy the payload out of the parser
    // buffer now (the one copy on the receive path).
    Packet inner;
    inner.kind = view->kind;
    inner.type = view->type;
    inner.seq = view->seq;
    inner.payload.assign(routed->body.begin(), routed->body.end());
    const PacketHandler handler = lit->second.handler;
    handler(IncomingMessage{std::move(routed->src), std::move(inner)});
  }
}

}  // namespace ew
