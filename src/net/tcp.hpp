// Low-level TCP plumbing for the lingua franca.
//
// Faithful to the paper's portability decisions (Section 5.1): only the
// "basic" socket calls (socket/bind/listen/accept/connect/sendmsg/recv) on
// non-blocking sockets whose readiness the Reactor waits for; no signals,
// no threads, no fork()ed watchdogs. A dial starts a non-blocking connect
// and its time-out is a reactor timer — the portable replacement the paper
// arrived at.
#pragma once

#include <cstdint>
#include <span>

#include "common/clock.hpp"
#include "common/result.hpp"
#include "common/serialize.hpp"
#include "net/endpoint.hpp"

namespace ew {

/// RAII file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& other) noexcept : fd_(other.release()) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  int release() {
    int f = fd_;
    fd_ = -1;
    return f;
  }
  void reset();

 private:
  int fd_ = -1;
};

/// Create a listening socket on the given port (all interfaces).
/// Pass port 0 to let the OS pick; use local_port() to discover it.
/// The default backlog admits a c10k-style connection storm (the kernel
/// silently caps it at net.core.somaxconn); the reactor's accept loop
/// drains the queue completely on every readiness event.
/// With `reuse_port` set, several sockets (one per reactor shard) may listen
/// on the same port and the kernel distributes inbound connections across
/// them — the accept-side half of multi-core reactor sharding.
Result<Fd> tcp_listen(std::uint16_t port, int backlog = 4096,
                      bool reuse_port = false);

/// The locally bound port of a socket (for port-0 listeners).
Result<std::uint16_t> local_port(const Fd& fd);

/// A connect attempt in flight: the (non-blocking) socket plus whether the
/// handshake already finished inside the connect() call (loopback fast
/// path). When `completed` is false the socket selects writable once the
/// handshake resolves; harvest the verdict with tcp_finish_connect.
struct PendingConnect {
  Fd fd;
  bool completed = false;
};

/// Begin a non-blocking connect to `to` and return immediately — never
/// blocks, regardless of how dead the peer is. Only numeric IPv4 addresses
/// and "localhost" are resolved — the toolkit does not depend on a resolver
/// library (cf. the NT Supercluster DNS incident, Section 5.5: name
/// resolution is the deployment's problem).
Result<PendingConnect> tcp_connect_start(const Endpoint& to);

/// After a started connect selects writable: read SO_ERROR and finish the
/// socket set-up (TCP_NODELAY). Returns ok on an established connection,
/// Err::kRefused with the OS verdict otherwise.
Status tcp_finish_connect(const Fd& fd, const Endpoint& to);

/// Mark a socket non-blocking.
Status set_nonblocking(const Fd& fd);

/// Accept one pending connection (listener must be readable). The accepted
/// socket is returned non-blocking. An empty queue is kUnavailable; running
/// out of descriptors or socket memory (EMFILE, ENFILE, ENOBUFS, ENOMEM) is
/// kOverloaded, since the connection then stays queued until some are freed.
Result<Fd> tcp_accept(const Fd& listener);

/// Send as much as the socket accepts right now (non-blocking): one
/// sendmsg(2) over up to IOV_MAX byte ranges — several queued frames leave
/// in a single syscall with no coalescing copy. Ranges beyond the iovec
/// limit simply wait for the next flush. Returns bytes written (possibly 0
/// on EWOULDBLOCK), or an error if the connection is dead.
Result<std::size_t> send_some(const Fd& fd,
                              std::span<const std::span<const std::uint8_t>> segments);

/// Read whatever is available (non-blocking) directly into caller-provided
/// storage — the zero-copy receive half: pass FrameParser::recv_buffer() so
/// stream bytes land in the reassembly buffer with no intermediate chunk.
/// Returns bytes read; 0 bytes with ok() means EWOULDBLOCK; kClosed means
/// orderly shutdown by the peer.
Result<std::size_t> recv_into(const Fd& fd, std::span<std::uint8_t> out);

}  // namespace ew
