#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/select.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace ew {

namespace {

std::string errno_str() { return std::strerror(errno); }

Result<in_addr_t> resolve(const std::string& host) {
  if (host == "localhost") return htonl(INADDR_LOOPBACK);
  in_addr addr{};
  if (inet_pton(AF_INET, host.c_str(), &addr) == 1) return addr.s_addr;
  return Error{Err::kRefused, "unresolvable host (numeric IPv4 only): " + host};
}

timeval to_timeval(Duration d) {
  if (d < 0) d = 0;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(d / kSecond);
  tv.tv_usec = static_cast<suseconds_t>(d % kSecond);
  return tv;
}

}  // namespace

void Fd::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status set_nonblocking(const Fd& fd) {
  const int flags = ::fcntl(fd.get(), F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd.get(), F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status(Err::kInternal, "fcntl: " + errno_str());
  }
  return {};
}

Result<Fd> tcp_listen(std::uint16_t port, int backlog, bool reuse_port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Error{Err::kInternal, "socket: " + errno_str()};
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (reuse_port) {
#ifdef SO_REUSEPORT
    if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) < 0) {
      return Error{Err::kInternal, "setsockopt(SO_REUSEPORT): " + errno_str()};
    }
#else
    return Error{Err::kInternal, "SO_REUSEPORT not supported on this platform"};
#endif
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return Error{Err::kRefused, "bind port " + std::to_string(port) + ": " + errno_str()};
  }
  if (::listen(fd.get(), backlog) < 0) {
    return Error{Err::kInternal, "listen: " + errno_str()};
  }
  if (Status s = set_nonblocking(fd); !s.ok()) return s.error();
  return fd;
}

Result<std::uint16_t> local_port(const Fd& fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return Error{Err::kInternal, "getsockname: " + errno_str()};
  }
  return static_cast<std::uint16_t>(ntohs(addr.sin_port));
}

Result<PendingConnect> tcp_connect_start(const Endpoint& to) {
  auto ip = resolve(to.host);
  if (!ip) return ip.error();

  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Error{Err::kInternal, "socket: " + errno_str()};
  if (Status s = set_nonblocking(fd); !s.ok()) return s.error();

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = *ip;
  addr.sin_port = htons(to.port);

  const int rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc == 0) {  // immediate success (loopback)
    const int one = 1;
    ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return PendingConnect{std::move(fd), /*completed=*/true};
  }
  if (errno != EINPROGRESS) {
    return Error{Err::kRefused, "connect " + to.to_string() + ": " + errno_str()};
  }
  return PendingConnect{std::move(fd), /*completed=*/false};
}

Status tcp_finish_connect(const Fd& fd, const Endpoint& to) {
  int soerr = 0;
  socklen_t len = sizeof(soerr);
  if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &soerr, &len) < 0 || soerr != 0) {
    return Status(Err::kRefused,
                  "connect " + to.to_string() + ": " + std::strerror(soerr ? soerr : errno));
  }
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return {};
}

Result<Fd> tcp_connect(const Endpoint& to, Duration timeout) {
  auto started = tcp_connect_start(to);
  if (!started) return started.error();
  if (started->completed) return std::move(started->fd);

  fd_set wfds;
  FD_ZERO(&wfds);
  FD_SET(started->fd.get(), &wfds);
  timeval tv = to_timeval(timeout);
  const int sel = ::select(started->fd.get() + 1, nullptr, &wfds, nullptr, &tv);
  if (sel == 0) return Error{Err::kTimeout, "connect " + to.to_string() + " timed out"};
  if (sel < 0) return Error{Err::kInternal, "select: " + errno_str()};

  if (Status s = tcp_finish_connect(started->fd, to); !s.ok()) return s.error();
  return std::move(started->fd);
}

Result<Fd> tcp_accept(const Fd& listener) {
  Fd fd(::accept(listener.get(), nullptr, nullptr));
  if (!fd.valid()) {
    if (errno == EWOULDBLOCK || errno == EAGAIN) {
      return Error{Err::kUnavailable, "no pending connection"};
    }
    if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
        errno == ENOMEM) {
      return Error{Err::kOverloaded, "accept: " + errno_str()};
    }
    return Error{Err::kInternal, "accept: " + errno_str()};
  }
  if (Status s = set_nonblocking(fd); !s.ok()) return s.error();
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Result<std::size_t> send_some(const Fd& fd, std::span<const std::uint8_t> data) {
  if (data.empty()) return std::size_t{0};
  const ssize_t n = ::send(fd.get(), data.data(), data.size(), MSG_NOSIGNAL);
  if (n >= 0) return static_cast<std::size_t>(n);
  if (errno == EWOULDBLOCK || errno == EAGAIN) return std::size_t{0};
  return Error{Err::kClosed, "send: " + errno_str()};
}

Result<std::size_t> send_some(const Fd& fd,
                              std::span<const std::span<const std::uint8_t>> segments) {
  if (segments.empty()) return std::size_t{0};
  // IOV_MAX is at least 16 everywhere; 64 frames per syscall is already far
  // past the knee of the batching curve for our frame sizes.
  constexpr std::size_t kMaxIov = 64;
  iovec iov[kMaxIov];
  std::size_t n = 0;
  for (const auto& seg : segments) {
    if (seg.empty()) continue;
    iov[n].iov_base = const_cast<std::uint8_t*>(seg.data());
    iov[n].iov_len = seg.size();
    if (++n == kMaxIov) break;
  }
  if (n == 0) return std::size_t{0};
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = n;
  const ssize_t sent = ::sendmsg(fd.get(), &msg, MSG_NOSIGNAL);
  if (sent >= 0) return static_cast<std::size_t>(sent);
  if (errno == EWOULDBLOCK || errno == EAGAIN) return std::size_t{0};
  return Error{Err::kClosed, "sendmsg: " + errno_str()};
}

Result<std::size_t> recv_some(const Fd& fd, Bytes& out) {
  std::uint8_t buf[16384];
  const ssize_t n = ::recv(fd.get(), buf, sizeof(buf), 0);
  if (n > 0) {
    out.insert(out.end(), buf, buf + n);
    return static_cast<std::size_t>(n);
  }
  if (n == 0) return Error{Err::kClosed, "peer closed"};
  if (errno == EWOULDBLOCK || errno == EAGAIN) return std::size_t{0};
  return Error{Err::kClosed, "recv: " + errno_str()};
}

Result<std::size_t> recv_into(const Fd& fd, std::span<std::uint8_t> out) {
  if (out.empty()) return std::size_t{0};
  const ssize_t n = ::recv(fd.get(), out.data(), out.size(), 0);
  if (n > 0) return static_cast<std::size_t>(n);
  if (n == 0) return Error{Err::kClosed, "peer closed"};
  if (errno == EWOULDBLOCK || errno == EAGAIN) return std::size_t{0};
  return Error{Err::kClosed, "recv: " + errno_str()};
}

Result<bool> wait_readable(const Fd& fd, Duration timeout) {
  fd_set rfds;
  FD_ZERO(&rfds);
  FD_SET(fd.get(), &rfds);
  timeval tv = to_timeval(timeout);
  const int sel = ::select(fd.get() + 1, &rfds, nullptr, nullptr, &tv);
  if (sel < 0) return Error{Err::kInternal, "select: " + errno_str()};
  return sel > 0;
}

}  // namespace ew
