// Reactor: the real-time Executor.
//
// A single-threaded readiness loop with a timer heap — the shape of every
// EveryWare server process in the paper (single-threaded, select()-driven,
// no signals; Section 5.1). The TcpTransport registers its sockets here.
// post() is thread-safe via a self-pipe so examples can feed work from other
// threads; everything else must run on the reactor thread.
//
// Two readiness backends sit behind the same watch/unwatch API:
//   * kSelect — the paper-faithful portable loop. On Linux FD_SETSIZE is a
//     hard 1024-fd ceiling (FD_SET past it is an out-of-bounds write), so
//     fds beyond it are refused with a log line rather than corrupting the
//     stack.
//   * kEpoll  — epoll(7), Linux only, no fd ceiling; the backend the c10k
//     soak and every >1024-connection deployment uses. Level-triggered, so
//     watcher semantics are identical to select.
// The default is epoll where available; a caller that wants the portable
// loop passes kSelect to the constructor.
//
// Dispatch is fd-lifetime safe in both backends: ready callbacks are
// re-validated against the watcher map (fd + registration generation)
// immediately before each invoke, so a callback that closes a connection —
// or accepts a new one reusing the same fd number — cannot cause a queued
// callback to fire against a dead or reused fd.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/clock.hpp"
#include "net/executor.hpp"
#include "net/tcp.hpp"

namespace ew {

enum class ReactorBackend {
  kSelect,  // portable select() loop, FD_SETSIZE-bounded
  kEpoll,   // epoll(7); Linux only
};

class Reactor final : public Executor {
 public:
  /// Backend the default constructor picks: kEpoll on Linux, kSelect
  /// elsewhere.
  static ReactorBackend default_backend();

  Reactor() : Reactor(default_backend()) {}
  explicit Reactor(ReactorBackend backend);
  ~Reactor() override;
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  [[nodiscard]] ReactorBackend backend() const { return backend_; }

  [[nodiscard]] const Clock& clock() const override { return clock_; }
  void post(std::function<void()> fn) override;
  TimerId schedule(Duration delay, std::function<void()> fn) override;
  void cancel(TimerId id) override;

  /// Watch a socket; `on_readable` runs on the reactor thread whenever the
  /// fd becomes readable. One watcher per fd.
  void watch_readable(int fd, std::function<void()> on_readable);
  /// Watch for writability (used to flush blocked outboxes and to harvest
  /// asynchronous connect results). One per fd.
  void watch_writable(int fd, std::function<void()> on_writable);
  void unwatch_readable(int fd);
  void unwatch_writable(int fd);

  /// Process events until stop() is called.
  void run();
  /// Process events for (approximately) the given real-time duration.
  void run_for(Duration d);
  /// Make run()/run_for() return as soon as possible. Thread-safe.
  void stop();

 private:
  /// A registered callback plus the generation it was registered under.
  /// The shared_ptr lets dispatch hold the callable alive across an invoke
  /// that unwatches (and thus erases) its own map entry.
  struct Watcher {
    std::shared_ptr<std::function<void()>> cb;
    std::uint64_t gen = 0;
  };
  /// One readiness fact from the backend, pinned to the registration it was
  /// observed for. Validated against the live map right before invoking.
  struct Ready {
    int fd = -1;
    std::uint64_t gen = 0;
    bool writable = false;
  };

  void loop_until(TimePoint deadline, bool use_deadline);
  /// Run posted fns and due timers; returns the next timer deadline (or -1).
  TimePoint drain_ready();
  /// Backend poll: block up to `wait`, append readiness facts to `out`.
  /// Returns false on an unrecoverable poll error (loop should stop).
  bool poll_select(Duration wait, std::vector<Ready>& out);
  bool poll_epoll(Duration wait, std::vector<Ready>& out);
  void drain_wake_pipe();
  /// (epoll) reconcile the kernel interest set for `fd` with the watcher
  /// maps after a watch/unwatch.
  void update_epoll_interest(int fd);
  void add_watcher(std::unordered_map<int, Watcher>& map, int fd,
                   std::function<void()> cb);

  RealClock clock_;
  ReactorBackend backend_;
  Fd wake_read_;
  Fd wake_write_;
  Fd epoll_fd_;  // valid only under kEpoll
  std::mutex post_mutex_;
  std::deque<std::function<void()>> posted_;
  // Timers: ordered by (deadline, id) for stable firing order.
  std::map<std::pair<TimePoint, TimerId>, std::function<void()>> timers_;
  std::unordered_map<TimerId, TimePoint> timer_deadline_;
  TimerId next_timer_ = 1;
  std::uint64_t next_watch_gen_ = 1;
  std::unordered_map<int, Watcher> read_watchers_;
  std::unordered_map<int, Watcher> write_watchers_;
  std::unordered_map<int, std::uint32_t> epoll_interest_;  // fd -> EPOLL* mask
  std::vector<Ready> ready_;  // reused across iterations
  bool stop_requested_ = false;
};

}  // namespace ew
