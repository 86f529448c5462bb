// Event-driven I/O for the real-socket lane (paper §3: "processes use
// event-driven programming to minimize state and scale to a large number of
// concurrent TCP connections"). epoll readiness callbacks plus a nanosecond
// timer heap; timer resolution uses epoll_pwait2 when available so replay
// scheduling error stays well under a millisecond (§4.2).
#ifndef LDPLAYER_NET_EVENT_LOOP_H
#define LDPLAYER_NET_EVENT_LOOP_H

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "stats/metrics.h"

namespace ldp::net {

// RAII file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { Reset(); }
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int Release();
  void Reset();

 private:
  int fd_ = -1;
};

// A kIoError (or `code`) carrying `what` and strerror(errno): how every
// failed syscall in net/ is reported.
Error Errno(const std::string& what, ErrorCode code = ErrorCode::kIoError);

// Bitmask passed to I/O handlers.
struct IoEvents {
  bool readable = false;
  bool writable = false;
  bool error = false;
  bool hangup = false;
};

using IoHandler = std::function<void(IoEvents)>;

class TimerHandle {
 public:
  TimerHandle() = default;
  void Cancel();
  bool active() const;

 private:
  friend class EventLoop;
  struct Flag {
    bool cancelled = false;
    bool fired = false;
  };
  explicit TimerHandle(std::shared_ptr<Flag> flag) : flag_(std::move(flag)) {}
  std::shared_ptr<Flag> flag_;
};

class EventLoop {
 public:
  static Result<std::unique_ptr<EventLoop>> Create();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Registers fd with the given interest; the handler fires on readiness.
  Status Add(int fd, bool want_read, bool want_write, IoHandler handler);
  Status Modify(int fd, bool want_read, bool want_write);
  void Remove(int fd);

  // One-shot timer on CLOCK_MONOTONIC.
  TimerHandle ScheduleAt(NanoTime deadline, std::function<void()> fn);
  TimerHandle ScheduleAfter(NanoDuration delay, std::function<void()> fn) {
    return ScheduleAt(MonotonicNow() + delay, std::move(fn));
  }

  // Runs until Stop() is called AND no registered fds remain... in practice
  // callers call Stop() explicitly; Run returns after Stop.
  void Run();
  void Stop() { stopped_ = true; }

  // Thread-safe stop: wakes the loop via an eventfd and stops it from its
  // own thread. The only EventLoop entry point that may be called from a
  // different thread than the one running the loop (everything else —
  // Add/Modify/Remove/Schedule*/Stop — is loop-thread-only).
  void RequestStop();

  // Processes due timers and at most one epoll batch; `wait` bounds the
  // blocking time (<=0: poll without blocking).
  Status RunOnce(NanoDuration wait);

  size_t registered_fds() const { return handlers_.size(); }
  size_t pending_timers() const { return timers_.size(); }

  // Optional observability hooks (loop-thread-only, like everything else):
  // `loop_lag` records how late each timer fires (now - deadline, ns) — the
  // early-warning signal for IO/timer starvation; `epoll_batch` records the
  // number of ready events per epoll wakeup. Either may be nullptr. The
  // histograms must outlive the loop.
  void SetMetrics(stats::LogHistogram* loop_lag,
                  stats::LogHistogram* epoll_batch) {
    loop_lag_ = loop_lag;
    epoll_batch_ = epoll_batch;
  }

 private:
  EventLoop(int epoll_fd, int wakeup_fd)
      : epoll_fd_(epoll_fd), wakeup_fd_(wakeup_fd) {}

  struct Timer {
    NanoTime deadline;
    uint64_t seq;
    std::function<void()> fn;
    std::shared_ptr<TimerHandle::Flag> flag;
  };
  struct TimerLater {
    bool operator()(const Timer& a, const Timer& b) const {
      if (a.deadline != b.deadline) return a.deadline > b.deadline;
      return a.seq > b.seq;
    }
  };

  // Fires all due timers; returns the delay until the next one (or `cap`).
  NanoDuration FireDueTimers(NanoDuration cap);

  Fd epoll_fd_;
  Fd wakeup_fd_;
  bool stopped_ = false;
  uint64_t next_timer_seq_ = 0;
  std::unordered_map<int, std::shared_ptr<IoHandler>> handlers_;
  std::priority_queue<Timer, std::vector<Timer>, TimerLater> timers_;
  stats::LogHistogram* loop_lag_ = nullptr;
  stats::LogHistogram* epoll_batch_ = nullptr;
};

// Makes a socket non-blocking; returns the error from fcntl if any.
Status SetNonBlocking(int fd);

}  // namespace ldp::net

#endif  // LDPLAYER_NET_EVENT_LOOP_H
