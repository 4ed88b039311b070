// Bounded multi-producer/single-consumer queue — the only way state
// crosses threads in the sharded runtime (the "no shared mutable state
// without a queue" rule, DESIGN.md §5).
//
// Producers choose their overload behaviour per call site:
//   push()      blocks until space frees up — backpressure for producers
//               that must not lose items (journal ops, control commands);
//   try_push()  fails fast — for producers that must never block (the
//               push plane's I/O thread, the workers' planner
//               observations), which drop the item and count it.
// The single consumer drains with drain(), which swaps the whole batch
// out under one lock acquisition.
#pragma once

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <ctime>
#include <deque>
#include <functional>
#include <mutex>
#include <utility>

#include "util/assert.h"

namespace dnscup::runtime {

/// Latched wakeup over an eventfd: wake() from any thread, wait_for() on
/// the consumer.  A serving worker instead hands fd() to its I/O
/// backend, whose receive wait watches the socket and this fd together,
/// and calls clear() after such a wait.  The latch closes the race
/// between "queues look empty" and "producer pushed right after" (a wake
/// arriving before the wait still ends it at once) and coalesces a burst
/// of wakes into one eventfd write per consumer wait.
class WakeSignal {
 public:
  WakeSignal() : fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
    DNSCUP_ASSERT(fd_ >= 0);
  }
  ~WakeSignal() { ::close(fd_); }

  WakeSignal(const WakeSignal&) = delete;
  WakeSignal& operator=(const WakeSignal&) = delete;

  void wake() {
    if (pending_.exchange(true, std::memory_order_acq_rel)) return;
    const uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(fd_, &one, sizeof one);
  }

  template <typename Rep, typename Period>
  void wait_for(std::chrono::duration<Rep, Period> timeout) {
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(timeout).count();
    const timespec ts{static_cast<time_t>(ns / 1000000000),
                      static_cast<long>(ns % 1000000000)};
    pollfd p{fd_, POLLIN, 0};
    ::ppoll(&p, 1, &ts, nullptr);
    clear();
  }

  /// Consumes a delivered wake, re-arming the latch.  Call after every
  /// wait that watched fd(); the caller re-checks its queues afterwards.
  void clear() {
    uint64_t count = 0;
    [[maybe_unused]] const ssize_t n = ::read(fd_, &count, sizeof count);
    pending_.store(false, std::memory_order_release);
  }

  /// Readable while a wake is pending.
  int fd() const { return fd_; }

 private:
  const int fd_;
  std::atomic<bool> pending_{false};
};

template <typename T>
class BoundedMpscQueue {
 public:
  /// `wake` (optional, not owned) is signalled after every successful
  /// push so the consumer need not poll.
  explicit BoundedMpscQueue(std::size_t capacity, WakeSignal* wake = nullptr)
      : capacity_(capacity), wake_(wake) {}

  /// Blocks while the queue is full (producer backpressure).
  void push(T item) {
    {
      std::unique_lock lock(mutex_);
      not_full_.wait(lock, [this] { return items_.size() < capacity_; });
      items_.push_back(std::move(item));
    }
    if (wake_ != nullptr) wake_->wake();
  }

  /// Non-blocking; false when full (caller drops and accounts the item).
  bool try_push(T item) {
    {
      std::lock_guard lock(mutex_);
      if (items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    if (wake_ != nullptr) wake_->wake();
    return true;
  }

  /// Swaps the queued batch into `out` (cleared first).  Single consumer.
  void drain(std::deque<T>& out) {
    out.clear();
    {
      std::lock_guard lock(mutex_);
      items_.swap(out);
    }
    if (!out.empty()) not_full_.notify_all();
  }

  bool empty() const {
    std::lock_guard lock(mutex_);
    return items_.empty();
  }

  std::size_t size() const {
    std::lock_guard lock(mutex_);
    return items_.size();
  }

 private:
  const std::size_t capacity_;
  WakeSignal* wake_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::deque<T> items_;
};

}  // namespace dnscup::runtime
