// Bounded work queue feeding one shard worker of the sharded aggregation
// engine: one mutex-guarded deque with two condition variables.
//
// Producers push work items and block while max_pending items are queued
// (backpressure instead of unbounded memory growth under overload), so
// max_pending is the exact per-shard bound. The single consumer — the
// shard's worker thread — pops items in push order and marks each one
// done, which lets Flush() implement a precise drain barrier: the queue is
// drained only when no item is queued AND the worker is not mid-item.
// Condition variables are notified AFTER the mutex is released, so a
// woken thread never immediately blocks on the lock the notifier still
// holds.

#ifndef LDPM_ENGINE_SHARD_QUEUE_H_
#define LDPM_ENGINE_SHARD_QUEUE_H_

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "core/sync.h"

namespace ldpm {
namespace engine {

/// One unit of shard work: a wire batch frame (protocols/wire.h) of
/// device-perturbed reports, parsed and absorbed in place by the worker.
using WorkItem = std::vector<uint8_t>;

/// Bounded FIFO work queue with one consumer (see the file comment).
/// Producers call Push; the one consumer loops Pop/Done; control threads
/// use WaitDrained/Close.
class ShardQueue {
 public:
  /// Creates a queue that blocks producers while `max_pending` items wait.
  explicit ShardQueue(size_t max_pending) : max_pending_(max_pending) {}

  /// Enqueues one work item; blocks while the queue is at capacity.
  /// Returns false (dropping the item) if the queue has been closed.
  bool Push(WorkItem item) LDPM_EXCLUDES(mu_) {
    {
      core::MutexLock lock(mu_);
      while (!closed_ && items_.size() >= max_pending_) not_full_.Wait(mu_);
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.NotifyOne();
    return true;
  }

  /// Dequeues the next item; blocks while the queue is empty. Returns false
  /// once the queue is closed and fully drained. The consumer must call
  /// Done() after finishing each popped item.
  bool Pop(WorkItem& out) LDPM_EXCLUDES(mu_) {
    {
      core::MutexLock lock(mu_);
      while (!closed_ && items_.empty()) not_empty_.Wait(mu_);
      if (items_.empty()) return false;
      out = std::move(items_.front());
      items_.pop_front();
      busy_ = true;  // until Done()
    }
    not_full_.NotifyOne();
    return true;
  }

  /// Marks the most recently popped item as fully processed.
  void Done() LDPM_EXCLUDES(mu_) {
    bool drained = false;
    {
      core::MutexLock lock(mu_);
      busy_ = false;
      drained = items_.empty();
    }
    if (drained) drained_.NotifyAll();
  }

  /// Blocks until every pushed item has been popped AND processed.
  void WaitDrained() LDPM_EXCLUDES(mu_) {
    core::MutexLock lock(mu_);
    while (!items_.empty() || busy_) drained_.Wait(mu_);
  }

  /// Wakes all waiters; subsequent pushes fail. The consumer drains what is
  /// already queued, then Pop returns false.
  void Close() LDPM_EXCLUDES(mu_) {
    {
      core::MutexLock lock(mu_);
      closed_ = true;
    }
    not_empty_.NotifyAll();
    not_full_.NotifyAll();
  }

 private:
  const size_t max_pending_;
  core::Mutex mu_;
  core::CondVar not_full_;
  core::CondVar not_empty_;
  core::CondVar drained_;
  std::deque<WorkItem> items_ LDPM_GUARDED_BY(mu_);
  bool closed_ LDPM_GUARDED_BY(mu_) = false;
  bool busy_ LDPM_GUARDED_BY(mu_) = false;
};

}  // namespace engine
}  // namespace ldpm

#endif  // LDPM_ENGINE_SHARD_QUEUE_H_
