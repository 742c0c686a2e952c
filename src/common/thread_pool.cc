#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/failpoint.h"

namespace fcm::common {

// One ParallelFor invocation. Workers claim contiguous index chunks by
// compare-exchange on `next`, each claim guided: max(1, remaining /
// claim_divisor) indices, so claims shrink as the batch drains and the
// last ones hold a single index each. The batch stays on the pending
// deque until exhausted so every idle worker can join it. `fn` is only dereferenced for indices claimed while
// next < n, and the owner blocks until next >= n with no worker inside,
// so the pointer never outlives the call — a worker that grabbed the
// batch just before exhaustion claims nothing and leaves.
struct ThreadPool::Batch {
  size_t n = 0;
  size_t claim_divisor = 1;  // 2 x num_threads.
  const std::function<void(size_t)>* fn = nullptr;
  std::atomic<size_t> next{0};
  /// Workers currently inside RunBatch. Read lock-free by the scheduler
  /// (least-helped batch pick); decrements happen under `mu` so the
  /// owner's completion wait cannot miss its wakeup.
  std::atomic<int> active{0};
  Mutex mu;
  CondVar cv;
  std::exception_ptr error FCM_GUARDED_BY(mu);  // First failure wins.

  bool exhausted() const {
    return next.load(std::memory_order_relaxed) >= n;
  }
};

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  num_threads_ = std::max(num_threads, 1);
  // The caller participates in every batch, so concurrency num_threads_
  // needs only num_threads_ - 1 workers.
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int i = 0; i < num_threads_ - 1; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lk(&mu_);
    shutdown_ = true;
  }
  cv_.NotifyAll();
  for (auto& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Batch> batch;
    {
      MutexLock lk(&mu_);
      cv_.Wait(&mu_, [this]() FCM_NO_THREAD_SAFETY_ANALYSIS {
        return ShouldWakeLocked();
      });
      if (pending_.empty()) return;  // Shutdown with nothing in flight.
      // Prune exhausted batches, then help the live batch with the fewest
      // active helpers. Concurrent owners (pipeline stages, re-entrant
      // calls) therefore share the workers instead of every idle worker
      // piling onto the oldest batch while the others run owner-only.
      int best_load = 0;
      for (size_t i = 0; i < pending_.size();) {
        if (pending_[i]->exhausted()) {
          pending_.erase(pending_.begin() + static_cast<long>(i));
          continue;
        }
        const int load = pending_[i]->active.load(std::memory_order_relaxed);
        if (batch == nullptr || load < best_load) {
          batch = pending_[i];
          best_load = load;
        }
        ++i;
      }
      if (batch == nullptr) continue;  // Only exhausted batches; re-wait.
    }
    RunBatch(batch);
  }
}

void ThreadPool::RunBatch(const std::shared_ptr<Batch>& batch) {
  batch->active.fetch_add(1, std::memory_order_relaxed);
  size_t start = batch->next.load();
  while (start < batch->n) {
    const size_t end =
        start + std::max<size_t>(1, (batch->n - start) / batch->claim_divisor);
    // A failed exchange reloads `start`; retry on the smaller remainder.
    if (!batch->next.compare_exchange_weak(start, end)) continue;
    try {
      // Fault-injection site for task bodies: an armed failpoint here
      // exercises the pool's exception path (first error wins, remaining
      // iterations abandoned, rethrow on the owner) without needing a
      // cooperating fn.
      FCM_FAILPOINT("threadpool.task");
      for (size_t i = start; i < end; ++i) (*batch->fn)(i);
    } catch (...) {
      MutexLock lk(&batch->mu);
      if (!batch->error) batch->error = std::current_exception();
      batch->next.store(batch->n);  // Abandon the remaining iterations.
      break;
    }
    start = batch->next.load();
  }
  {
    // The decrement must happen under mu: the owner's completion wait
    // checks `active` inside the same lock, so dropping to zero and the
    // notify can never interleave into a missed wakeup.
    MutexLock lk(&batch->mu);
    batch->active.fetch_sub(1, std::memory_order_relaxed);
  }
  batch->cv.NotifyAll();
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    FCM_FAILPOINT("threadpool.task");  // Same site as the worker path.
    for (size_t i = 0; i < n; ++i) fn(i);  // Exceptions propagate directly.
    return;
  }
  auto batch = std::make_shared<Batch>();
  batch->n = n;
  batch->fn = &fn;
  // Each claim takes 1/(2T) of what remains: early claims are large enough
  // to keep contention low, and the tail drains in single indices, so no
  // thread idles at the owner's barrier behind one large final chunk.
  batch->claim_divisor = 2 * static_cast<size_t>(num_threads_);
  {
    MutexLock lk(&mu_);
    pending_.push_back(batch);
  }
  cv_.NotifyAll();
  RunBatch(batch);
  std::exception_ptr error;
  {
    MutexLock lk(&batch->mu);
    // The predicate reads only the batch's atomics, never `error`, so it
    // needs no lock-analysis exemption.
    batch->cv.Wait(&batch->mu, [&batch]() {
      return batch->active.load(std::memory_order_relaxed) == 0 &&
             batch->exhausted();
    });
    error = batch->error;
  }
  {
    // Retire the batch eagerly so concurrent owners' scheduler scans stay
    // short; a worker may already have pruned it.
    MutexLock lk(&mu_);
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (it->get() == batch.get()) {
        pending_.erase(it);
        break;
      }
    }
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace fcm::common
