// Fixed-size worker pool with a deterministic ParallelFor: work items are
// identified by index, and the computation per index is byte-identical to
// a serial loop — parallelism only changes wall-clock time, never output.
// Used by the search engine to fan out per-table encoding and candidate
// scoring.
//
// Concurrency contract: ParallelFor may be called concurrently from any
// number of owner threads — the async service's dispatcher, ingest
// writers, concurrent Search callers — and re-entrantly from inside a
// worker iteration. Every owner participates in its own batch, so an
// owner always makes progress even when all workers are busy elsewhere;
// idle workers spread across the in-flight batches (least-helped first)
// instead of queuing behind the oldest one, so a writer's encode burst
// and a reader's batch share the workers.

#ifndef FCM_COMMON_THREAD_POOL_H_
#define FCM_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/annotated_mutex.h"

namespace fcm::common {

class ThreadPool {
 public:
  /// `num_threads` <= 0 picks std::thread::hardware_concurrency(). A pool
  /// of 1 runs everything inline on the calling thread (no workers), which
  /// keeps single-threaded configurations free of scheduling overhead.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs fn(i) for every i in [0, n). Blocks until all iterations finish
  /// (the calling thread participates). Iterations may run in any order on
  /// any worker; callers must make fn(i) touch only index-i state. If any
  /// iteration throws, the first exception (in completion order) is
  /// rethrown here after all workers drain. Safe to call from several
  /// owner threads at once and from inside a worker iteration (see the
  /// file comment); fn must not block waiting on another ParallelFor's
  /// *result* produced outside this call, only on pool progress.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  struct Batch;  // One ParallelFor invocation in flight.

  void WorkerLoop();
  static void RunBatch(const std::shared_ptr<Batch>& batch);

  /// Scheduler-wake predicate (workers sleep until shutdown or work).
  bool ShouldWakeLocked() const FCM_REQUIRES(mu_) {
    return shutdown_ || !pending_.empty();
  }

  int num_threads_ = 1;
  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar cv_;
  /// In-flight batches; exhausted entries are pruned by workers and by the
  /// owning ParallelFor on its way out.
  std::deque<std::shared_ptr<Batch>> pending_ FCM_GUARDED_BY(mu_);
  bool shutdown_ FCM_GUARDED_BY(mu_) = false;
};

}  // namespace fcm::common

#endif  // FCM_COMMON_THREAD_POOL_H_
