// Futures-based async serving front-end for SearchEngine (the ROADMAP's
// async-serving item): Submit() enqueues a request into a bounded queue
// with configurable backpressure and immediately returns a
// std::future<std::vector<SearchHit>>. One dispatcher thread takes
// whatever is queued, up to a size cap, as one micro-batch and serves it
// to completion — chart encoding, LSH candidate generation, candidate
// scoring + ranking — fanning each stage's heavy work out on the engine's
// shared ThreadPool before it takes the next batch.
//
// Determinism contract: every request's ranking is bit-identical to
// SearchEngine::Search(query, k, strategy) regardless of how requests were
// coalesced — all paths run the same per-request stage code. Shutdown
// either drains (every accepted request is served) or cancels (requests
// not yet dispatched fail with ShutdownError; the micro-batch being
// served still completes), deterministically in both modes.
//
// Live ingestion: a service constructed over a mutable engine also
// forwards Ingest / Compact to it, so tables can be appended and segments
// merged while the service handles traffic. Each micro-batch pins one
// engine epoch at dispatch and runs all three stages against that pin, so
// every request observes a single consistent index generation — its
// ranking equals Search against *some* epoch current between its admission
// and its completion, bit-identically (the stage code is shared).
//
// Failure semantics (docs/SERVING.md "Failure semantics" for the caller
// view; fault schedules that prove them live in common/failpoint.h):
//  - Per-request deadlines: Submit takes an optional absolute deadline.
//    Expired requests are shed with DeadlineExceededError before wasting
//    stage work — at admission, at dispatch, and between stages.
//  - Blast-radius isolation: when an engine stage throws on a coalesced
//    micro-batch, the batch's requests are re-run individually (retry
//    once, bisected to singletons), so only a genuinely poisoned request
//    fails and every neighbor still returns hits bit-identical to Search.
//  - Circuit breaker: breaker_threshold consecutive request failures flip
//    the service into a degraded fast-reject mode (DegradedError) for
//    breaker_cooldown_ms, after which the next request is admitted as a
//    half-open probe whose outcome closes or re-opens the breaker.
//    Health() snapshots breaker state plus all per-outcome counters.

#ifndef FCM_INDEX_ASYNC_SERVICE_H_
#define FCM_INDEX_ASYNC_SERVICE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/annotated_mutex.h"
#include "index/search_engine.h"
#include "vision/extracted_chart.h"

namespace fcm::index {

/// What Submit does when the request queue is full.
enum class BackpressureMode {
  /// Block the caller until space frees up (or the service shuts down,
  /// or the request's deadline expires).
  /// No accepted request is ever dropped in this mode.
  kBlock,
  /// Fail the returned future immediately with RejectedError.
  kReject,
};

/// Queue and micro-batching knobs.
struct AsyncServiceOptions {
  /// Max requests waiting to be dispatched into a micro-batch.
  size_t queue_capacity = 256;
  BackpressureMode backpressure = BackpressureMode::kBlock;
  /// Micro-batch size cap: the dispatcher never coalesces more requests
  /// than this into one batch.
  size_t max_batch_size = 16;
  /// How long the dispatcher waits for more requests after the first one
  /// of a forming micro-batch arrives. 0 (the default) ships what is
  /// queued, up to max_batch_size, without waiting: at open-loop rates
  /// below saturation batches hold one request, so any window is pure
  /// added latency (docs/SERVING.md "Measured numbers"). A nonzero window
  /// only changes when batches cut, never what a request returns.
  double max_batch_delay_ms = 0.0;
  /// Circuit breaker: this many *consecutive* request failures (engine
  /// stage errors after blast-radius isolation; deadline expiries and
  /// cancellations never count) open the breaker, flipping the service
  /// into fast-reject degraded mode. 0 disables the breaker.
  uint64_t breaker_threshold = 16;
  /// How long an open breaker fast-rejects before the next Submit is
  /// admitted as a half-open probe (its outcome closes or re-opens).
  double breaker_cooldown_ms = 100.0;
};

/// Thrown (through the future) when kReject backpressure refuses a request
/// or when Submit races a shutdown.
struct RejectedError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Thrown (through the future) when the circuit breaker is open and the
/// service fast-rejects without queueing. Subtypes RejectedError so
/// callers treating every admission failure alike keep working.
struct DegradedError : RejectedError {
  using RejectedError::RejectedError;
};

/// Thrown (through the future) for requests cancelled by
/// Shutdown(/*drain=*/false) before they were dispatched.
struct ShutdownError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Thrown (through the future) when a request's deadline expired before
/// the service finished (or started) serving it.
struct DeadlineExceededError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Counter snapshot (stats()); monotone over the service's lifetime.
/// Every accepted request lands in exactly one of completed / cancelled /
/// failed / deadline_expired, so once the service is drained
///   submitted == completed + cancelled + failed + deadline_expired.
/// rejected and fast_rejected count requests refused at Submit — they
/// never enter the queue and are not part of `submitted`.
struct AsyncServiceStats {
  uint64_t submitted = 0;   ///< Requests accepted into the queue.
  uint64_t completed = 0;   ///< Futures fulfilled with a ranking.
  uint64_t rejected = 0;    ///< Refused at Submit (queue full / shut down).
  uint64_t cancelled = 0;   ///< Accepted but failed by Shutdown(false).
  uint64_t failed = 0;      ///< Accepted but failed by an engine-stage error.
  /// Accepted but shed with DeadlineExceededError (at admission wait,
  /// dispatch, or between stages).
  uint64_t deadline_expired = 0;
  /// Requests re-run individually after an engine stage threw on their
  /// coalesced micro-batch (blast-radius isolation). Each such request
  /// still lands in completed / failed / deadline_expired.
  uint64_t retried = 0;
  /// Refused at Submit by the open circuit breaker (degraded mode).
  uint64_t fast_rejected = 0;
  uint64_t batches = 0;     ///< Micro-batches dispatched.
  size_t max_coalesced = 0; ///< Largest micro-batch dispatched.
  // Writer-side counters (zero on a service without a mutable engine).
  // These count Ingest/Compact calls, not requests — they are outside the
  // submitted == completed + ... balance above.
  uint64_t ingest_batches = 0;   ///< Successful Ingest calls.
  uint64_t ingested_tables = 0;  ///< Tables appended across them.
  uint64_t compactions = 0;      ///< Successful Compact calls.
};

/// Circuit-breaker position. Closed admits everything; Open fast-rejects
/// (degraded mode); HalfOpen admits probes whose outcomes decide between
/// Closed (success) and Open again (failure).
enum class BreakerState { kClosed, kOpen, kHalfOpen };

const char* BreakerStateName(BreakerState s);

/// Point-in-time health view: breaker position plus the full counter
/// snapshot. `degraded` is the actionable bit — true exactly when a
/// Submit issued now would be fast-rejected.
struct HealthSnapshot {
  BreakerState breaker = BreakerState::kClosed;
  bool degraded = false;
  /// Consecutive request failures since the last success (resets to 0 on
  /// every completed request).
  uint64_t consecutive_failures = 0;
  /// Times the breaker transitioned into kOpen over the service lifetime.
  uint64_t breaker_trips = 0;
  AsyncServiceStats stats;
};

class AsyncSearchService {
 public:
  /// Absolute per-request deadline on the steady clock.
  using Deadline = std::chrono::steady_clock::time_point;

  /// "No deadline": the request is served however long it queues.
  static constexpr Deadline kNoDeadline = Deadline::max();

  /// Deadline `ms` milliseconds from now.
  static Deadline DeadlineAfterMs(double ms) {
    return std::chrono::steady_clock::now() +
           std::chrono::duration_cast<std::chrono::steady_clock::duration>(
               std::chrono::duration<double, std::milli>(ms));
  }

  /// `engine` must already be built and must outlive the service.
  explicit AsyncSearchService(const SearchEngine* engine,
                              const AsyncServiceOptions& options = {});

  /// Mutable-engine constructor: same serving path, plus Ingest /
  /// Compact forward to the engine so the index can grow under traffic.
  explicit AsyncSearchService(SearchEngine* engine,
                              const AsyncServiceOptions& options = {});
  /// Shutdown(/*drain=*/true): serves everything accepted, then joins.
  ~AsyncSearchService();

  AsyncSearchService(const AsyncSearchService&) = delete;
  AsyncSearchService& operator=(const AsyncSearchService&) = delete;

  /// Enqueues one query; the future resolves to the same hits
  /// SearchEngine::Search(query, k, strategy) would return. Under kBlock
  /// backpressure a full queue blocks the caller (at most until
  /// `deadline`); under kReject the future fails with RejectedError.
  /// After Shutdown the future always fails with RejectedError; while the
  /// breaker is open it fails with DegradedError. A request whose
  /// deadline expires before its ranking is computed fails with
  /// DeadlineExceededError instead of occupying the dispatcher.
  std::future<std::vector<SearchHit>> Submit(vision::ExtractedChart query,
                                             int k, IndexStrategy strategy,
                                             Deadline deadline = kNoDeadline);

  /// Appends `tables` to the served index (SearchEngine::IngestBatch)
  /// while the service keeps serving: an in-flight micro-batch finishes on
  /// its pinned epoch, batches dispatched after the publish see the new
  /// tables. Requires the mutable-engine constructor (FailedPrecondition
  /// otherwise). Safe to call concurrently with Submit and Compact.
  common::Status Ingest(std::vector<table::Table> tables,
                        IngestStats* stats = nullptr);

  /// Merges the engine's segments (SearchEngine::Compact) under traffic —
  /// rankings are unchanged by contract. Requires the mutable-engine
  /// constructor.
  common::Status Compact(CompactStats* stats = nullptr);

  /// Stops accepting requests and joins the dispatcher. drain=true serves
  /// every accepted request first; drain=false fails queued-but-undispatched
  /// requests with ShutdownError (the micro-batch being served still
  /// completes). Idempotent; the first call's mode wins.
  void Shutdown(bool drain = true);

  AsyncServiceStats stats() const;

  /// Breaker state + counters; see HealthSnapshot.
  HealthSnapshot Health() const;

 private:
  struct Request;
  struct MicroBatch;

  /// The dispatcher thread: forms micro-batches and serves each one.
  void DispatchLoop();

  /// Runs `batch` to completion: pin the epoch, encode, shed, generate
  /// candidates, shed, score + rank, then settle every future.
  void ServeBatch(MicroBatch* batch);

  /// (Re)points every staged[i].query at requests[i] — required after any
  /// operation that moved the Request objects (batch compaction).
  static void RestageBatch(MicroBatch* batch);

  /// Fails every already-expired request of `batch` with
  /// DeadlineExceededError, compacting the batch in place — called
  /// between stages so expired work never occupies a stage.
  void ShedExpired(MicroBatch* batch);

  /// Engine-stage failure on `batch`: every request is re-run one at a
  /// time through all three stages (retry-once blast-radius isolation).
  /// Neighbors of a poisoned request — and requests hit by a transient
  /// batch-level fault — still get exact rankings; only requests that
  /// fail again, which is final, carry an error.
  void RecoverBatch(MicroBatch* batch);

  /// Breaker bookkeeping for one settled request. Successes reset the
  /// consecutive-failure run and close a half-open breaker; failures
  /// extend the run and open the breaker at the threshold.
  void NoteOutcomeLocked(bool ok) FCM_REQUIRES(mu_);

  /// Counter snapshot (shared by stats() and Health()).
  AsyncServiceStats StatsLocked() const FCM_REQUIRES(mu_);

  /// Admission predicate: the queue has room or the service is draining.
  bool HaveRoomLocked() const FCM_REQUIRES(mu_);
  /// Dispatcher wake predicate.
  bool QueueReadyLocked() const FCM_REQUIRES(mu_);

  const SearchEngine* engine_;
  /// Non-null only for the mutable-engine constructor (same object as
  /// engine_); gates Ingest / Compact. Set during construction and
  /// immutable afterwards — never read by the dispatcher — so it needs no
  /// lock.
  SearchEngine* mutable_engine_ = nullptr;
  AsyncServiceOptions options_;

  mutable common::Mutex mu_;
  common::CondVar cv_space_;  // Queue has room (or shutting down).
  common::CondVar cv_data_;   // Queue has data (or shutting down).
  std::deque<Request> queue_ FCM_GUARDED_BY(mu_);
  /// No new requests; set once by Shutdown.
  bool stopping_ FCM_GUARDED_BY(mu_) = false;
  /// Shutdown(false): fail undispatched requests.
  bool cancel_ FCM_GUARDED_BY(mu_) = false;

  // Monotone counters. All settle under mu_ so a stats()/Health() snapshot
  // is consistent the moment any future resolves.
  uint64_t submitted_ FCM_GUARDED_BY(mu_) = 0;
  uint64_t completed_ FCM_GUARDED_BY(mu_) = 0;
  uint64_t rejected_ FCM_GUARDED_BY(mu_) = 0;
  uint64_t cancelled_ FCM_GUARDED_BY(mu_) = 0;
  uint64_t failed_ FCM_GUARDED_BY(mu_) = 0;
  uint64_t deadline_expired_ FCM_GUARDED_BY(mu_) = 0;
  uint64_t retried_ FCM_GUARDED_BY(mu_) = 0;
  uint64_t fast_rejected_ FCM_GUARDED_BY(mu_) = 0;
  uint64_t batches_ FCM_GUARDED_BY(mu_) = 0;
  size_t max_coalesced_ FCM_GUARDED_BY(mu_) = 0;
  uint64_t ingest_batches_ FCM_GUARDED_BY(mu_) = 0;
  uint64_t ingested_tables_ FCM_GUARDED_BY(mu_) = 0;
  uint64_t compactions_ FCM_GUARDED_BY(mu_) = 0;
  /// Request ids start at 1 and are assigned in admission order; they key
  /// the engine's per-query failpoint sites via StagedQuery::tag (0 is
  /// reserved for untagged synchronous Search calls).
  uint64_t next_request_id_ FCM_GUARDED_BY(mu_) = 0;

  // Circuit breaker.
  BreakerState breaker_ FCM_GUARDED_BY(mu_) = BreakerState::kClosed;
  uint64_t consecutive_failures_ FCM_GUARDED_BY(mu_) = 0;
  uint64_t breaker_trips_ FCM_GUARDED_BY(mu_) = 0;
  std::chrono::steady_clock::time_point breaker_opened_at_
      FCM_GUARDED_BY(mu_){};

  std::thread dispatch_thread_;

  common::Mutex shutdown_mu_;  // Serializes Shutdown callers / the dtor.
  bool joined_ FCM_GUARDED_BY(shutdown_mu_) = false;
};

}  // namespace fcm::index

#endif  // FCM_INDEX_ASYNC_SERVICE_H_
