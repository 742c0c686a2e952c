#include "index/async_service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/logging.h"

namespace fcm::index {

namespace {

using Clock = std::chrono::steady_clock;

Clock::duration MsToDuration(double ms) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

std::exception_ptr DeadlineError(const char* where) {
  return std::make_exception_ptr(DeadlineExceededError(
      std::string("request deadline expired ") + where));
}

}  // namespace

const char* BreakerStateName(BreakerState s) {
  switch (s) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

/// One accepted request, from admission until its future settles.
struct AsyncSearchService::Request {
  vision::ExtractedChart query;
  int k = 0;
  IndexStrategy strategy = IndexStrategy::kNoIndex;
  /// Admission-ordered id (from 1); keys the engine's per-query failpoint
  /// sites through StagedQuery::tag.
  uint64_t id = 0;
  Deadline deadline = kNoDeadline;
  std::promise<std::vector<SearchHit>> promise;
};

/// A coalesced group of requests plus their engine-side stage state.
/// `staged[i].query` points into `requests[i]`; ShedExpired compacts the
/// two vectors in lockstep and re-points the pointers, so the invariant
/// holds across deadline shedding between stages.
struct AsyncSearchService::MicroBatch {
  std::vector<Request> requests;
  std::vector<SearchEngine::StagedQuery> staged;
  /// Index generation pinned at dispatch; every stage of this batch runs
  /// against it, so concurrent Ingest/Compact publishes never change what
  /// an in-flight batch observes. Released (possibly retiring the epoch)
  /// when the batch is destroyed after fulfillment.
  EpochPin epoch;
};

AsyncSearchService::AsyncSearchService(const SearchEngine* engine,
                                       const AsyncServiceOptions& options)
    : engine_(engine), options_(options) {
  FCM_CHECK(engine_ != nullptr);
  FCM_CHECK_GT(options_.queue_capacity, 0u);
  FCM_CHECK_GT(options_.max_batch_size, 0u);
  dispatch_thread_ = std::thread([this]() { DispatchLoop(); });
}

AsyncSearchService::AsyncSearchService(SearchEngine* engine,
                                       const AsyncServiceOptions& options)
    : AsyncSearchService(static_cast<const SearchEngine*>(engine), options) {
  mutable_engine_ = engine;
}

AsyncSearchService::~AsyncSearchService() { Shutdown(/*drain=*/true); }

bool AsyncSearchService::HaveRoomLocked() const {
  return stopping_ || queue_.size() < options_.queue_capacity;
}

bool AsyncSearchService::QueueReadyLocked() const {
  return stopping_ || !queue_.empty();
}

std::future<std::vector<SearchHit>> AsyncSearchService::Submit(
    vision::ExtractedChart query, int k, IndexStrategy strategy,
    Deadline deadline) {
  Request request;
  request.query = std::move(query);
  request.k = k;
  request.strategy = strategy;
  request.deadline = deadline;
  auto future = request.promise.get_future();

  common::MutexLock lk(&mu_);
  // Degraded mode: an open breaker sheds load before any queueing or
  // blocking. After the cooldown the next arrival is admitted as a
  // half-open probe whose outcome decides between closing and re-opening.
  if (!stopping_ && breaker_ == BreakerState::kOpen) {
    if (Clock::now() - breaker_opened_at_ >=
        MsToDuration(options_.breaker_cooldown_ms)) {
      breaker_ = BreakerState::kHalfOpen;
    } else {
      ++fast_rejected_;
      lk.Unlock();
      request.promise.set_exception(std::make_exception_ptr(
          DegradedError("circuit breaker open: service degraded")));
      return future;
    }
  }
  if (options_.backpressure == BackpressureMode::kBlock) {
    const auto have_room = [this]() FCM_NO_THREAD_SAFETY_ANALYSIS {
      return HaveRoomLocked();
    };
    if (request.deadline == kNoDeadline) {
      cv_space_.Wait(&mu_, have_room);
    } else if (!cv_space_.WaitUntil(&mu_, request.deadline, have_room)) {
      // The deadline expired while the caller was blocked on admission.
      // The request was accepted for admission, so it counts as submitted
      // + deadline_expired (keeping the stats balance invariant).
      ++submitted_;
      ++deadline_expired_;
      lk.Unlock();
      request.promise.set_exception(DeadlineError("while blocked on a full "
                                                  "queue"));
      return future;
    }
  }
  if (stopping_ || queue_.size() >= options_.queue_capacity) {
    ++rejected_;
    const char* reason =
        stopping_ ? "AsyncSearchService is shut down" : "request queue full";
    lk.Unlock();
    request.promise.set_exception(
        std::make_exception_ptr(RejectedError(reason)));
    return future;
  }
  if (request.deadline <= Clock::now()) {
    ++submitted_;
    ++deadline_expired_;
    lk.Unlock();
    request.promise.set_exception(DeadlineError("before admission"));
    return future;
  }
  request.id = ++next_request_id_;
  try {
    FCM_FAILPOINT_KEYED("async.submit", request.id);
  } catch (...) {
    // Injected queue-op fault: the request was accepted, so it settles as
    // a failure (and counts against the breaker like any other failure).
    ++submitted_;
    ++failed_;
    NoteOutcomeLocked(false);
    lk.Unlock();
    request.promise.set_exception(std::current_exception());
    return future;
  }
  queue_.push_back(std::move(request));
  ++submitted_;
  lk.Unlock();
  cv_data_.NotifyOne();
  return future;
}

void AsyncSearchService::DispatchLoop() {
  for (;;) {
    MicroBatch batch;
    bool retire = false;
    {
      common::MutexLock lk(&mu_);
      cv_data_.Wait(&mu_, [this]() FCM_NO_THREAD_SAFETY_ANALYSIS {
        return QueueReadyLocked();
      });
      if (cancel_) {
        // Shutdown(false): fail everything still queued, deterministically
        // in queue order, then retire the dispatcher.
        while (!queue_.empty()) {
          Request request = std::move(queue_.front());
          queue_.pop_front();
          ++cancelled_;
          request.promise.set_exception(std::make_exception_ptr(
              ShutdownError("cancelled by Shutdown(drain=false)")));
        }
        retire = true;
      } else {
        // Shed requests that expired while queued before spending any
        // stage work on them.
        const auto now = Clock::now();
        while (!queue_.empty() && queue_.front().deadline <= now) {
          Request request = std::move(queue_.front());
          queue_.pop_front();
          ++deadline_expired_;
          request.promise.set_exception(DeadlineError("before dispatch"));
        }
        if (queue_.empty()) {
          // Everything queued had expired (or we woke for shutdown).
          retire = stopping_;
        } else {
          // Take the first request plus whatever else is queued, up to
          // the batch-size cap; a nonzero max_batch_delay_ms also waits
          // that long, measured from the moment the batch starts forming,
          // for more. A request's queueing latency is therefore bounded by
          // the delay knob plus the batches served ahead of it.
          const auto window_end =
              Clock::now() + MsToDuration(options_.max_batch_delay_ms);
          batch.requests.push_back(std::move(queue_.front()));
          queue_.pop_front();
          while (batch.requests.size() < options_.max_batch_size) {
            if (queue_.empty()) {
              if (stopping_ ||
                  !cv_data_.WaitUntil(
                      &mu_, window_end,
                      [this]() FCM_NO_THREAD_SAFETY_ANALYSIS {
                        return QueueReadyLocked();
                      })) {
                break;  // Window spent (or draining): dispatch what we have.
              }
              if (queue_.empty()) break;  // stopping_ woke us, nothing new.
            }
            // Shed instead of coalescing a request that already expired.
            if (queue_.front().deadline <= Clock::now()) {
              Request request = std::move(queue_.front());
              queue_.pop_front();
              ++deadline_expired_;
              request.promise.set_exception(DeadlineError("before dispatch"));
              continue;
            }
            batch.requests.push_back(std::move(queue_.front()));
            queue_.pop_front();
          }
          ++batches_;
          max_coalesced_ = std::max(max_coalesced_, batch.requests.size());
        }
      }
    }
    cv_space_.NotifyAll();  // Freed queue slots.
    if (retire) break;
    if (!batch.requests.empty()) ServeBatch(&batch);
  }
  cv_space_.NotifyAll();  // Unblock kBlock submitters racing the shutdown.
}

void AsyncSearchService::ServeBatch(MicroBatch* batch) {
  RestageBatch(batch);
  // Pin this batch's index generation before any stage runs: every stage
  // — including singleton recovery re-runs — serves from this epoch,
  // whatever Ingest/Compact publishes meanwhile.
  batch->epoch = engine_->PinEpoch();
  std::vector<std::vector<SearchHit>> results;
  try {
    FCM_FAILPOINT("async.dispatch");
    engine_->EncodeStage(&batch->staged);
    ShedExpired(batch);
    if (batch->requests.empty()) return;
    engine_->CandidateStage(&batch->staged, nullptr, batch->epoch);
    ShedExpired(batch);
    if (batch->requests.empty()) return;
    results =
        engine_->ScoreStage(batch->staged, nullptr, nullptr, batch->epoch);
  } catch (...) {
    RecoverBatch(batch);
    return;
  }
  // Count before settling: once a future resolves, stats()/Health() must
  // already reflect that request (tests rely on this ordering).
  {
    common::MutexLock lk(&mu_);
    completed_ += batch->requests.size();
    for (size_t i = 0; i < batch->requests.size(); ++i) {
      NoteOutcomeLocked(/*ok=*/true);
    }
  }
  for (size_t i = 0; i < batch->requests.size(); ++i) {
    batch->requests[i].promise.set_value(std::move(results[i]));
  }
}

void AsyncSearchService::RestageBatch(MicroBatch* batch) {
  batch->staged.resize(batch->requests.size());
  for (size_t i = 0; i < batch->requests.size(); ++i) {
    batch->staged[i].query = &batch->requests[i].query;
    batch->staged[i].strategy = batch->requests[i].strategy;
    batch->staged[i].k = batch->requests[i].k;
    batch->staged[i].tag = batch->requests[i].id;
  }
}

void AsyncSearchService::ShedExpired(MicroBatch* batch) {
  const auto now = Clock::now();
  std::vector<std::promise<std::vector<SearchHit>>> expired;
  size_t out = 0;
  for (size_t i = 0; i < batch->requests.size(); ++i) {
    if (batch->requests[i].deadline <= now) {
      expired.push_back(std::move(batch->requests[i].promise));
      continue;
    }
    if (out != i) {
      // Keep requests[] and staged[] in lockstep so surviving requests
      // retain the stage outputs already computed for them.
      batch->requests[out] = std::move(batch->requests[i]);
      batch->staged[out] = std::move(batch->staged[i]);
    }
    ++out;
  }
  if (expired.empty()) return;
  batch->requests.resize(out);
  batch->staged.resize(out);
  for (size_t i = 0; i < out; ++i) {
    batch->staged[i].query = &batch->requests[i].query;
  }
  {
    common::MutexLock lk(&mu_);
    deadline_expired_ += expired.size();
  }
  for (auto& promise : expired) {
    promise.set_exception(DeadlineError("between stages"));
  }
}

void AsyncSearchService::RecoverBatch(MicroBatch* batch) {
  // Retry-once blast-radius isolation: a stage failed on this batch, so
  // re-run each request individually through all three stages. Neighbors
  // of a poisoned request get rankings bit-identical to Search (same
  // stage code, singleton grouping) and requests hit by a transient
  // batch-level fault simply succeed on the re-run; only requests that
  // fail again — genuinely poisoned — carry an error, and that second
  // failure is final (the re-runs below never recurse).
  const size_t n = batch->requests.size();
  if (common::GetLogLevel() <= common::LogLevel::kWarn) {
    FCM_LOGS(WARN) << "stage failure on a micro-batch of " << n
                   << " request(s); re-running individually";
  }
  {
    common::MutexLock lk(&mu_);
    retried_ += n;
  }
  for (auto& request : batch->requests) {
    if (request.deadline <= Clock::now()) {
      {
        common::MutexLock lk(&mu_);
        ++deadline_expired_;
      }
      request.promise.set_exception(DeadlineError("during batch recovery"));
      continue;
    }
    std::vector<SearchEngine::StagedQuery> staged(1);
    staged[0].query = &request.query;
    staged[0].strategy = request.strategy;
    staged[0].k = request.k;
    staged[0].tag = request.id;
    // Re-run on the batch's pinned epoch so recovery cannot observe a
    // different index generation than the batch it recovers.
    try {
      engine_->EncodeStage(&staged);
      engine_->CandidateStage(&staged, nullptr, batch->epoch);
      auto results =
          engine_->ScoreStage(staged, nullptr, nullptr, batch->epoch);
      {
        common::MutexLock lk(&mu_);
        ++completed_;
        NoteOutcomeLocked(/*ok=*/true);
      }
      request.promise.set_value(std::move(results[0]));
    } catch (...) {
      const std::exception_ptr request_error = std::current_exception();
      {
        common::MutexLock lk(&mu_);
        ++failed_;
        NoteOutcomeLocked(/*ok=*/false);
      }
      request.promise.set_exception(request_error);
    }
  }
}

void AsyncSearchService::NoteOutcomeLocked(bool ok) {
  if (ok) {
    consecutive_failures_ = 0;
    if (breaker_ == BreakerState::kHalfOpen) {
      breaker_ = BreakerState::kClosed;
    }
    return;
  }
  ++consecutive_failures_;
  if (options_.breaker_threshold == 0) return;
  // A failed half-open probe re-opens (the run was never reset, so the
  // threshold is still met); each transition into kOpen counts as a trip.
  if (breaker_ != BreakerState::kOpen &&
      consecutive_failures_ >= options_.breaker_threshold) {
    breaker_ = BreakerState::kOpen;
    breaker_opened_at_ = Clock::now();
    ++breaker_trips_;
  }
}

common::Status AsyncSearchService::Ingest(std::vector<table::Table> tables,
                                          IngestStats* stats) {
  if (mutable_engine_ == nullptr) {
    return common::Status::FailedPrecondition(
        "Ingest requires the mutable-engine constructor");
  }
  // Choke point for fault schedules: an armed failure here models the
  // admission layer rejecting an append before it reaches the engine.
  FCM_FAILPOINT_STATUS("async.ingest");
  IngestStats local;
  FCM_RETURN_IF_ERROR(mutable_engine_->IngestBatch(std::move(tables), &local));
  {
    common::MutexLock lk(&mu_);
    ++ingest_batches_;
    ingested_tables_ += local.tables;
  }
  if (stats != nullptr) *stats = local;
  return common::Status::OK();
}

common::Status AsyncSearchService::Compact(CompactStats* stats) {
  if (mutable_engine_ == nullptr) {
    return common::Status::FailedPrecondition(
        "Compact requires the mutable-engine constructor");
  }
  FCM_FAILPOINT_STATUS("async.compact");
  CompactStats local;
  FCM_RETURN_IF_ERROR(mutable_engine_->Compact(&local));
  {
    common::MutexLock lk(&mu_);
    ++compactions_;
  }
  if (stats != nullptr) *stats = local;
  return common::Status::OK();
}

void AsyncSearchService::Shutdown(bool drain) {
  common::MutexLock shutdown_lk(&shutdown_mu_);
  {
    common::MutexLock lk(&mu_);
    if (!stopping_) {
      stopping_ = true;
      cancel_ = !drain;
    }
    // A later Shutdown never un-cancels or re-cancels: the first call's
    // mode wins and this one just waits for the join below.
  }
  cv_data_.NotifyAll();
  cv_space_.NotifyAll();
  if (!joined_) {
    dispatch_thread_.join();
    joined_ = true;
  }
}

AsyncServiceStats AsyncSearchService::StatsLocked() const {
  AsyncServiceStats out;
  out.submitted = submitted_;
  out.completed = completed_;
  out.rejected = rejected_;
  out.cancelled = cancelled_;
  out.failed = failed_;
  out.deadline_expired = deadline_expired_;
  out.retried = retried_;
  out.fast_rejected = fast_rejected_;
  out.batches = batches_;
  out.max_coalesced = max_coalesced_;
  out.ingest_batches = ingest_batches_;
  out.ingested_tables = ingested_tables_;
  out.compactions = compactions_;
  return out;
}

AsyncServiceStats AsyncSearchService::stats() const {
  common::MutexLock lk(&mu_);
  return StatsLocked();
}

HealthSnapshot AsyncSearchService::Health() const {
  common::MutexLock lk(&mu_);
  HealthSnapshot out;
  out.breaker = breaker_;
  out.consecutive_failures = consecutive_failures_;
  out.breaker_trips = breaker_trips_;
  out.degraded =
      breaker_ == BreakerState::kOpen &&
      Clock::now() - breaker_opened_at_ <
          MsToDuration(options_.breaker_cooldown_ms);
  out.stats = StatsLocked();
  return out;
}

}  // namespace fcm::index
