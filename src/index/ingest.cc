// Writer side of the live-ingestion subsystem: IngestBatch / Compact
// (members of SearchEngine, kept out of search_engine.cc so the serving
// path stays a pure-reader translation unit).

#include "index/search_engine.h"

#include <chrono>
#include <cstring>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "index/index_segment.h"

namespace fcm::index {

namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

common::Status SearchEngine::IngestBatch(std::vector<table::Table> tables,
                                         IngestStats* stats) {
  // One writer at a time: segment construction and epoch numbering are
  // single-writer, while readers keep pinning/serving untouched.
  common::MutexLock writer(&ingest_mu_);
  FCM_FAILPOINT_STATUS("engine.ingest_batch");
  const EpochPin current = PinEpoch();
  if (current == nullptr) {
    return common::Status::FailedPrecondition(
        "IngestBatch requires a built engine (call BuildWithOptions first)");
  }
  if (stats != nullptr) {
    *stats = {};
    stats->epoch_id = current->id();
    stats->delta_segments =
        current->num_segments() > 0 ? current->num_segments() - 1 : 0;
  }
  if (tables.empty()) return common::Status::OK();

  // The batch extends the dense id space: ids num_tables(), +1, ... —
  // whatever ids the tables carried before are overwritten, exactly like
  // DataLake::Add assigns dense ids at build time.
  const auto first_id = static_cast<table::TableId>(current->num_tables());
  for (size_t i = 0; i < tables.size(); ++i) {
    tables[i].set_id(first_id + static_cast<table::TableId>(i));
  }

  IngestStats local;
  local.tables = tables.size();
  auto segment =
      BuildSegment(tables, first_id, &local.encode_seconds,
                   &local.interval_seconds, &local.lsh_seconds);

  // Publish: new epoch = old segment list + the delta. Copying the list
  // copies shared_ptrs, never segments; in-flight readers keep their pin.
  std::shared_ptr<EngineEpoch> next(new EngineEpoch());
  next->id_ = current->id() + 1;
  next->num_tables_ = current->num_tables() + tables.size();
  next->segments_ = current->segments_;
  next->segments_.push_back(std::move(segment));
  local.epoch_id = next->id_;
  local.delta_segments = next->segments_.size() - 1;
  PublishEpoch(std::move(next));

  FCM_LOGS(INFO) << "Ingested " << local.tables << " tables as epoch "
                 << local.epoch_id << " (" << local.delta_segments
                 << " delta segments, encode " << local.encode_seconds
                 << "s, lsh " << local.lsh_seconds << "s)";
  if (stats != nullptr) *stats = local;
  return common::Status::OK();
}

common::Status SearchEngine::Compact(CompactStats* stats) {
  common::MutexLock writer(&ingest_mu_);
  FCM_FAILPOINT_STATUS("engine.compact");
  const EpochPin current = PinEpoch();
  if (current == nullptr) {
    return common::Status::FailedPrecondition(
        "Compact requires a built engine (call BuildWithOptions first)");
  }
  const auto t0 = std::chrono::steady_clock::now();
  if (stats != nullptr) {
    *stats = {};
    stats->segments_merged = current->num_segments();
    stats->epoch_id = current->id();
  }
  if (current->num_segments() <= 1) return common::Status::OK();  // No-op.

  // Merge every segment into one fresh base. Entries (the expensive
  // encodings) are shared, never copied; only the means blocks are
  // re-concatenated in global table order, and the LSH + interval tree
  // are rebuilt over them — the same inputs in the same order a
  // from-scratch build over these logical tables would consume, so the
  // merged index is structurally identical and rankings cannot change.
  const size_t embed_dim = static_cast<size_t>(model_->config().embed_dim);
  const bool int8_mode = options_.precision == EmbeddingPrecision::kInt8;
  auto merged = std::make_shared<IndexSegment>();
  merged->first_id = 0;
  merged->entries.reserve(current->num_tables());
  merged->mean_begin.reserve(current->num_tables());
  uint64_t rows = 0;
  for (const auto& segment : current->segments_) {
    for (size_t i = 0; i < segment->entries.size(); ++i) {
      merged->entries.push_back(segment->entries[i]);
      merged->mean_begin.push_back(rows);
      const uint64_t begin = segment->mean_begin[i];
      const size_t num_means = segment->entries[i]->num_means;
      if (int8_mode) {
        const int8_t* codes =
            segment->means_q_view.data() + begin * embed_dim;
        merged->means_q_data.insert(merged->means_q_data.end(), codes,
                                    codes + num_means * embed_dim);
        const float* scales = segment->means_scale_view.data() + begin;
        merged->means_scale_data.insert(merged->means_scale_data.end(),
                                        scales, scales + num_means);
      } else {
        const float* block = segment->means_view.data() + begin * embed_dim;
        merged->means_data.insert(merged->means_data.end(), block,
                                  block + num_means * embed_dim);
      }
      rows += num_means;
    }
  }
  if (int8_mode) {
    merged->means_q_view = merged->means_q_data;
    merged->means_scale_view = merged->means_scale_data;
  } else {
    merged->means_view = merged->means_data;
  }

  CompactStats local;
  local.segments_merged = current->num_segments();
  double interval_seconds = 0.0, lsh_seconds = 0.0;
  BuildSegmentIndexes(merged.get(), &interval_seconds, &lsh_seconds);

  std::shared_ptr<EngineEpoch> next(new EngineEpoch());
  next->id_ = current->id() + 1;
  next->num_tables_ = current->num_tables();
  next->segments_.push_back(std::move(merged));
  local.epoch_id = next->id_;
  PublishEpoch(std::move(next));

  local.seconds = Seconds(t0);
  FCM_LOGS(INFO) << "Compacted " << local.segments_merged
                 << " segments into epoch " << local.epoch_id << " ("
                 << local.seconds << "s)";
  if (stats != nullptr) *stats = local;
  return common::Status::OK();
}

}  // namespace fcm::index
