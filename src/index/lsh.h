// Random-hyperplane LSH (paper Sec. VI-A): each column's learned embedding
// is hashed to a binary code by signing cosine similarities against K
// random vectors; datasets are indexed by all their columns' codes and a
// query line retrieves every dataset colliding in at least one table.
//
// Storage: frozen into CSR-style flat arrays at construction, as
// IntervalTree is, and probed through storage::Span views, so the same
// code serves a heap-built index or one mapped from a snapshot
// (FromFrozen). Queries return sorted, de-duplicated payload lists, so
// neither probe order nor the order of payloads in a bucket shows.

#ifndef FCM_INDEX_LSH_H_
#define FCM_INDEX_LSH_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "storage/span.h"

namespace fcm::index {

/// Configuration for the LSH index.
struct LshConfig {
  /// Bits per code (number of random hyperplanes per table).
  int num_bits = 12;
  /// Number of independent hash tables (multi-probe across tables raises
  /// recall at some cost in candidate-set size).
  int num_tables = 4;
  /// Also probe buckets at Hamming distance 1 from the query code.
  bool probe_hamming1 = true;
  uint64_t seed = 7;
};

/// One indexed item; the embedding memory (dim floats) must outlive the
/// constructor call.
struct LshItem {
  const float* embedding = nullptr;
  int64_t payload = 0;
};

/// Cosine LSH over dense float vectors with int64 payloads (table ids).
class RandomHyperplaneLsh {
 public:
  /// The frozen columnar bucket layout. table_begin (size num_tables + 1)
  /// slices `codes` per hash table; within a table codes are strictly
  /// ascending. payload_begin (size codes + 1) slices `payloads`, which
  /// list each bucket's payloads in item order.
  struct Frozen {
    /// hyperplanes[(table * num_bits + bit) * dim + d].
    storage::Span<float> hyperplanes;
    storage::Span<uint64_t> table_begin;
    storage::Span<uint64_t> codes;
    storage::Span<uint64_t> payload_begin;
    storage::Span<int64_t> payloads;
  };

  /// Indexes `items` (`dim` floats each) and freezes. Every (item, table)
  /// code is computed in one pass fanned out across `pool` (non-null);
  /// each table's buckets are then laid out serially, so the arrays are
  /// identical for every pool size. Adjacent duplicate payloads within a
  /// bucket — several columns of one table colliding — are dropped: they
  /// cannot change Query results (which dedup) and would only inflate
  /// memory and probe cost.
  RandomHyperplaneLsh(int dim, const LshConfig& config,
                      const std::vector<LshItem>& items,
                      common::ThreadPool* pool);

  /// Wraps externally owned frozen arrays (e.g. mmap'ed snapshot
  /// sections) without copying. Validates array-length consistency,
  /// offset monotonicity and in-table code ordering; fails loudly
  /// otherwise. The backing memory must outlive the returned index.
  static common::Result<RandomHyperplaneLsh> FromFrozen(
      int dim, const LshConfig& config, size_t num_items,
      const Frozen& frozen);

  RandomHyperplaneLsh(const RandomHyperplaneLsh&) = delete;
  RandomHyperplaneLsh& operator=(const RandomHyperplaneLsh&) = delete;
  RandomHyperplaneLsh(RandomHyperplaneLsh&&) = default;
  RandomHyperplaneLsh& operator=(RandomHyperplaneLsh&&) = default;

  /// The frozen arrays (for snapshot serialization).
  const Frozen& frozen() const { return view_; }

  /// Binary code of an embedding in hash table `table`.
  uint64_t Code(const std::vector<float>& embedding, int table) const;

  /// All payloads colliding with the query embedding in any table
  /// (optionally probing Hamming-distance-1 buckets), deduplicated and
  /// sorted ascending.
  std::vector<int64_t> Query(const std::vector<float>& embedding) const;

  /// Batched Query: out[i] == Query(embeddings[i]) exactly, with the code
  /// computation and probing fanned out per (embedding, table) across
  /// `pool` (non-null) and per-table hits merged per embedding in a second
  /// dispatch.
  std::vector<std::vector<int64_t>> QueryBatch(
      const std::vector<std::vector<float>>& embeddings,
      common::ThreadPool* pool) const;

  /// Memory footprint of the frozen arrays in bytes, whether owned or
  /// file-backed.
  size_t MemoryBytes() const;

  size_t num_items() const { return num_items_; }

 private:
  RandomHyperplaneLsh() = default;

  /// The hyperplane for (table, bit): `dim_` floats.
  const float* Hyperplane(int table, int bit) const {
    return view_.hyperplanes.data() +
           (static_cast<size_t>(table) * config_.num_bits + bit) *
               static_cast<size_t>(dim_);
  }

  uint64_t CodeRaw(const float* embedding, int table) const;

  /// Probes one table for `code` plus (when configured) its Hamming-1
  /// neighbours, appending raw hits to `out`.
  void ProbeTable(int table, uint64_t code, std::vector<int64_t>* out) const;

  int dim_ = 0;
  LshConfig config_;

  // Owned backing (empty when wrapping external frozen memory).
  std::vector<float> hyperplanes_;
  std::vector<uint64_t> table_begin_;
  std::vector<uint64_t> codes_;
  std::vector<uint64_t> payload_begin_;
  std::vector<int64_t> payloads_;

  Frozen view_;
  size_t num_items_ = 0;
};

}  // namespace fcm::index

#endif  // FCM_INDEX_LSH_H_
