#include "index/lsh.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "common/simd.h"

namespace fcm::index {

namespace {

/// Shared tail of Query/QueryBatch: collapse raw probe hits to the sorted
/// unique payload list the public API promises.
std::vector<int64_t> SortedUnique(std::vector<int64_t> hits) {
  std::sort(hits.begin(), hits.end());
  hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
  return hits;
}

}  // namespace

RandomHyperplaneLsh::RandomHyperplaneLsh(int dim, const LshConfig& config,
                                         const std::vector<LshItem>& items,
                                         common::ThreadPool* pool)
    : dim_(dim), config_(config), num_items_(items.size()) {
  FCM_CHECK_GT(dim, 0);
  FCM_CHECK_GT(config.num_bits, 0);
  FCM_CHECK_LE(config.num_bits, 64);
  FCM_CHECK_GT(config.num_tables, 0);
  FCM_CHECK(pool != nullptr);
  common::Rng rng(config.seed);
  hyperplanes_.resize(static_cast<size_t>(config.num_tables) *
                      config.num_bits * static_cast<size_t>(dim));
  for (auto& v : hyperplanes_) v = static_cast<float>(rng.Normal());
  view_.hyperplanes = hyperplanes_;

  // Per-(item, table) codes: the dot products dominate the build and are
  // embarrassingly parallel.
  const size_t n = items.size();
  const size_t tables = static_cast<size_t>(config.num_tables);
  std::vector<uint64_t> codes(n * tables);
  pool->ParallelFor(n, [&](size_t i) {
    for (size_t t = 0; t < tables; ++t) {
      codes[t * n + i] = CodeRaw(items[i].embedding, static_cast<int>(t));
    }
  });

  // Per table, (code, item) pairs sorted ascending put codes in order and
  // each bucket's items in item order; one pass then writes the CSR
  // arrays, dropping adjacent duplicate payloads.
  std::vector<std::pair<uint64_t, size_t>> keyed(n);
  for (size_t t = 0; t < tables; ++t) {
    table_begin_.push_back(codes_.size());
    for (size_t i = 0; i < n; ++i) keyed[i] = {codes[t * n + i], i};
    std::sort(keyed.begin(), keyed.end());
    for (const auto& [code, i] : keyed) {
      const int64_t payload = items[i].payload;
      if (codes_.size() == table_begin_.back() || codes_.back() != code) {
        codes_.push_back(code);
        payload_begin_.push_back(payloads_.size());
      } else if (payloads_.back() == payload) {
        continue;
      }
      payloads_.push_back(payload);
    }
  }
  table_begin_.push_back(codes_.size());
  payload_begin_.push_back(payloads_.size());
  view_.table_begin = table_begin_;
  view_.codes = codes_;
  view_.payload_begin = payload_begin_;
  view_.payloads = payloads_;
}

common::Result<RandomHyperplaneLsh> RandomHyperplaneLsh::FromFrozen(
    int dim, const LshConfig& config, size_t num_items,
    const Frozen& frozen) {
  auto bad = [](const std::string& what) {
    return common::Status::InvalidArgument("lsh frozen data: " + what);
  };
  if (dim <= 0 || config.num_bits <= 0 || config.num_bits > 64 ||
      config.num_tables <= 0) {
    return bad("invalid configuration");
  }
  const size_t tables = static_cast<size_t>(config.num_tables);
  if (frozen.hyperplanes.size() !=
      tables * config.num_bits * static_cast<size_t>(dim)) {
    return bad("hyperplane block has the wrong size");
  }
  if (frozen.table_begin.size() != tables + 1) {
    return bad("table_begin length does not match the table count");
  }
  if (frozen.table_begin[0] != 0 ||
      frozen.table_begin[tables] != frozen.codes.size()) {
    return bad("table_begin does not span the code array");
  }
  for (size_t t = 0; t < tables; ++t) {
    // Bound every offset before reading a code through it.
    if (frozen.table_begin[t] > frozen.table_begin[t + 1] ||
        frozen.table_begin[t + 1] > frozen.codes.size()) {
      return bad("table_begin is not monotone within the code array");
    }
    for (uint64_t i = frozen.table_begin[t] + 1;
         i < frozen.table_begin[t + 1]; ++i) {
      if (frozen.codes[i - 1] >= frozen.codes[i]) {
        return bad("codes are not strictly increasing within a table");
      }
    }
  }
  if (frozen.payload_begin.size() != frozen.codes.size() + 1) {
    return bad("payload_begin length does not match the code array");
  }
  if (frozen.payload_begin[0] != 0 ||
      frozen.payload_begin.back() != frozen.payloads.size()) {
    return bad("payload_begin does not span the payload array");
  }
  for (size_t i = 0; i + 1 < frozen.payload_begin.size(); ++i) {
    // Every bucket holds at least one payload (the build never writes an
    // empty one).
    if (frozen.payload_begin[i] >= frozen.payload_begin[i + 1]) {
      return bad("payload_begin is not strictly monotone");
    }
  }

  RandomHyperplaneLsh lsh;
  lsh.dim_ = dim;
  lsh.config_ = config;
  lsh.view_ = frozen;
  lsh.num_items_ = num_items;
  return lsh;
}

uint64_t RandomHyperplaneLsh::CodeRaw(const float* embedding,
                                      int table) const {
  const auto& kernels = simd::Active();
  uint64_t code = 0;
  for (int b = 0; b < config_.num_bits; ++b) {
    const float dot = kernels.dot_f32(Hyperplane(table, b), embedding,
                                      static_cast<size_t>(dim_));
    // The sign of the dot product rounds the cosine similarity to a bit.
    if (dot >= 0.0f) code |= (1ULL << b);
  }
  return code;
}

uint64_t RandomHyperplaneLsh::Code(const std::vector<float>& embedding,
                                   int table) const {
  FCM_CHECK_EQ(static_cast<int>(embedding.size()), dim_);
  return CodeRaw(embedding.data(), table);
}

void RandomHyperplaneLsh::ProbeTable(int table, uint64_t code,
                                     std::vector<int64_t>* out) const {
  const uint64_t* codes = view_.codes.data();
  const uint64_t* begin = codes + view_.table_begin[table];
  const uint64_t* end = codes + view_.table_begin[table + 1];
  const auto probe = [&](uint64_t c) {
    const uint64_t* it = std::lower_bound(begin, end, c);
    if (it == end || *it != c) return;
    const size_t bucket = static_cast<size_t>(it - codes);
    out->insert(out->end(),
                view_.payloads.data() + view_.payload_begin[bucket],
                view_.payloads.data() + view_.payload_begin[bucket + 1]);
  };
  probe(code);
  if (config_.probe_hamming1) {
    for (int b = 0; b < config_.num_bits; ++b) probe(code ^ (1ULL << b));
  }
}

std::vector<int64_t> RandomHyperplaneLsh::Query(
    const std::vector<float>& embedding) const {
  std::vector<int64_t> hits;
  for (int t = 0; t < config_.num_tables; ++t) {
    ProbeTable(t, Code(embedding, t), &hits);
  }
  return SortedUnique(std::move(hits));
}

std::vector<std::vector<int64_t>> RandomHyperplaneLsh::QueryBatch(
    const std::vector<std::vector<float>>& embeddings,
    common::ThreadPool* pool) const {
  const size_t n = embeddings.size();
  std::vector<std::vector<int64_t>> out(n);
  if (n == 0) return out;
  const size_t tables = static_cast<size_t>(config_.num_tables);
  // Stage 1: every (embedding, table) pair codes and probes independently,
  // so small batches still spread across the pool.
  std::vector<std::vector<int64_t>> table_hits(n * tables);
  pool->ParallelFor(n * tables, [&](size_t p) {
    const size_t i = p / tables;
    const int t = static_cast<int>(p % tables);
    ProbeTable(t, Code(embeddings[i], t), &table_hits[p]);
  });
  // Stage 2: per-embedding merge, identical to Query's tail.
  pool->ParallelFor(n, [&](size_t i) {
    std::vector<int64_t> hits;
    for (size_t t = 0; t < tables; ++t) {
      const auto& h = table_hits[i * tables + t];
      hits.insert(hits.end(), h.begin(), h.end());
    }
    out[i] = SortedUnique(std::move(hits));
  });
  return out;
}

size_t RandomHyperplaneLsh::MemoryBytes() const {
  return view_.hyperplanes.size() * sizeof(float) +
         (view_.table_begin.size() + view_.codes.size() +
          view_.payload_begin.size()) *
             sizeof(uint64_t) +
         view_.payloads.size() * sizeof(int64_t);
}

}  // namespace fcm::index
