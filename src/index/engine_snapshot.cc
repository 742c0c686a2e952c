// SearchEngine snapshot persistence: SaveSnapshot serializes the frozen
// engine state into the storage/snapshot container; OpenSnapshot rebuilds
// a serving engine on top of it. The numeric index arrays — LSH
// hyperplanes and CSR buckets, interval-tree node/interval arrays, the
// mean-embedding block — are written as raw typed sections and served as
// zero-copy spans over the mmap'ed file. Column-encoding tensors are the
// one exception: the nn substrate owns its float buffers, so they are
// materialized (copied out of the mapping) at open; see
// docs/ARCHITECTURE.md.
//
// Section layout (names are the contract; the "meta" and "enc.index"
// streams use common::BinaryWriter framing):
//   meta            engine-meta version (first field, checked before
//                   anything else is parsed), table count, model + LSH
//                   configuration, precision, mean_prefilter; must be
//                   consumed exactly
//   model.state     FcmModel parameters (nn::Module::SaveState)
//   means.f32       mean-embedding block, num_means x embed_dim
//                   (kFloat32 engines only)
//   means.i8        quantized mean-embedding block, num_means x embed_dim
//                   int8 codes (kInt8 engines only; replaces means.f32)
//   means.scale.f32 per-row quantization scales, num_means (kInt8 only)
//   lsh.planes.f32  hyperplane block
//   lsh.gbegin.u64 / lsh.codes.u64 / lsh.pbegin.u64 / lsh.pay.i64
//                   CSR buckets; gbegin holds num_tables + 1 offsets
//                   into codes, one code range per hash table
//   it.center.f64 / it.left.i32 / it.right.i32 / it.begin.u64 /
//   it.count.u64 / it.lo.{lo,hi}.f64 / it.lo.pay.i64 /
//   it.hi.{lo,hi}.f64 / it.hi.pay.i64
//   enc.index       per-table encoding structure + mean slice
//   enc.rep.f32 / enc.desc.f32 / enc.da.f32   flat float blocks consumed
//                   in canonical order (table id asc, columns, then
//                   derivations), checked for exact consumption

#include <cstring>
#include <utility>

#include "common/serialize.h"
#include "index/index_segment.h"
#include "index/search_engine.h"

namespace fcm::index {

namespace {

constexpr const char* kMetaSection = "meta";
constexpr const char* kModelSection = "model.state";
constexpr const char* kMeansSection = "means.f32";
constexpr const char* kMeansQSection = "means.i8";
constexpr const char* kMeansScaleSection = "means.scale.f32";

/// Version of the meta stream, written as its first field. v2 streams
/// began with the u64 table count and ended with a {version, precision,
/// mean_prefilter} block, so their version sits kV2TrailerBytes from the
/// end; v1 streams carried no version at all.
constexpr uint32_t kEngineMetaVersion = 3;
constexpr size_t kV2TrailerBytes = 3 * sizeof(uint32_t);

common::Status Bad(const std::string& what) {
  return common::Status::InvalidArgument("engine snapshot: " + what);
}

void WriteConfig(common::BinaryWriter* w, const core::FcmConfig& c) {
  w->WriteU32(static_cast<uint32_t>(c.embed_dim));
  w->WriteU32(static_cast<uint32_t>(c.num_heads));
  w->WriteU32(static_cast<uint32_t>(c.num_layers));
  w->WriteU32(static_cast<uint32_t>(c.mlp_hidden));
  w->WriteU32(static_cast<uint32_t>(c.strip_height));
  w->WriteU32(static_cast<uint32_t>(c.strip_width));
  w->WriteU32(static_cast<uint32_t>(c.line_segment_width));
  w->WriteU32(static_cast<uint32_t>(c.column_length));
  w->WriteU32(static_cast<uint32_t>(c.data_segment_size));
  w->WriteU32(c.use_da_layers ? 1 : 0);
  w->WriteU32(static_cast<uint32_t>(c.beta));
  w->WriteU32(static_cast<uint32_t>(c.moe_gate_hidden));
  w->WriteU32(c.use_hcman ? 1 : 0);
  w->WriteU32(static_cast<uint32_t>(c.matcher_hidden));
  w->WriteU32(static_cast<uint32_t>(c.descriptor_size));
  w->WriteU64(c.seed);
}

common::Status ReadConfig(common::BinaryReader* r, core::FcmConfig* c) {
  auto u32 = [&](int* out) -> common::Status {
    auto v = r->ReadU32();
    if (!v.ok()) return v.status();
    *out = static_cast<int>(v.value());
    return common::Status::OK();
  };
  auto b32 = [&](bool* out) -> common::Status {
    auto v = r->ReadU32();
    if (!v.ok()) return v.status();
    *out = v.value() != 0;
    return common::Status::OK();
  };
  FCM_RETURN_IF_ERROR(u32(&c->embed_dim));
  FCM_RETURN_IF_ERROR(u32(&c->num_heads));
  FCM_RETURN_IF_ERROR(u32(&c->num_layers));
  FCM_RETURN_IF_ERROR(u32(&c->mlp_hidden));
  FCM_RETURN_IF_ERROR(u32(&c->strip_height));
  FCM_RETURN_IF_ERROR(u32(&c->strip_width));
  FCM_RETURN_IF_ERROR(u32(&c->line_segment_width));
  FCM_RETURN_IF_ERROR(u32(&c->column_length));
  FCM_RETURN_IF_ERROR(u32(&c->data_segment_size));
  FCM_RETURN_IF_ERROR(b32(&c->use_da_layers));
  FCM_RETURN_IF_ERROR(u32(&c->beta));
  FCM_RETURN_IF_ERROR(u32(&c->moe_gate_hidden));
  FCM_RETURN_IF_ERROR(b32(&c->use_hcman));
  FCM_RETURN_IF_ERROR(u32(&c->matcher_hidden));
  FCM_RETURN_IF_ERROR(u32(&c->descriptor_size));
  auto seed = r->ReadU64();
  if (!seed.ok()) return seed.status();
  c->seed = seed.value();
  return common::Status::OK();
}

/// Serializes one column's structure into the index stream and appends
/// its float payloads to the flat blocks.
void WriteColumn(const core::ColumnEncoding& enc, common::BinaryWriter* idx,
                 std::vector<float>* rep, std::vector<float>* desc,
                 std::vector<float>* da) {
  idx->WriteI64(enc.column_index);
  idx->WriteF64(enc.range_lo);
  idx->WriteF64(enc.range_hi);
  idx->WriteU64(static_cast<uint64_t>(enc.representation.dim(0)));
  idx->WriteU64(static_cast<uint64_t>(enc.representation.dim(1)));
  idx->WriteU64(enc.descriptor.size());
  idx->WriteU64(enc.da_descriptors.size());
  for (const auto& d : enc.da_descriptors) idx->WriteU64(d.size());
  const auto& data = enc.representation.data();
  rep->insert(rep->end(), data.begin(), data.end());
  desc->insert(desc->end(), enc.descriptor.begin(), enc.descriptor.end());
  for (const auto& d : enc.da_descriptors) {
    da->insert(da->end(), d.begin(), d.end());
  }
}

/// Cursor-tracked consumption of the flat float blocks at open time.
struct BlockCursor {
  storage::Span<float> block;
  size_t pos = 0;
  const char* name;

  common::Result<std::vector<float>> Take(size_t n) {
    if (n > block.size() - pos || pos > block.size()) {
      return Bad(std::string(name) + " block exhausted");
    }
    std::vector<float> out(block.data() + pos, block.data() + pos + n);
    pos += n;
    return out;
  }
};

common::Status ReadColumn(common::BinaryReader* idx, BlockCursor* rep,
                          BlockCursor* desc, BlockCursor* da,
                          core::ColumnEncoding* out) {
  auto ci = idx->ReadI64();
  auto lo = idx->ReadF64();
  auto hi = idx->ReadF64();
  auto rows = idx->ReadU64();
  auto cols = idx->ReadU64();
  auto desc_len = idx->ReadU64();
  auto num_da = idx->ReadU64();
  for (const auto* r :
       {!ci.ok() ? &ci.status() : nullptr, !lo.ok() ? &lo.status() : nullptr,
        !hi.ok() ? &hi.status() : nullptr,
        !rows.ok() ? &rows.status() : nullptr,
        !cols.ok() ? &cols.status() : nullptr,
        !desc_len.ok() ? &desc_len.status() : nullptr,
        !num_da.ok() ? &num_da.status() : nullptr}) {
    if (r != nullptr) return *r;
  }
  out->column_index = static_cast<int>(ci.value());
  out->range_lo = lo.value();
  out->range_hi = hi.value();
  if (rows.value() > (1u << 24) || cols.value() > (1u << 24)) {
    return Bad("implausible representation shape");
  }
  const size_t n = static_cast<size_t>(rows.value()) *
                   static_cast<size_t>(cols.value());
  auto rep_values = rep->Take(n);
  if (!rep_values.ok()) return rep_values.status();
  out->representation = nn::Tensor::FromVector(
      {static_cast<int>(rows.value()), static_cast<int>(cols.value())},
      std::move(rep_values).ValueOrDie());
  auto desc_values = desc->Take(desc_len.value());
  if (!desc_values.ok()) return desc_values.status();
  out->descriptor = std::move(desc_values).ValueOrDie();
  out->da_descriptors.clear();
  for (uint64_t d = 0; d < num_da.value(); ++d) {
    auto len = idx->ReadU64();
    if (!len.ok()) return len.status();
    auto values = da->Take(len.value());
    if (!values.ok()) return values.status();
    out->da_descriptors.push_back(std::move(values).ValueOrDie());
  }
  return common::Status::OK();
}

}  // namespace

common::Status SearchEngine::SaveSnapshot(const std::string& path) const {
  const EpochPin pin = PinEpoch();
  if (pin == nullptr) {
    return common::Status::FailedPrecondition(
        "engine snapshot: engine is not built");
  }
  // The snapshot format is a single frozen base; a multi-segment epoch
  // must be merged first. (Compact is cheap relative to encoding — only
  // the means blocks move and the LSH / tree rebuild.)
  if (pin->num_segments() != 1) {
    return common::Status::FailedPrecondition(
        "engine snapshot: epoch has " + std::to_string(pin->num_segments()) +
        " segments; call Compact() before SaveSnapshot");
  }
  const IndexSegment& segment = *pin->segments_.front();
  storage::SnapshotWriter writer;

  // meta.
  common::BinaryWriter meta;
  meta.WriteU32(kEngineMetaVersion);
  meta.WriteU64(segment.entries.size());
  WriteConfig(&meta, model_->config());
  meta.WriteU32(options_.index_x_derivations ? 1 : 0);
  meta.WriteU32(static_cast<uint32_t>(options_.x_derivation_grid));
  meta.WriteU32(static_cast<uint32_t>(options_.lsh.num_bits));
  meta.WriteU32(static_cast<uint32_t>(options_.lsh.num_tables));
  meta.WriteU32(options_.lsh.probe_hamming1 ? 1 : 0);
  meta.WriteU64(options_.lsh.seed);
  meta.WriteU64(segment.lsh->num_items());
  meta.WriteU32(static_cast<uint32_t>(options_.precision));
  meta.WriteU32(static_cast<uint32_t>(options_.mean_prefilter));
  writer.AddSection(kMetaSection, meta.buffer().data(), meta.buffer().size());

  // Model parameters.
  common::BinaryWriter model_state;
  model_->SaveState(&model_state);
  writer.AddSection(kModelSection, model_state.buffer().data(),
                    model_state.buffer().size());

  // Mean-embedding block: the precision mode's storage, nothing else —
  // an int8 snapshot carries no f32 means at all (the footprint win
  // persists to disk and to the mmap).
  if (options_.precision == EmbeddingPrecision::kInt8) {
    writer.AddTypedSection(kMeansQSection, segment.means_q_view);
    writer.AddTypedSection(kMeansScaleSection, segment.means_scale_view);
  } else {
    writer.AddTypedSection(kMeansSection, segment.means_view);
  }

  // Frozen LSH.
  const auto& lf = segment.lsh->frozen();
  writer.AddTypedSection("lsh.planes.f32", lf.hyperplanes);
  writer.AddTypedSection("lsh.gbegin.u64", lf.table_begin);
  writer.AddTypedSection("lsh.codes.u64", lf.codes);
  writer.AddTypedSection("lsh.pbegin.u64", lf.payload_begin);
  writer.AddTypedSection("lsh.pay.i64", lf.payloads);

  // Frozen interval tree.
  const auto& tf = segment.interval_tree->frozen();
  writer.AddTypedSection("it.center.f64", tf.center);
  writer.AddTypedSection("it.left.i32", tf.left);
  writer.AddTypedSection("it.right.i32", tf.right);
  writer.AddTypedSection("it.begin.u64", tf.slice_begin);
  writer.AddTypedSection("it.count.u64", tf.slice_count);
  writer.AddTypedSection("it.lo.lo.f64", tf.bylo_lo);
  writer.AddTypedSection("it.lo.hi.f64", tf.bylo_hi);
  writer.AddTypedSection("it.lo.pay.i64", tf.bylo_payload);
  writer.AddTypedSection("it.hi.lo.f64", tf.byhi_lo);
  writer.AddTypedSection("it.hi.hi.f64", tf.byhi_hi);
  writer.AddTypedSection("it.hi.pay.i64", tf.byhi_payload);

  // Column encodings: structure stream + flat float blocks.
  common::BinaryWriter idx;
  std::vector<float> rep_block, desc_block, da_block;
  for (size_t i = 0; i < segment.entries.size(); ++i) {
    const TableEntry& entry = *segment.entries[i];
    idx.WriteU64(entry.encoding.size());
    for (const auto& enc : entry.encoding) {
      WriteColumn(enc, &idx, &rep_block, &desc_block, &da_block);
    }
    idx.WriteU64(entry.derivations.size());
    for (const auto& derived : entry.derivations) {
      idx.WriteU64(derived.size());
      for (const auto& enc : derived) {
        WriteColumn(enc, &idx, &rep_block, &desc_block, &da_block);
      }
    }
    idx.WriteU64(segment.mean_begin[i]);
    idx.WriteU64(entry.num_means);
  }
  writer.AddSection("enc.index", idx.buffer().data(), idx.buffer().size());
  writer.AddTypedSection("enc.rep.f32", rep_block);
  writer.AddTypedSection("enc.desc.f32", desc_block);
  writer.AddTypedSection("enc.da.f32", da_block);

  return writer.WriteToFile(path);
}

common::Result<std::unique_ptr<SearchEngine>> SearchEngine::OpenSnapshot(
    const std::string& path, const SnapshotOpenOptions& options) {
  storage::SnapshotReadOptions read_options;
  read_options.use_mmap = options.use_mmap;
  auto reader_result = storage::SnapshotReader::Open(path, read_options);
  if (!reader_result.ok()) return reader_result.status();
  std::unique_ptr<storage::SnapshotReader> reader =
      std::move(reader_result).ValueOrDie();

  // meta.
  auto meta_raw = reader->Section(kMetaSection);
  if (!meta_raw.ok()) return meta_raw.status();
  const storage::Span<uint8_t> meta_bytes = meta_raw.value();
  common::BinaryReader meta(meta_bytes.ToVector());
  auto rd_u32 = [&meta](uint32_t* out) -> common::Status {
    auto v = meta.ReadU32();
    if (!v.ok()) return v.status();
    *out = v.value();
    return common::Status::OK();
  };
  uint32_t version = 0;
  FCM_RETURN_IF_ERROR(rd_u32(&version));
  if (version != kEngineMetaVersion) {
    uint32_t trailer = 0;
    const size_t n = meta_bytes.size();
    if (n >= kV2TrailerBytes) {
      std::memcpy(&trailer, meta_bytes.data() + n - kV2TrailerBytes, 4);
    }
    return Bad("unsupported engine meta version " +
               std::to_string(trailer == 2 ? trailer : version));
  }
  auto num_tables = meta.ReadU64();
  if (!num_tables.ok()) return num_tables.status();
  core::FcmConfig config;
  FCM_RETURN_IF_ERROR(ReadConfig(&meta, &config));
  uint32_t index_x_derivations = 0, x_derivation_grid = 0;
  uint32_t lsh_bits = 0, lsh_tables = 0, lsh_hamming1 = 0;
  FCM_RETURN_IF_ERROR(rd_u32(&index_x_derivations));
  FCM_RETURN_IF_ERROR(rd_u32(&x_derivation_grid));
  FCM_RETURN_IF_ERROR(rd_u32(&lsh_bits));
  FCM_RETURN_IF_ERROR(rd_u32(&lsh_tables));
  FCM_RETURN_IF_ERROR(rd_u32(&lsh_hamming1));
  auto lsh_seed = meta.ReadU64();
  if (!lsh_seed.ok()) return lsh_seed.status();
  auto lsh_items = meta.ReadU64();
  if (!lsh_items.ok()) return lsh_items.status();
  uint32_t precision = 0, mean_prefilter = 0;
  FCM_RETURN_IF_ERROR(rd_u32(&precision));
  FCM_RETURN_IF_ERROR(rd_u32(&mean_prefilter));
  if (meta.remaining() != 0) return Bad("meta stream has trailing bytes");
  if (config.embed_dim <= 0 || config.embed_dim > (1 << 20)) {
    return Bad("implausible embed_dim");
  }
  if (precision > 1) return Bad("unknown embedding precision");

  // Model, reconstructed from config + saved parameters (shape- and
  // name-validated by Module::LoadState).
  auto model_raw = reader->Section(kModelSection);
  if (!model_raw.ok()) return model_raw.status();
  auto model = std::make_unique<core::FcmModel>(config);
  {
    common::BinaryReader model_state(model_raw.value().ToVector());
    FCM_RETURN_IF_ERROR(model->LoadState(&model_state));
  }

  auto engine = std::unique_ptr<SearchEngine>(
      new SearchEngine(model.get(), /*lake=*/nullptr));
  engine->owned_model_ = std::move(model);
  engine->options_.num_threads = options.num_threads;
  engine->options_.index_x_derivations = index_x_derivations != 0;
  engine->options_.x_derivation_grid = static_cast<int>(x_derivation_grid);
  engine->options_.lsh.num_bits = static_cast<int>(lsh_bits);
  engine->options_.lsh.num_tables = static_cast<int>(lsh_tables);
  engine->options_.lsh.probe_hamming1 = lsh_hamming1 != 0;
  engine->options_.lsh.seed = lsh_seed.value();
  engine->options_.precision = static_cast<EmbeddingPrecision>(precision);
  engine->options_.mean_prefilter = static_cast<int>(mean_prefilter);
  engine->pool_ = std::make_unique<common::ThreadPool>(options.num_threads);

  // Everything below populates one frozen base segment, published as
  // epoch 0 — an opened engine starts life compact, exactly like a
  // freshly built one, and accepts IngestBatch the same way.
  auto segment = std::make_shared<IndexSegment>();
  segment->first_id = 0;

  // Mean-embedding block: zero-copy view(s) over the snapshot — the f32
  // block, or in kInt8 mode the code block plus its per-row scales.
  size_t total_means = 0;
  if (engine->options_.precision == EmbeddingPrecision::kInt8) {
    auto codes = reader->TypedSection<int8_t>(kMeansQSection);
    if (!codes.ok()) return codes.status();
    auto scales = reader->TypedSection<float>(kMeansScaleSection);
    if (!scales.ok()) return scales.status();
    if (codes.value().size() %
            static_cast<size_t>(config.embed_dim) != 0) {
      return Bad("means.i8 block size is not a multiple of embed_dim");
    }
    total_means =
        codes.value().size() / static_cast<size_t>(config.embed_dim);
    if (scales.value().size() != total_means) {
      return Bad("means.scale.f32 size does not match means.i8 rows");
    }
    segment->means_q_view = codes.value();
    segment->means_scale_view = scales.value();
  } else {
    auto means = reader->TypedSection<float>(kMeansSection);
    if (!means.ok()) return means.status();
    segment->means_view = means.value();
    if (means.value().size() %
            static_cast<size_t>(config.embed_dim) != 0) {
      return Bad("means block size is not a multiple of embed_dim");
    }
    total_means =
        means.value().size() / static_cast<size_t>(config.embed_dim);
  }

  // Frozen LSH over the mapped sections.
  {
    RandomHyperplaneLsh::Frozen frozen;
    auto planes = reader->TypedSection<float>("lsh.planes.f32");
    auto gbegin = reader->TypedSection<uint64_t>("lsh.gbegin.u64");
    auto codes = reader->TypedSection<uint64_t>("lsh.codes.u64");
    auto pbegin = reader->TypedSection<uint64_t>("lsh.pbegin.u64");
    auto pay = reader->TypedSection<int64_t>("lsh.pay.i64");
    if (!planes.ok()) return planes.status();
    if (!gbegin.ok()) return gbegin.status();
    if (!codes.ok()) return codes.status();
    if (!pbegin.ok()) return pbegin.status();
    if (!pay.ok()) return pay.status();
    frozen.hyperplanes = planes.value();
    frozen.table_begin = gbegin.value();
    frozen.codes = codes.value();
    frozen.payload_begin = pbegin.value();
    frozen.payloads = pay.value();
    LshConfig lsh_config = engine->options_.lsh;
    auto lsh = RandomHyperplaneLsh::FromFrozen(
        config.embed_dim, lsh_config, lsh_items.value(), frozen);
    if (!lsh.ok()) return lsh.status();
    segment->lsh = std::make_unique<RandomHyperplaneLsh>(
        std::move(lsh).ValueOrDie());
  }

  // Frozen interval tree over the mapped sections.
  {
    IntervalTree::Frozen frozen;
    auto center = reader->TypedSection<double>("it.center.f64");
    auto left = reader->TypedSection<int32_t>("it.left.i32");
    auto right = reader->TypedSection<int32_t>("it.right.i32");
    auto begin = reader->TypedSection<uint64_t>("it.begin.u64");
    auto count = reader->TypedSection<uint64_t>("it.count.u64");
    auto lo_lo = reader->TypedSection<double>("it.lo.lo.f64");
    auto lo_hi = reader->TypedSection<double>("it.lo.hi.f64");
    auto lo_pay = reader->TypedSection<int64_t>("it.lo.pay.i64");
    auto hi_lo = reader->TypedSection<double>("it.hi.lo.f64");
    auto hi_hi = reader->TypedSection<double>("it.hi.hi.f64");
    auto hi_pay = reader->TypedSection<int64_t>("it.hi.pay.i64");
    for (const auto* s :
         {!center.ok() ? &center.status() : nullptr,
          !left.ok() ? &left.status() : nullptr,
          !right.ok() ? &right.status() : nullptr,
          !begin.ok() ? &begin.status() : nullptr,
          !count.ok() ? &count.status() : nullptr,
          !lo_lo.ok() ? &lo_lo.status() : nullptr,
          !lo_hi.ok() ? &lo_hi.status() : nullptr,
          !lo_pay.ok() ? &lo_pay.status() : nullptr,
          !hi_lo.ok() ? &hi_lo.status() : nullptr,
          !hi_hi.ok() ? &hi_hi.status() : nullptr,
          !hi_pay.ok() ? &hi_pay.status() : nullptr}) {
      if (s != nullptr) return *s;
    }
    frozen.center = center.value();
    frozen.left = left.value();
    frozen.right = right.value();
    frozen.slice_begin = begin.value();
    frozen.slice_count = count.value();
    frozen.bylo_lo = lo_lo.value();
    frozen.bylo_hi = lo_hi.value();
    frozen.bylo_payload = lo_pay.value();
    frozen.byhi_lo = hi_lo.value();
    frozen.byhi_hi = hi_hi.value();
    frozen.byhi_payload = hi_pay.value();
    auto tree = IntervalTree::FromFrozen(frozen);
    if (!tree.ok()) return tree.status();
    segment->interval_tree =
        std::make_unique<IntervalTree>(std::move(tree).ValueOrDie());
  }

  // Column encodings: materialize tensors from the flat blocks.
  {
    auto idx_raw = reader->Section("enc.index");
    auto rep = reader->TypedSection<float>("enc.rep.f32");
    auto desc = reader->TypedSection<float>("enc.desc.f32");
    auto da = reader->TypedSection<float>("enc.da.f32");
    if (!idx_raw.ok()) return idx_raw.status();
    if (!rep.ok()) return rep.status();
    if (!desc.ok()) return desc.status();
    if (!da.ok()) return da.status();
    common::BinaryReader idx(idx_raw.value().ToVector());
    BlockCursor rep_cursor{rep.value(), 0, "enc.rep.f32"};
    BlockCursor desc_cursor{desc.value(), 0, "enc.desc.f32"};
    BlockCursor da_cursor{da.value(), 0, "enc.da.f32"};
    // Counts come from the file, so nothing is sized by them up front:
    // records are appended as they are read, and every record consumes
    // enc.index bytes, so a lying count fails at the first short read.
    const auto read_columns =
        [&](uint64_t n, core::DatasetRepresentation* out) -> common::Status {
      for (uint64_t c = 0; c < n; ++c) {
        out->emplace_back();
        FCM_RETURN_IF_ERROR(ReadColumn(&idx, &rep_cursor, &desc_cursor,
                                       &da_cursor, &out->back()));
      }
      return common::Status::OK();
    };
    for (uint64_t t = 0; t < num_tables.value(); ++t) {
      auto entry = std::make_shared<TableEntry>();
      auto num_columns = idx.ReadU64();
      if (!num_columns.ok()) return num_columns.status();
      FCM_RETURN_IF_ERROR(read_columns(num_columns.value(), &entry->encoding));
      auto num_derivations = idx.ReadU64();
      if (!num_derivations.ok()) return num_derivations.status();
      for (uint64_t d = 0; d < num_derivations.value(); ++d) {
        auto n = idx.ReadU64();
        if (!n.ok()) return n.status();
        entry->derivations.emplace_back();
        FCM_RETURN_IF_ERROR(
            read_columns(n.value(), &entry->derivations.back()));
      }
      auto mean_begin = idx.ReadU64();
      auto num_means = idx.ReadU64();
      if (!mean_begin.ok()) return mean_begin.status();
      if (!num_means.ok()) return num_means.status();
      entry->num_means = num_means.value();
      if (mean_begin.value() > total_means ||
          entry->num_means > total_means - mean_begin.value()) {
        return Bad("table mean slice out of bounds");
      }
      segment->mean_begin.push_back(mean_begin.value());
      segment->entries.push_back(std::move(entry));
    }
    if (idx.remaining() != 0 || rep_cursor.pos != rep.value().size() ||
        desc_cursor.pos != desc.value().size() ||
        da_cursor.pos != da.value().size()) {
      return Bad("encoding blocks not fully consumed");
    }
  }

  engine->build_stats_.interval_memory_bytes =
      segment->interval_tree->MemoryBytes();
  engine->build_stats_.lsh_memory_bytes = segment->lsh->MemoryBytes();
  engine->build_stats_.embedding_bytes = segment->embedding_bytes();

  std::shared_ptr<EngineEpoch> epoch(new EngineEpoch());
  epoch->id_ = 0;
  epoch->num_tables_ = segment->num_tables();
  epoch->segments_.push_back(std::move(segment));
  engine->PublishEpoch(std::move(epoch));

  // The reader owns the mapping every frozen view points into; it must
  // live exactly as long as the engine.
  engine->snapshot_ = std::move(reader);
  return engine;
}

}  // namespace fcm::index
