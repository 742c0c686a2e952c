// snapshotctl — build / inspect / verify frozen index snapshots
// (storage/snapshot.h container, index/engine_snapshot.cc contents).
//
//   snapshotctl build <out.fcmsnap>    build a bench-scale engine (untrained
//                                      model, synthetic lake; FCM_SCALE
//                                      applies) and save its snapshot
//   snapshotctl inspect <file>         print the header and section table
//                                      (element type, count, bytes/row,
//                                      and the embedding-tier footprint)
//   snapshotctl verify <file>          container validation + a full engine
//                                      open (mmap), exit 1 on any failure
//
// inspect/verify never modify the file; build writes atomically.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_common.h"
#include "common/serialize.h"
#include "core/fcm_model.h"
#include "index/search_engine.h"
#include "storage/snapshot.h"

namespace fcm {
namespace {

int Build(const std::string& path) {
  const bench::BenchScale scale = bench::ReadScale();
  std::printf("building synthetic lake (FCM_SCALE-dependent)...\n");
  benchgen::Benchmark b = bench::BuildBench(scale);
  core::FcmConfig config;
  core::FcmModel model(config);
  index::SearchEngine engine(&model, &b.lake);
  engine.BuildWithOptions({});
  std::printf("built engine over %zu tables\n", b.lake.size());
  const common::Status s = engine.SaveSnapshot(path);
  if (!s.ok()) {
    std::fprintf(stderr, "save failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

/// Element width + label inferred from the section-name suffix (the
/// engine snapshot naming contract, index/engine_snapshot.cc). Framed
/// byte streams (meta, enc.index, model.state) report as raw bytes.
struct ElemType {
  const char* label;
  size_t bytes;
};

ElemType ElemTypeFor(const std::string& name) {
  struct Suffix {
    const char* suffix;
    ElemType type;
  };
  static const Suffix kSuffixes[] = {
      {".f32", {"f32", 4}}, {".f64", {"f64", 8}}, {".u64", {"u64", 8}},
      {".i64", {"i64", 8}}, {".i32", {"i32", 4}}, {".i8", {"i8", 1}},
  };
  for (const auto& s : kSuffixes) {
    const size_t len = std::strlen(s.suffix);
    if (name.size() >= len &&
        name.compare(name.size() - len, len, s.suffix) == 0) {
      return s.type;
    }
  }
  return {"bytes", 1};
}

/// embed_dim from the meta stream (u64 table count, then the config's
/// leading u32 is embed_dim — the documented layout); 0 when unreadable.
size_t ReadEmbedDim(const storage::SnapshotReader& r) {
  auto meta = r.Section("meta");
  if (!meta.ok()) return 0;
  common::BinaryReader reader(meta.value().ToVector());
  if (!reader.ReadU64().ok()) return 0;
  auto dim = reader.ReadU32();
  return dim.ok() ? dim.value() : 0;
}

/// Bytes per logical row: embed_dim elements for mean/hyperplane blocks,
/// one element for the per-row scale vector.
size_t BytesPerRow(const std::string& name, ElemType type,
                   size_t embed_dim) {
  if (name == "means.scale.f32") return type.bytes;
  if (name == "means.f32" || name == "means.i8" ||
      name == "lsh.planes.f32") {
    return type.bytes * embed_dim;
  }
  return 0;
}

int Inspect(const std::string& path) {
  // Heap read: inspect should work on filesystems where mmap is flaky.
  storage::SnapshotReadOptions options;
  options.use_mmap = false;
  auto reader = storage::SnapshotReader::Open(path, options);
  if (!reader.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 reader.status().ToString().c_str());
    return 1;
  }
  const storage::SnapshotReader& r = *reader.value();
  const size_t embed_dim = ReadEmbedDim(r);
  std::printf("%s: format v%u, %zu bytes, %zu sections\n", path.c_str(),
              r.format_version(), r.file_bytes(), r.section_names().size());
  std::printf("%-24s %12s %10s %6s %10s %6s\n", "section", "bytes", "crc32",
              "elem", "count", "B/row");
  for (const std::string& name : r.section_names()) {
    const ElemType type = ElemTypeFor(name);
    const size_t bytes = r.SectionBytes(name);
    const size_t bpr = BytesPerRow(name, type, embed_dim);
    char bpr_str[32] = "-";
    if (bpr > 0) std::snprintf(bpr_str, sizeof(bpr_str), "%zu", bpr);
    std::printf("%-24s %12zu 0x%08" PRIx32 " %6s %10zu %6s\n", name.c_str(),
                bytes, r.SectionCrc(name), type.label, bytes / type.bytes,
                bpr_str);
  }
  // Footprint line: makes the f32-vs-int8 embedding-tier cost auditable
  // straight from the CLI.
  const auto names = r.section_names();
  const bool has_i8 =
      std::find(names.begin(), names.end(), "means.i8") != names.end();
  const bool has_f32 =
      std::find(names.begin(), names.end(), "means.f32") != names.end();
  if (has_i8) {
    const size_t i8 = r.SectionBytes("means.i8");
    const size_t scales = r.SectionBytes("means.scale.f32");
    const size_t f32_equiv = i8 * sizeof(float);
    std::printf("embedding tier: int8, %zu bytes (codes %zu + scales %zu)"
                " = %.3fx of the %zu-byte f32 equivalent\n",
                i8 + scales, i8, scales,
                f32_equiv > 0
                    ? static_cast<double>(i8 + scales) / f32_equiv
                    : 0.0,
                f32_equiv);
  } else if (has_f32) {
    std::printf("embedding tier: f32, %zu bytes\n",
                r.SectionBytes("means.f32"));
  }
  return 0;
}

int Verify(const std::string& path) {
  // Layer 1: container integrity (magic, version, every checksum, section
  // table shape, byte coverage).
  auto reader = storage::SnapshotReader::Open(path);
  if (!reader.ok()) {
    std::fprintf(stderr, "container: FAIL (%s)\n",
                 reader.status().ToString().c_str());
    return 1;
  }
  std::printf("container: OK (%zu sections, %zu bytes, %s)\n",
              reader.value()->section_names().size(),
              reader.value()->file_bytes(),
              reader.value()->mmap_backed() ? "mmap" : "heap");
  reader.value().reset();
  // Layer 2: the contents decode into a servable engine (frozen-structure
  // invariants, model state shapes, exact block consumption).
  auto engine = index::SearchEngine::OpenSnapshot(path);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine: FAIL (%s)\n",
                 engine.status().ToString().c_str());
    return 1;
  }
  std::printf("engine: OK (lsh %zu bytes, interval tree %zu bytes)\n",
              engine.value()->build_stats().lsh_memory_bytes,
              engine.value()->build_stats().interval_memory_bytes);
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: snapshotctl build <out.fcmsnap>\n"
               "       snapshotctl inspect <file>\n"
               "       snapshotctl verify <file>\n");
  return 2;
}

}  // namespace
}  // namespace fcm

int main(int argc, char** argv) {
  if (argc != 3) return fcm::Usage();
  const std::string cmd = argv[1];
  const std::string path = argv[2];
  if (cmd == "build") return fcm::Build(path);
  if (cmd == "inspect") return fcm::Inspect(path);
  if (cmd == "verify") return fcm::Verify(path);
  return fcm::Usage();
}
