// Configuration for FCM (paper Sec. VII-B "Model Configuration", scaled to
// the CPU substrate: the paper uses K=768, 12 layers, 8 heads, P1=60,
// P2=64; the defaults below shrink every axis proportionally so training
// runs in minutes while preserving the architecture).

#ifndef FCM_CORE_FCM_CONFIG_H_
#define FCM_CORE_FCM_CONFIG_H_

#include <cstdint>

namespace fcm::core {

/// Hyper-parameters of the FCM architecture.
struct FcmConfig {
  // ---- Shared transformer dimensions ----
  int embed_dim = 32;       // K (paper: 768).
  int num_heads = 2;        // (paper: 8).
  int num_layers = 2;       // J (paper: 12).
  int mlp_hidden = 64;

  // ---- Segment-level line chart encoder (Sec. IV-B) ----
  int strip_height = 32;    // H: extracted line strips are resized to this.
  int strip_width = 128;    // W.
  int line_segment_width = 16;  // P1 (paper: 60). N1 = W / P1.

  // ---- Segment-level dataset encoder (Sec. IV-C) ----
  int column_length = 128;  // Columns are resampled to this length.
  int data_segment_size = 16;  // P2 (paper: 64). N2 = column_length / P2.

  // ---- DA-related layers (Sec. V) ----
  bool use_da_layers = true;
  int beta = 2;             // 2^beta sub-segments per data segment.
  int moe_gate_hidden = 16;

  // ---- Matcher (Sec. IV-D) ----
  bool use_hcman = true;    // false = FCM-HCMAN ablation (mean pooling).
  int matcher_hidden = 32;
  /// Points per segment in the deterministic shape descriptors that
  /// bridge the two modalities (see docs/REPRODUCTION.md).
  int descriptor_size = 8;

  uint64_t seed = 42;  // Initialisation; training reads TrainOptions.

  int NumLineSegments() const { return strip_width / line_segment_width; }
  int NumDataSegments() const { return column_length / data_segment_size; }
  int NumSubSegments() const { return 1 << beta; }
  int SubSegmentSize() const { return data_segment_size / NumSubSegments(); }
};

}  // namespace fcm::core

#endif  // FCM_CORE_FCM_CONFIG_H_
