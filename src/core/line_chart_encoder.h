// Segment-level line chart encoder (paper Sec. IV-B): each extracted line
// strip is divided into width-P1 patches, linearly projected, position-
// embedded and transformer-encoded (ViT-style), yielding E_V[i] in
// R^{N1 x K} per line.

#ifndef FCM_CORE_LINE_CHART_ENCODER_H_
#define FCM_CORE_LINE_CHART_ENCODER_H_

#include <vector>

#include "core/fcm_config.h"
#include "nn/attention.h"
#include "vision/extracted_chart.h"

namespace fcm::core {

/// One encoded line: the learned segment representations E_V[i] of shape
/// [N1, K] plus a deterministic per-segment shape descriptor — the
/// line's ink center-of-mass curve resampled to `descriptor_size` points
/// per segment (row-major [N1 x S]). The descriptor is a fixed function
/// of the pixels; it gives the matcher a modality-bridging shape signal
/// that needs no gradient steps (see docs/REPRODUCTION.md).
struct LineEncoding {
  nn::Tensor representation;        // [N1, K], learned.
  std::vector<float> descriptor;    // [N1 * S], deterministic, in [0, 1].
};

/// Per-line encodings for a whole chart.
using ChartRepresentation = std::vector<LineEncoding>;

class LineChartEncoder : public nn::Module {
 public:
  LineChartEncoder(const FcmConfig& config, common::Rng* rng);

  /// Encodes every line of an extracted chart. Strips are resized to the
  /// configured (H, W) before patching.
  ChartRepresentation Forward(const vision::ExtractedChart& chart) const;

  /// Encodes one strip image of arbitrary size.
  LineEncoding EncodeStrip(const std::vector<float>& strip, int width,
                           int height) const;

 private:
  FcmConfig config_;
  nn::Linear patch_projection_;
  nn::TransformerEncoder encoder_;
};

}  // namespace fcm::core

#endif  // FCM_CORE_LINE_CHART_ENCODER_H_
