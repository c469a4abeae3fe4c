/**
 * @file
 * The object-detection engine (DET): a YOLO-style single-shot grid
 * detector (Figure 3 of the paper). The input frame is resized to the
 * square network input, a fully convolutional network predicts an
 * objectness grid, and a cheap decode stage (threshold, connected
 * components, pixel-tight refinement, class banding, NMS) produces the
 * final detections for the four classes the paper tracks.
 *
 * In line with the paper's Figure 7 characterization, the DNN forward
 * pass accounts for virtually all DET cycles; the decode stage is the
 * residual "Others" slice.
 */

#ifndef AD_DETECT_YOLO_HH
#define AD_DETECT_YOLO_HH

#include <vector>

#include "common/image.hh"
#include "nn/models.hh"
#include "sensors/world.hh"

namespace ad::detect {

/** One detection in original-image coordinates. */
struct Detection
{
    BBox box;
    sensors::ObjectClass cls = sensors::ObjectClass::Vehicle;
    double confidence = 0.0;
};

/** Wall-clock attribution of one detect() call (Figure 7 split). */
struct DetectorTimings
{
    double dnnMs = 0;    ///< network forward pass.
    double decodeMs = 0; ///< threshold/components/refine/NMS.
    double totalMs = 0;
};

/** Detector tuning. */
struct DetectorParams
{
    /**
     * Square network input. 416 reproduces the paper-scale workload;
     * tests and interactive examples use smaller inputs (the host here
     * is a single CPU core -- the very platform the paper shows is two
     * orders of magnitude too slow for real-time DET).
     */
    int inputSize = 224;
    double width = 0.25;          ///< channel-width multiplier.
    double objectnessThreshold = 0.62;
    double nmsIou = 0.4;
    double minBoxPixels = 6.0;    ///< reject tiny refined boxes.
    double maxAspect = 6.0;       ///< reject stripe-like boxes.
    int brightPixel = 160;        ///< refinement threshold (above the
                                  ///  150 lane-marking intensity).
    std::uint64_t seed = 1;

    /**
     * NN kernel threads for the forward pass (the `nn.threads` knob).
     * 1 = exact pre-parallel serial behavior; <= 0 = hardware
     * concurrency. Results are bitwise-identical for any value.
     */
    int threads = 1;

    /**
     * Numeric mode of the forward pass (the `nn.precision` knob).
     * Int8 calibrates over seeded activations at construction and
     * swaps conv layers for their quantized twins (nn/quant.hh); the
     * decode stage is unchanged and final boxes are refined against
     * the original image either way.
     */
    nn::Precision precision = nn::Precision::Fp32;

    /**
     * The same params with the square input downscaled by `scale`,
     * rounded down to the grid's multiple-of-32 constraint and
     * floored at 64 px. The degradation governor's DEGRADED mode
     * builds its warm standby detector from this (forward cost scales
     * roughly with input area, so scale 0.5 is ~4x cheaper).
     */
    DetectorParams scaledInput(double scale) const;
};

/**
 * YOLO-style detector over grayscale frames.
 */
class YoloDetector
{
  public:
    explicit YoloDetector(const DetectorParams& params = {});

    /** Detect objects in a frame. */
    std::vector<Detection> detect(const Image& frame,
                                  DetectorTimings* timings = nullptr);

    /** The executable network's profile (at the configured scale). */
    nn::NetworkProfile profile() const;

    const DetectorParams& params() const { return params_; }

    /**
     * The paper-scale DET workload (416 input, full width) consumed by
     * the accelerator platform models; no weights are allocated.
     */
    static nn::NetworkProfile fullScaleProfile();

  private:
    DetectorParams params_;
    nn::Network net_;
    int gridSize_;
    nn::Tensor input_; ///< reused network input.
};

/** Greedy non-maximum suppression by IoU; exposed for unit tests. */
std::vector<Detection> nonMaxSuppression(std::vector<Detection> dets,
                                         double iouThreshold);

} // namespace ad::detect

#endif // AD_DETECT_YOLO_HH
