/**
 * @file
 * oFAST keypoint detection -- the first half of the ORB extractor used
 * by the localization engine (Figure 5 of the paper): FAST-9
 * segment-test corners with Harris ranking, grid non-maximum
 * suppression, and intensity-centroid orientation (the "o" in oFAST).
 */

#ifndef AD_VISION_FAST_HH
#define AD_VISION_FAST_HH

#include <vector>

#include "common/image.hh"
#include "vision/lut_trig.hh"

namespace ad::vision {

/** A detected keypoint (coordinates in the detection image). */
struct Keypoint
{
    float x = 0;
    float y = 0;
    float response = 0;   ///< Harris corner score for ranking.
    int orientationBin = 0; ///< quantized intensity-centroid angle.
    int level = 0;        ///< pyramid level (filled by the extractor).
};

/** Tuning parameters of the FAST detector. */
struct FastParams
{
    int threshold = 20;        ///< segment-test intensity delta, 0..255.
    int maxKeypoints = 1000;   ///< retain the top-N by response (>= 0).
    int cellSize = 16;         ///< NMS grid cell size in pixels.
    TrigMode trigMode = TrigMode::Lut; ///< orientation math path.
};

/**
 * Operation counters for one detection pass; these feed the
 * feature-extraction workload model for the FPGA/ASIC FE accelerators.
 */
struct FastOpCounts
{
    /**
     * Pixels inside the detection border. Each is counted whether or
     * not the compass prefilter rejects it, because the FE accelerator
     * models stream every one through the segment test.
     */
    std::uint64_t pixelsTested = 0;
    std::uint64_t candidates = 0;     ///< pixels passing the segment test.
    std::uint64_t keypoints = 0;      ///< survivors after NMS/top-N.
};

/**
 * FAST-9 segment test: does a contiguous arc of >= 9 of the 16
 * Bresenham-circle pixels differ from the center by more than the
 * threshold? The per-pixel reference: detectFast() finds exactly the
 * pixels it accepts, and the tests compare the two.
 */
bool fastSegmentTest(const Image& img, int x, int y, int threshold);

/**
 * Harris corner response at a pixel (Sobel gradients over a 7x7
 * window, k = 0.04), with clamped reads. The per-pixel reference:
 * detectFast() computes the same bits, and the tests compare the two.
 */
float harrisResponse(const Image& img, int x, int y);

/**
 * Intensity-centroid orientation bin: moments m10/m01 over a radius-8
 * disc; angle = atan2(m01, m10), quantized to kOrientationBins.
 * Pixels outside the image are read clamped.
 */
int intensityCentroidBin(const Image& img, int x, int y, TrigMode mode);

/**
 * Run the full oFAST detector over an image: segment test on every
 * pixel at least 11 from the border, Harris response of each corner,
 * grid NMS, top-N, then orientation of the survivors. Keypoints,
 * responses and counts are bitwise those of the per-pixel
 * fastSegmentTest() / harrisResponse() loop.
 *
 * @param img input grayscale image.
 * @param params detector tuning; fatal() when threshold is outside
 *        [0, 255] or maxKeypoints is negative.
 * @param counts optional op-count output for the workload model.
 */
std::vector<Keypoint> detectFast(const Image& img, const FastParams& params,
                                 FastOpCounts* counts = nullptr);

} // namespace ad::vision

#endif // AD_VISION_FAST_HH
