/**
 * @file
 * Single-object tracker in the style of GOTURN (Figure 4 of the paper):
 * the previous frame is cropped to the target, the current frame to a
 * search region around the previous location, both crops run through a
 * shared convolutional branch, and a fully connected stack regresses
 * the new bounding box.
 *
 * We run the full two-branch DNN (the representative TRA workload; 99%
 * of TRA cycles per Figure 7) and refine the regression with normalized
 * cross-correlation inside the search region -- the functional
 * stand-in for trained regression weights (see DESIGN.md,
 * "Substitutions"); NCC cost lands in the "Others" slice.
 */

#ifndef AD_TRACK_GOTURN_HH
#define AD_TRACK_GOTURN_HH

#include "common/image.hh"
#include "nn/models.hh"

namespace ad::track {

/** Wall-clock attribution of one track() call. */
struct TrackTimings
{
    double dnnMs = 0;   ///< conv branches + FC stack.
    double otherMs = 0; ///< crops + NCC refinement.
    double totalMs = 0;
};

/** Tracker tuning. */
struct TrackerParams
{
    /**
     * Square crop input. 227 reproduces the paper-scale GOTURN
     * workload; tests default to a small crop for CPU-feasible runs.
     */
    int cropSize = 63;
    double width = 0.25;       ///< channel-width multiplier.
    double searchScale = 2.0;  ///< search region / target size ratio.
    std::uint64_t seed = 1;

    /**
     * NN kernel threads for the forward passes (the `nn.threads`
     * knob). 1 = exact pre-parallel serial behavior; <= 0 = hardware
     * concurrency. Results are bitwise-identical for any value.
     */
    int threads = 1;

    /**
     * Numeric mode of the DNN branches (the `nn.precision` knob).
     * Int8 calibrates both networks over seeded crops at construction
     * and swaps conv/FC layers for their quantized twins
     * (nn/quant.hh); the NCC refinement is unchanged.
     */
    nn::Precision precision = nn::Precision::Fp32;
};

/**
 * GOTURN-style tracker. One instance tracks one object at a time but
 * is reusable via init() -- the tracker pool keeps warm instances and
 * re-initializes them per target (Section 3.1.2).
 */
class GoturnTracker
{
  public:
    explicit GoturnTracker(const TrackerParams& params = {});

    /** Begin tracking the object inside box on the given frame. */
    void init(const Image& frame, const BBox& box);

    /** True if init() has been called since construction/release. */
    bool active() const { return active_; }

    /** Stop tracking (returns the instance to the idle pool). */
    void release() { active_ = false; }

    /**
     * Track into the next frame; returns the new box estimate and
     * updates internal state.
     */
    BBox track(const Image& frame, TrackTimings* timings = nullptr);

    /** Latest box estimate. */
    const BBox& box() const { return box_; }

    const TrackerParams& params() const { return params_; }

    /**
     * The paper-scale TRA workload (227 crops, full width, two conv
     * branches + FC head) for the accelerator models.
     */
    static nn::NetworkProfile fullScaleProfile();

  private:
    TrackerParams params_;
    nn::Network convBranch_;
    nn::Network fcHead_;
    bool active_ = false;
    BBox box_;
    Image targetCrop_;  ///< previous-frame target appearance.
    nn::Tensor input_;  ///< reused branch input.
    nn::Tensor tfeat_;  ///< target features copied out of the arena.
    nn::Tensor both_;   ///< reused FC-head input concat.
};

/**
 * Normalized cross-correlation of a template against a search image at
 * integer offsets; returns the best top-left offset. Exposed for unit
 * tests.
 */
void nccBestOffset(const Image& search, const Image& tmpl, int& bestX,
                   int& bestY, double& bestScore);

} // namespace ad::track

#endif // AD_TRACK_GOTURN_HH
