/**
 * @file
 * Projection-guided descriptor matching. Brute-force matching
 * compares every frame descriptor against every candidate; but the
 * localizer *knows* where each map point should appear (its
 * projection under the predicted pose), so the search can be
 * restricted to a pixel window around that projection -- the way
 * ORB-SLAM's TrackLocalMap matches. This is both faster (features are
 * bucketed into a grid, only nearby ones are compared) and more
 * precise (distant lookalike texture cannot steal a match).
 */

#ifndef AD_VISION_SPATIAL_MATCHER_HH
#define AD_VISION_SPATIAL_MATCHER_HH

#include <vector>

#include "vision/orb.hh"

namespace ad::vision {

/** A match candidate with a predicted image position. */
struct ProjectedCandidate
{
    float u = 0;          ///< predicted column.
    float v = 0;          ///< predicted row.
    Descriptor desc;
    std::uint32_t tag = 0; ///< caller payload (e.g.\ map index).
};

/** Spatial matcher tuning. */
struct SpatialMatchParams
{
    double windowRadius = 48.0; ///< search window around the
                                ///  projection (px).
    int maxHamming = 64;
    double ratio = 0.85;        ///< best/second-best gate.
};

/** One spatial match. */
struct SpatialMatch
{
    int featureIndex = -1;  ///< into the frame feature array.
    int candidateIndex = -1; ///< into the candidate array.
    int distance = 256;
};

/**
 * Grid-bucketed feature index over one frame, supporting windowed
 * descriptor matching against projected candidates.
 */
class SpatialMatcher
{
  public:
    /**
     * Index a frame's features.
     *
     * @param features extracted frame features (level-0 coords).
     * @param width,height frame dimensions.
     * @param cellSize bucket edge in pixels.
     */
    SpatialMatcher(const std::vector<Feature>& features, int width,
                   int height, int cellSize = 32);

    /**
     * Match candidates against the indexed features. Each candidate
     * searches only the window around its projection; each matched
     * frame feature is consumed (one-to-one matching, best first).
     */
    std::vector<SpatialMatch> match(
        const std::vector<ProjectedCandidate>& candidates,
        const SpatialMatchParams& params = {}) const;

    /** Feature indices within the window (exposed for tests). */
    std::vector<int> featuresNear(float u, float v,
                                  double radius) const;

  private:
    /** featuresNear() into @p out, reusing its storage. */
    void collectNear(float u, float v, double radius,
                     std::vector<int>& out) const;

    const std::vector<Feature>& features_;
    int cellSize_;
    int gridW_;
    int gridH_;
    std::vector<std::vector<int>> cells_;
};

} // namespace ad::vision

#endif // AD_VISION_SPATIAL_MATCHER_HH
