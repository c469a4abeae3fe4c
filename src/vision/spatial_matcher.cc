#include "vision/spatial_matcher.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace ad::vision {

SpatialMatcher::SpatialMatcher(const std::vector<Feature>& features,
                               int width, int height, int cellSize)
    : features_(features), cellSize_(std::max(8, cellSize))
{
    gridW_ = std::max(1, (width + cellSize_ - 1) / cellSize_);
    gridH_ = std::max(1, (height + cellSize_ - 1) / cellSize_);
    cells_.resize(static_cast<std::size_t>(gridW_) * gridH_);
    for (std::size_t i = 0; i < features.size(); ++i) {
        const int cx = std::clamp(
            static_cast<int>(features[i].kp.x) / cellSize_, 0,
            gridW_ - 1);
        const int cy = std::clamp(
            static_cast<int>(features[i].kp.y) / cellSize_, 0,
            gridH_ - 1);
        cells_[static_cast<std::size_t>(cy) * gridW_ + cx].push_back(
            static_cast<int>(i));
    }
}

std::vector<int>
SpatialMatcher::featuresNear(float u, float v, double radius) const
{
    std::vector<int> result;
    collectNear(u, v, radius, result);
    return result;
}

void
SpatialMatcher::collectNear(float u, float v, double radius,
                            std::vector<int>& result) const
{
    result.clear();
    const int cx0 = std::clamp(
        static_cast<int>((u - radius) / cellSize_), 0, gridW_ - 1);
    const int cx1 = std::clamp(
        static_cast<int>((u + radius) / cellSize_), 0, gridW_ - 1);
    const int cy0 = std::clamp(
        static_cast<int>((v - radius) / cellSize_), 0, gridH_ - 1);
    const int cy1 = std::clamp(
        static_cast<int>((v + radius) / cellSize_), 0, gridH_ - 1);
    const double r2 = radius * radius;
    for (int cy = cy0; cy <= cy1; ++cy) {
        for (int cx = cx0; cx <= cx1; ++cx) {
            for (const int idx :
                 cells_[static_cast<std::size_t>(cy) * gridW_ + cx]) {
                const double du = features_[idx].kp.x - u;
                const double dv = features_[idx].kp.y - v;
                if (du * du + dv * dv <= r2)
                    result.push_back(idx);
            }
        }
    }
}

std::vector<SpatialMatch>
SpatialMatcher::match(const std::vector<ProjectedCandidate>& candidates,
                      const SpatialMatchParams& params) const
{
    // Gather per-candidate best/second-best within the window.
    struct Scored
    {
        int candidate;
        int feature;
        int distance;
    };
    std::vector<Scored> scored;
    std::vector<int> near; // one buffer for every window
    for (std::size_t c = 0; c < candidates.size(); ++c) {
        int best = 257;
        int second = 257;
        int bestIdx = -1;
        collectNear(candidates[c].u, candidates[c].v, params.windowRadius,
                    near);
        for (const int f : near) {
            const int d =
                candidates[c].desc.hamming(features_[f].desc);
            if (d < best) {
                second = best;
                best = d;
                bestIdx = f;
            } else if (d < second) {
                second = d;
            }
        }
        if (bestIdx < 0 || best > params.maxHamming)
            continue;
        // Ties rejected, as in matchDescriptors() -- but note the
        // window usually contains no lookalike, which is the point.
        if (second <= 256 && static_cast<double>(best) >=
                                 params.ratio * second)
            continue;
        scored.push_back({static_cast<int>(c), bestIdx, best});
    }

    // One-to-one assignment: strongest matches claim features first.
    std::sort(scored.begin(), scored.end(),
              [](const Scored& a, const Scored& b) {
                  return a.distance < b.distance;
              });
    std::vector<bool> featureTaken(features_.size(), false);
    std::vector<SpatialMatch> matches;
    for (const auto& s : scored) {
        if (featureTaken[s.feature])
            continue;
        featureTaken[s.feature] = true;
        matches.push_back({s.feature, s.candidate, s.distance});
    }
    return matches;
}

} // namespace ad::vision
