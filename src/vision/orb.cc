#include "vision/orb.hh"

#include <cmath>

#include "obs/trace.hh"

namespace ad::vision {

OrbExtractor::OrbExtractor(const OrbParams& params) : params_(params)
{
}

std::vector<Feature>
OrbExtractor::extract(const Image& img, OrbProfile* profile) const
{
    std::vector<Feature> features;
    OrbProfile localProfile;

    // Level 0 is the input itself; coarser levels are resized from it.
    const Image* level = &img;
    Image resizedLevel;
    double scale = 1.0;
    for (int l = 0; l < params_.pyramidLevels; ++l) {
        if (l > 0) {
            scale *= params_.scaleFactor;
            const int w = static_cast<int>(img.width() / scale);
            const int h = static_cast<int>(img.height() / scale);
            if (w < 48 || h < 48)
                break;
            obs::TraceSpan span(obs::tracer(), "loc.fe.pyramid", "loc");
            resizedLevel = img.resized(w, h);
            level = &resizedLevel;
        }
        localProfile.pixelsProcessed +=
            static_cast<std::uint64_t>(level->width()) * level->height();

        // Distribute the keypoint budget across levels (halving per
        // level, as coarser levels cover less detail).
        FastParams fp = params_.fast;
        fp.maxKeypoints = std::max(8, params_.fast.maxKeypoints >> l);

        std::vector<Keypoint> kps;
        {
            obs::TraceSpan span(obs::tracer(), "loc.fe.fast", "loc");
            kps = detectFast(*level, fp, &localProfile.fast);
        }
        Image smoothed;
        {
            obs::TraceSpan span(obs::tracer(), "loc.fe.smooth", "loc");
            smoothed = level->boxFiltered(params_.smoothRadius);
        }
        std::vector<Descriptor> descs;
        {
            obs::TraceSpan span(obs::tracer(), "loc.fe.brief", "loc");
            descs = describeKeypoints(smoothed, kps, &localProfile.brief);
        }

        for (std::size_t i = 0; i < kps.size(); ++i) {
            Feature f;
            f.kp = kps[i];
            f.kp.level = l;
            f.kp.x = static_cast<float>(kps[i].x * scale);
            f.kp.y = static_cast<float>(kps[i].y * scale);
            f.desc = descs[i];
            features.push_back(f);
        }
    }

    if (profile)
        profile->merge(localProfile);
    return features;
}

std::vector<Match>
matchDescriptors(const std::vector<Descriptor>& a,
                 const std::vector<Descriptor>& b, int maxDistance,
                 double ratio)
{
    std::vector<Match> matches;
    if (b.empty())
        return matches;
    for (std::size_t i = 0; i < a.size(); ++i) {
        int best = 257;
        int second = 257;
        int bestIdx = -1;
        for (std::size_t j = 0; j < b.size(); ++j) {
            const int d = a[i].hamming(b[j]);
            if (d < best) {
                second = best;
                best = d;
                bestIdx = static_cast<int>(j);
            } else if (d < second) {
                second = d;
            }
        }
        if (bestIdx < 0 || best > maxDistance)
            continue;
        // Lowe ratio test; >= so an exact tie (ambiguous repetitive
        // texture) is rejected rather than matched arbitrarily.
        if (second <= 256 &&
            static_cast<double>(best) >=
                ratio * static_cast<double>(second))
            continue;
        matches.push_back({static_cast<int>(i), bestIdx, best});
    }
    return matches;
}

} // namespace ad::vision
