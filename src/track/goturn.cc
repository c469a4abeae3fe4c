#include "track/goturn.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/time.hh"
#include "nn/fusion.hh"
#include "nn/quant.hh"

namespace ad::track {

namespace {

nn::Network
makeConvBranch(const TrackerParams& p, Rng& rng)
{
    nn::Network net =
        nn::buildNetwork(nn::trackerConvSpec(p.cropSize, p.width));
    nn::initTrackerWeights(net, rng);
    return net;
}

nn::Network
makeFcHead(const TrackerParams& p, Rng& rng)
{
    const nn::ModelSpec conv = nn::trackerConvSpec(p.cropSize, p.width);
    nn::Shape out = conv.input;
    nn::Network branch = nn::buildNetwork(conv);
    out = branch.outputShape(conv.input);
    nn::Network net = nn::buildNetwork(
        nn::trackerFcSpec(static_cast<int>(out.elements()), p.width));
    nn::initTrackerWeights(net, rng);
    return net;
}

} // namespace

GoturnTracker::GoturnTracker(const TrackerParams& params)
    : params_(params),
      convBranch_([&] {
          Rng rng(params.seed);
          return makeConvBranch(params, rng);
      }()),
      fcHead_([&] {
          Rng rng(params.seed + 1);
          return makeFcHead(params, rng);
      }())
{
    if (params.precision == nn::Precision::Int8) {
        // Calibrate over seeded uniform [0, 1] crops (the normalized
        // range of real crops). The conv branch quantizes first so the
        // FC head calibrates on the feature maps it will actually see:
        // the channel-concat of two quantized branch outputs.
        Rng calRng(params.seed ^ 0xAD0C0DE5ULL);
        std::vector<nn::Tensor> crops;
        for (int s = 0; s < 2; ++s) {
            nn::Tensor t(1, params.cropSize, params.cropSize);
            float* data = t.data();
            for (std::size_t i = 0; i < t.size(); ++i)
                data[i] = static_cast<float>(calRng.uniform());
            crops.push_back(std::move(t));
        }
        nn::quantizeNetwork(convBranch_, crops);
        const nn::Tensor feat0 = convBranch_.forward(crops[0]);
        const nn::Tensor feat1 = convBranch_.forward(crops[1]);
        std::vector<nn::Tensor> fcInputs;
        fcInputs.push_back(nn::Tensor::concatChannels(feat0, feat1));
        fcInputs.push_back(nn::Tensor::concatChannels(feat1, feat0));
        nn::quantizeNetwork(fcHead_, fcInputs);
    }
    // Lowering order contract (nn/fusion.hh): quantize first, then
    // fuse/direct-mark, then plan arenas over the lowered graphs.
    const nn::Shape cropShape{1, params.cropSize, params.cropSize};
    const nn::Shape featShape = convBranch_.outputShape(cropShape);
    const nn::Shape fcShape{2 * featShape.c, featShape.h, featShape.w};
    nn::lowerNetwork(convBranch_, cropShape);
    nn::lowerNetwork(fcHead_, fcShape);
    convBranch_.plan(cropShape);
    fcHead_.plan(fcShape);
}

void
GoturnTracker::init(const Image& frame, const BBox& box)
{
    box_ = box.clipped(frame.width(), frame.height());
    if (box_.empty())
        box_ = box;
    targetCrop_ = frame.cropResized(box_, params_.cropSize,
                                    params_.cropSize);
    active_ = true;
}

BBox
GoturnTracker::track(const Image& frame, TrackTimings* timings)
{
    if (!active_)
        panic("GoturnTracker::track called while inactive");

    Stopwatch total;
    double dnnMs = 0;
    double otherMs = 0;

    // --- Crop target and search region. ---
    BBox searchRegion;
    Image searchCrop;
    {
        ScopedTimer timer(otherMs);
        searchRegion = BBox::fromCenter(
            box_.cx(), box_.cy(), box_.w * params_.searchScale,
            box_.h * params_.searchScale);
        searchCrop = frame.cropResized(searchRegion, params_.cropSize,
                                       params_.cropSize);
    }

    // --- The representative DNN workload: both conv branches plus the
    // FC regression stack. ---
    {
        ScopedTimer timer(dnnMs);
        const nn::KernelContext ctx = nn::kernelContext(params_.threads);
        // The branch arena is reused by the second forward, so the
        // target features are copied into a member first (capacity
        // reuse keeps steady-state frames allocation-free).
        input_.assignFromImage(targetCrop_);
        tfeat_ = convBranch_.forwardArena(input_, ctx);
        input_.assignFromImage(searchCrop);
        const nn::Tensor& searchFeat = convBranch_.forwardArena(input_, ctx);
        both_.assignConcat(tfeat_, searchFeat);
        (void)fcHead_.forwardArena(both_, ctx);
    }

    // --- NCC refinement: locate the target appearance inside the
    // search crop. ---
    BBox newBox = box_;
    {
        ScopedTimer timer(otherMs);
        const int tmplSize = std::max(
            8, static_cast<int>(params_.cropSize / params_.searchScale));
        const Image tmpl =
            targetCrop_.resized(tmplSize, tmplSize);
        int bestX, bestY;
        double score;
        nccBestOffset(searchCrop, tmpl, bestX, bestY, score);
        // Map the template center back to image coordinates.
        const double cx = searchRegion.x +
            (bestX + tmplSize / 2.0) / params_.cropSize * searchRegion.w;
        const double cy = searchRegion.y +
            (bestY + tmplSize / 2.0) / params_.cropSize * searchRegion.h;
        newBox = BBox::fromCenter(cx, cy, box_.w, box_.h);
    }

    // Update state for the next frame.
    box_ = newBox;
    targetCrop_ = frame.cropResized(box_, params_.cropSize,
                                    params_.cropSize);

    if (timings) {
        timings->dnnMs += dnnMs;
        timings->otherMs += otherMs;
        timings->totalMs += total.elapsedMs();
    }
    return box_;
}

nn::NetworkProfile
GoturnTracker::fullScaleProfile()
{
    return nn::trackerProfile(227, 1.0);
}

namespace {

/** NCC score of the template at one offset. */
double
nccAt(const Image& search, const Image& tmpl, double tMean, double tVar,
      int ox, int oy)
{
    const int tw = tmpl.width();
    const int th = tmpl.height();
    double sSum = 0;
    for (int y = 0; y < th; ++y)
        for (int x = 0; x < tw; ++x)
            sSum += search.at(ox + x, oy + y);
    const double sMean = sSum / (tw * th);
    double cross = 0;
    double sVar = 0;
    for (int y = 0; y < th; ++y) {
        for (int x = 0; x < tw; ++x) {
            const double sd = search.at(ox + x, oy + y) - sMean;
            const double td = tmpl.at(x, y) - tMean;
            cross += sd * td;
            sVar += sd * sd;
        }
    }
    if (sVar < 1e-9)
        sVar = 1e-9;
    return cross / std::sqrt(sVar * tVar);
}

} // namespace

void
nccBestOffset(const Image& search, const Image& tmpl, int& bestX,
              int& bestY, double& bestScore)
{
    bestX = 0;
    bestY = 0;
    bestScore = -2.0;
    const int tw = tmpl.width();
    const int th = tmpl.height();

    // Template statistics.
    double tMean = tmpl.meanIntensity();
    double tVar = 0;
    for (int y = 0; y < th; ++y)
        for (int x = 0; x < tw; ++x) {
            const double d = tmpl.at(x, y) - tMean;
            tVar += d * d;
        }
    if (tVar < 1e-9)
        tVar = 1e-9;

    // Exhaustive stride-1 scan. NCC peaks on textured targets can be
    // a single pixel wide, so grid/pyramid shortcuts trade robustness
    // for little: at tracker crop sizes the full scan is ~1M MACs,
    // a thin "Others" slice of TRA next to the DNN (Figure 7).
    for (int oy = 0; oy + th <= search.height(); ++oy) {
        for (int ox = 0; ox + tw <= search.width(); ++ox) {
            const double ncc = nccAt(search, tmpl, tMean, tVar, ox, oy);
            if (ncc > bestScore) {
                bestScore = ncc;
                bestX = ox;
                bestY = oy;
            }
        }
    }
}

} // namespace ad::track
