#include "detect/yolo.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/time.hh"
#include "nn/fusion.hh"
#include "nn/quant.hh"
#include "obs/trace.hh"

namespace ad::detect {

namespace {

/** Connected component of above-threshold grid cells. */
struct Component
{
    int minX, minY, maxX, maxY;
    double peak = 0.0;
};

/** 4-connected flood fill over the thresholded objectness grid. */
std::vector<Component>
findComponents(const nn::Tensor& out, double threshold)
{
    const int s = out.height();
    std::vector<bool> visited(static_cast<std::size_t>(s) * s, false);
    std::vector<Component> comps;
    std::vector<std::pair<int, int>> stack;
    for (int y = 0; y < s; ++y) {
        for (int x = 0; x < s; ++x) {
            if (visited[y * s + x] || out.at(0, y, x) < threshold)
                continue;
            Component c{x, y, x, y, out.at(0, y, x)};
            stack.push_back({x, y});
            visited[y * s + x] = true;
            while (!stack.empty()) {
                const auto [cx, cy] = stack.back();
                stack.pop_back();
                c.minX = std::min(c.minX, cx);
                c.maxX = std::max(c.maxX, cx);
                c.minY = std::min(c.minY, cy);
                c.maxY = std::max(c.maxY, cy);
                c.peak = std::max(c.peak,
                                  static_cast<double>(out.at(0, cy, cx)));
                const int nx[4] = {cx + 1, cx - 1, cx, cx};
                const int ny[4] = {cy, cy, cy + 1, cy - 1};
                for (int k = 0; k < 4; ++k) {
                    if (nx[k] < 0 || nx[k] >= s || ny[k] < 0 || ny[k] >= s)
                        continue;
                    if (visited[ny[k] * s + nx[k]] ||
                        out.at(0, ny[k], nx[k]) < threshold)
                        continue;
                    visited[ny[k] * s + nx[k]] = true;
                    stack.push_back({nx[k], ny[k]});
                }
            }
            comps.push_back(c);
        }
    }
    return comps;
}

/**
 * Tighten a candidate box to the bright pixels inside it and compute
 * their mean intensity (for class banding). Returns false when no
 * bright pixels exist.
 */
bool
refineBox(const Image& frame, const BBox& candidate, int brightPixel,
          BBox& refined, double& meanIntensity)
{
    const BBox clip = candidate.clipped(frame.width(), frame.height());
    if (clip.empty())
        return false;
    int minX = frame.width();
    int maxX = -1;
    int minY = frame.height();
    int maxY = -1;
    double sum = 0;
    int count = 0;
    const int x0 = static_cast<int>(clip.x);
    const int x1 = static_cast<int>(clip.xmax());
    const int y0 = static_cast<int>(clip.y);
    const int y1 = static_cast<int>(clip.ymax());
    for (int y = y0; y < y1; ++y) {
        for (int x = x0; x < x1; ++x) {
            const int v = frame.at(x, y);
            if (v < brightPixel)
                continue;
            minX = std::min(minX, x);
            maxX = std::max(maxX, x);
            minY = std::min(minY, y);
            maxY = std::max(maxY, y);
            sum += v;
            ++count;
        }
    }
    if (count == 0)
        return false;
    refined = BBox(minX, minY, maxX - minX + 1, maxY - minY + 1);
    meanIntensity = sum / count;
    return true;
}

} // namespace

DetectorParams
DetectorParams::scaledInput(double scale) const
{
    DetectorParams p = *this;
    const int scaled =
        static_cast<int>(inputSize * std::clamp(scale, 0.0, 1.0));
    p.inputSize = std::max(64, scaled - scaled % 32);
    return p;
}

YoloDetector::YoloDetector(const DetectorParams& params)
    : params_(params),
      net_(nn::buildNetwork(nn::detectorSpec(params.inputSize, params.width,
                                             sensors::kNumObjectClasses))),
      gridSize_(params.inputSize / 32)
{
    Rng rng(params.seed);
    nn::initDetectorWeights(net_, rng);
    if (params.precision == nn::Precision::Int8) {
        // Calibrate over seeded uniform [0, 1] inputs -- the range
        // Tensor::fromImage normalizes real frames into -- then lower
        // the conv stack to int8 in place.
        Rng calRng(params.seed ^ 0xAD0C0DE5ULL);
        std::vector<nn::Tensor> samples;
        for (int s = 0; s < 2; ++s) {
            nn::Tensor t(1, params.inputSize, params.inputSize);
            float* data = t.data();
            for (std::size_t i = 0; i < t.size(); ++i)
                data[i] = static_cast<float>(calRng.uniform());
            samples.push_back(std::move(t));
        }
        nn::quantizeNetwork(net_, samples);
    }
    // Lowering order contract (nn/fusion.hh): quantize first, then
    // fuse/direct-mark, then plan the arena over the lowered graph.
    const nn::Shape inShape{1, params.inputSize, params.inputSize};
    nn::lowerNetwork(net_, inShape);
    net_.plan(inShape);
}

std::vector<Detection>
YoloDetector::detect(const Image& frame, DetectorTimings* timings)
{
    Stopwatch total;
    std::vector<Detection> detections;

    // --- DNN forward pass. ---
    double dnnMs = 0;
    const nn::Tensor* out = nullptr;
    {
        obs::TraceSpan span(obs::tracer(), "det.dnn", "det");
        ScopedTimer timer(dnnMs);
        // The reused input tensor plus the planned intermediates make
        // the whole forward allocation-free after the first frame.
        input_.assignFromImage(
            frame.resized(params_.inputSize, params_.inputSize));
        out = &net_.forwardArena(input_,
                                 nn::kernelContext(params_.threads));
    }

    // --- Decode. ---
    double decodeMs = 0;
    {
        obs::TraceSpan span(obs::tracer(), "det.decode", "det");
        ScopedTimer timer(decodeMs);
        const double sx =
            static_cast<double>(frame.width()) / gridSize_;
        const double sy =
            static_cast<double>(frame.height()) / gridSize_;
        for (const auto& c :
             findComponents(*out, params_.objectnessThreshold)) {
            // Component cell extent mapped back to image coordinates,
            // padded by half a cell to cover partial-cell objects.
            const BBox candidate(
                (c.minX - 0.5) * sx, (c.minY - 0.5) * sy,
                (c.maxX - c.minX + 2.0) * sx, (c.maxY - c.minY + 2.0) * sy);
            BBox refined;
            double intensity;
            if (!refineBox(frame, candidate, params_.brightPixel, refined,
                           intensity))
                continue;
            if (refined.w < params_.minBoxPixels ||
                refined.h < params_.minBoxPixels)
                continue;
            const double aspect =
                std::max(refined.w / refined.h, refined.h / refined.w);
            if (aspect > params_.maxAspect)
                continue;
            Detection det;
            det.box = refined;
            det.cls = sensors::classFromIntensity(intensity);
            det.confidence = std::min(1.0, c.peak);
            detections.push_back(det);
        }
        detections = nonMaxSuppression(std::move(detections),
                                       params_.nmsIou);
    }

    if (timings) {
        timings->dnnMs += dnnMs;
        timings->decodeMs += decodeMs;
        timings->totalMs += total.elapsedMs();
    }
    return detections;
}

nn::NetworkProfile
YoloDetector::profile() const
{
    return nn::specProfile(nn::detectorSpec(params_.inputSize,
                                            params_.width,
                                            sensors::kNumObjectClasses));
}

nn::NetworkProfile
YoloDetector::fullScaleProfile()
{
    return nn::specProfile(nn::detectorSpec(416, 1.0,
                                            sensors::kNumObjectClasses));
}

std::vector<Detection>
nonMaxSuppression(std::vector<Detection> dets, double iouThreshold)
{
    std::sort(dets.begin(), dets.end(),
              [](const Detection& a, const Detection& b) {
                  return a.confidence > b.confidence;
              });
    std::vector<Detection> kept;
    for (const auto& d : dets) {
        bool suppressed = false;
        for (const auto& k : kept) {
            if (d.box.iou(k.box) > iouThreshold) {
                suppressed = true;
                break;
            }
        }
        if (!suppressed)
            kept.push_back(d);
    }
    return kept;
}

} // namespace ad::detect
