#include "nn/quant.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "nn/gemm_int8.hh"

namespace ad::nn {

namespace {

constexpr int kQmax = 127;

/**
 * round(clamp(y, -127, 127)), half away from zero. Clamping first keeps
 * lround in range: it overflows long for y >= 2^63 and +inf (glibc then
 * returns LONG_MIN, which would land on -127). NaN fails the compare
 * and gives -127.
 */
long
roundClamped(float y)
{
    constexpr auto lim = static_cast<float>(kQmax);
    if (!(y >= -lim))
        return -kQmax;
    return std::lround(std::min(y, lim));
}

/** clamp(round(x / scale)) into int8 range, stored as T. */
template <typename T>
void
quantizeTo(const float* x, std::size_t n, float scale, T* q)
{
    const float inv = 1.0f / scale;
    for (std::size_t i = 0; i < n; ++i)
        q[i] = static_cast<T>(roundClamped(x[i] * inv));
}

/** absmax over a span (0 for empty). */
float
absMaxOf(const float* x, std::size_t n)
{
    float m = 0.0f;
    for (std::size_t i = 0; i < n; ++i)
        m = std::max(m, std::fabs(x[i]));
    return m;
}

/**
 * Quantize one weight row symmetrically: derive the per-channel scale
 * from the row's absmax and store the int8-range values as T (int8 for
 * the conv's packing, int16 pre-widened for gemvInt8).
 */
template <typename T>
float
quantizeWeightRow(const float* w, std::size_t n, T* q)
{
    const float scale = quantizeScale(absMaxOf(w, n));
    quantizeTo(w, n, scale, q);
    return scale;
}

} // namespace

AbsHistogram::AbsHistogram(int bins)
{
    if (bins <= 0)
        fatal("AbsHistogram: bin count must be positive, got ", bins);
    bins_.assign(static_cast<std::size_t>(bins), 0);
}

void
AbsHistogram::grow(float needed)
{
    while (range_ < needed) {
        range_ *= 2.0f;
        // Merge adjacent bin pairs into the lower half so recorded
        // mass keeps its magnitude; the upper half opens up for the
        // new range.
        const std::size_t half = bins_.size() / 2;
        for (std::size_t i = 0; i < half; ++i)
            bins_[i] = bins_[2 * i] + bins_[2 * i + 1];
        std::fill(bins_.begin() + static_cast<std::ptrdiff_t>(half),
                  bins_.end(), std::uint64_t{0});
    }
}

void
AbsHistogram::add(const float* data, std::size_t n)
{
    const auto bins = static_cast<float>(bins_.size());
    for (std::size_t i = 0; i < n; ++i) {
        const float a = std::fabs(data[i]);
        if (a > range_)
            grow(a);
        const auto idx = std::min(
            bins_.size() - 1,
            static_cast<std::size_t>(a / range_ * bins));
        ++bins_[idx];
        absMax_ = std::max(absMax_, a);
    }
    count_ += n;
}

float
AbsHistogram::percentileAbs(float fraction) const
{
    if (count_ == 0 || fraction >= 1.0f)
        return absMax_;
    // Half-sample tolerance: counts are integers, so a target within
    // half a sample of a bin's cumulative mass counts as covered
    // (otherwise float fraction representation error can push the
    // bound into the next occupied bin).
    const double target = static_cast<double>(fraction) *
                              static_cast<double>(count_) -
                          0.5;
    double cumulative = 0.0;
    for (std::size_t i = 0; i < bins_.size(); ++i) {
        cumulative += static_cast<double>(bins_[i]);
        if (cumulative >= target) {
            const float edge = range_ *
                static_cast<float>(i + 1) /
                static_cast<float>(bins_.size());
            // The bin edge can overshoot the true maximum; never hand
            // out more range than was actually observed.
            return std::min(edge, absMax_);
        }
    }
    return absMax_;
}

float
quantizeScale(float absMax)
{
    return absMax > 0.0f ? absMax / static_cast<float>(kQmax) : 1.0f;
}

void
quantize(const float* x, std::size_t n, float scale, std::int8_t* q)
{
    quantizeTo(x, n, scale, q);
}

void
dequantize(const std::int8_t* q, std::size_t n, float scale, float* x)
{
    for (std::size_t i = 0; i < n; ++i)
        x[i] = static_cast<float>(q[i]) * scale;
}

void
requantize(const std::int32_t* acc, std::size_t n, float accScale,
           float outScale, std::int8_t* q)
{
    const float rescale = accScale / outScale;
    for (std::size_t i = 0; i < n; ++i)
        q[i] = static_cast<std::int8_t>(
            roundClamped(static_cast<float>(acc[i]) * rescale));
}

QuantConv2D::QuantConv2D(const Conv2D& conv, float inputScale)
    : Layer(conv.name()), inChannels_(conv.inChannels()),
      outChannels_(conv.outChannels()), kernel_(conv.kernel()),
      stride_(conv.stride()), pad_(conv.pad()), inputScale_(inputScale),
      bias_(conv.bias())
{
    if (inputScale <= 0.0f)
        fatal("QuantConv2D ", name(), ": input scale must be positive");
    const auto outC = static_cast<std::size_t>(outChannels_);
    const std::size_t filterSize =
        static_cast<std::size_t>(inChannels_) * kernel_ * kernel_;
    std::vector<std::int8_t> q(outC * filterSize);
    weightScale_.assign(outC, 1.0f);
    scale_.assign(outC, 1.0f);
    for (std::size_t oc = 0; oc < outC; ++oc) {
        weightScale_[oc] = quantizeWeightRow(
            conv.weights().data() + oc * filterSize, filterSize,
            q.data() + oc * filterSize);
        scale_[oc] = inputScale_ * weightScale_[oc];
    }
    weights_ = packInt8ConvWeights(q.data(), outC, inChannels_, kernel_);
}

Shape
QuantConv2D::outputShape(const Shape& in) const
{
    if (in.c != inChannels_)
        panic("QuantConv2D ", name(), ": expected ", inChannels_,
              " input channels, got ", in.c);
    const int oh = (in.h + 2 * pad_ - kernel_) / stride_ + 1;
    const int ow = (in.w + 2 * pad_ - kernel_) / stride_ + 1;
    if (oh <= 0 || ow <= 0)
        panic("QuantConv2D ", name(), ": input ", in.h, "x", in.w,
              " too small for kernel");
    return {outChannels_, oh, ow};
}

void
QuantConv2D::forwardInto(const float* in, const Shape& inShape,
                         float* out, ForwardScratch& scratch,
                         const KernelContext& ctx) const
{
    const Shape os = outputShape(inShape);
    const ConvGeometry g{inShape.c, inShape.h, inShape.w, kernel_,
                         stride_,   pad_,      os.h,      os.w};
    const Int8ConvEpilogue ep{scale_.data(), bias_.data(), fusedAct_,
                              fusedSlope_};
    convImplicitGemmInt8(g, weights_, inputScale_, ep, in, out,
                         scratch.qconv, ctx);
}

void
QuantConv2D::fuseActivation(float leakySlope)
{
    if (fusedAct_)
        fatal("QuantConv2D ", name(), ": activation already fused");
    fusedAct_ = true;
    fusedSlope_ = leakySlope;
    rename(name() + "+act");
}

LayerProfile
QuantConv2D::profile(const Shape& in) const
{
    const Shape out = outputShape(in);
    LayerProfile p;
    p.name = name();
    p.kind = kind();
    p.flops = 2ULL * outChannels_ * inChannels_ * kernel_ * kernel_ *
              out.h * out.w;
    if (fusedAct_)
        p.flops += out.elements();
    p.weightBytes = static_cast<std::size_t>(outChannels_) *
                        inChannels_ * kernel_ * kernel_ *
                        sizeof(std::int8_t) +
                    (weightScale_.size() + bias_.size()) * sizeof(float);
    p.inputBytes = in.bytes();
    p.outputBytes = out.bytes();
    return p;
}

QuantFullyConnected::QuantFullyConnected(const FullyConnected& fc,
                                         float inputScale)
    : Layer(fc.name()), inFeatures_(fc.inFeatures()),
      outFeatures_(fc.outFeatures()), inputScale_(inputScale),
      bias_(fc.bias())
{
    if (inputScale <= 0.0f)
        fatal("QuantFullyConnected ", name(),
              ": input scale must be positive");
    const auto in = static_cast<std::size_t>(inFeatures_);
    weights_.assign(static_cast<std::size_t>(outFeatures_) * in, 0);
    weightScale_.assign(static_cast<std::size_t>(outFeatures_), 1.0f);
    for (int o = 0; o < outFeatures_; ++o)
        weightScale_[static_cast<std::size_t>(o)] = quantizeWeightRow(
            fc.weights().data() + static_cast<std::size_t>(o) * in, in,
            weights_.data() + static_cast<std::size_t>(o) * in);
}

Shape
QuantFullyConnected::outputShape(const Shape& in) const
{
    if (static_cast<int>(in.elements()) != inFeatures_)
        panic("QuantFullyConnected ", name(), ": expected ", inFeatures_,
              " inputs, got ", in.elements());
    return {outFeatures_, 1, 1};
}

void
QuantFullyConnected::forwardInto(const float* in, const Shape& inShape,
                                 float* out, ForwardScratch& scratch,
                                 const KernelContext& ctx) const
{
    outputShape(inShape);
    // The activation vector is widened to int16 during quantization
    // (gemvInt8 wants both operands pre-widened -- widening rows per
    // call would double the FC cost).
    scratchResize(scratch.qx, static_cast<std::size_t>(inFeatures_));
    quantizeTo(in, static_cast<std::size_t>(inFeatures_), inputScale_,
               scratch.qx.data());
    scratchAssign(scratch.acc, static_cast<std::size_t>(outFeatures_),
                  std::int32_t{0});
    gemvInt8(static_cast<std::size_t>(outFeatures_),
             static_cast<std::size_t>(inFeatures_), weights_.data(),
             scratch.qx.data(), scratch.acc.data(), ctx);

    const float slope = fusedSlope_;
    for (int o = 0; o < outFeatures_; ++o) {
        const auto i = static_cast<std::size_t>(o);
        const float v = static_cast<float>(scratch.acc[i]) *
                            (inputScale_ * weightScale_[i]) +
                        bias_[i];
        out[i] = (!fusedAct_ || v > 0.0f) ? v : slope * v;
    }
}

void
QuantFullyConnected::fuseActivation(float leakySlope)
{
    if (fusedAct_)
        fatal("QuantFullyConnected ", name(),
              ": activation already fused");
    fusedAct_ = true;
    fusedSlope_ = leakySlope;
    rename(name() + "+act");
}

LayerProfile
QuantFullyConnected::profile(const Shape& in) const
{
    const Shape out = outputShape(in);
    LayerProfile p;
    p.name = name();
    p.kind = kind();
    p.flops = 2ULL * inFeatures_ * outFeatures_;
    if (fusedAct_)
        p.flops += out.elements();
    p.weightBytes = weights_.size() * sizeof(std::int8_t) +
                    (weightScale_.size() + bias_.size()) * sizeof(float);
    p.inputBytes = in.bytes();
    p.outputBytes = out.bytes();
    return p;
}

NetworkCalibration
calibrateNetwork(const Network& net, const std::vector<Tensor>& samples,
                 const QuantizationParams& params)
{
    if (samples.empty())
        fatal("calibrateNetwork: need at least one sample input");
    const std::size_t n = net.layerCount();
    std::vector<AbsHistogram> hist(
        n, AbsHistogram(params.histogramBins));
    for (const Tensor& sample : samples) {
        Tensor t = sample;
        for (std::size_t i = 0; i < n; ++i) {
            hist[i].add(t);
            t = net.layer(i).forward(t);
        }
    }
    NetworkCalibration cal;
    cal.inputScale.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        cal.inputScale[i] = quantizeScale(
            hist[i].percentileAbs(params.percentile));
    return cal;
}

std::size_t
quantizeNetwork(Network& net, const NetworkCalibration& cal)
{
    if (cal.inputScale.size() != net.layerCount())
        fatal("quantizeNetwork: calibration covers ",
              cal.inputScale.size(), " layers but network ", net.name(),
              " has ", net.layerCount());
    std::size_t replaced = 0;
    for (std::size_t i = 0; i < net.layerCount(); ++i) {
        const Layer& layer = net.layer(i);
        if (const auto* conv = dynamic_cast<const Conv2D*>(&layer)) {
            net.replaceLayer(i, std::make_unique<QuantConv2D>(
                                    *conv, cal.inputScale[i]));
            ++replaced;
        } else if (const auto* fc =
                       dynamic_cast<const FullyConnected*>(&layer)) {
            net.replaceLayer(i, std::make_unique<QuantFullyConnected>(
                                    *fc, cal.inputScale[i]));
            ++replaced;
        }
    }
    net.setPrecision(Precision::Int8);
    return replaced;
}

std::size_t
quantizeNetwork(Network& net, const std::vector<Tensor>& samples,
                const QuantizationParams& params)
{
    return quantizeNetwork(net, calibrateNetwork(net, samples, params));
}

} // namespace ad::nn
