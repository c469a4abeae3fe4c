#include "nn/layers.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "nn/gemm.hh"
#include "nn/isa.hh"

#if defined(__x86_64__) || defined(__amd64__)
#define AD_NN_POOL_X86 1
#include <immintrin.h>
#endif

namespace ad::nn {

const char*
layerKindName(LayerKind kind)
{
    switch (kind) {
      case LayerKind::Conv: return "conv";
      case LayerKind::Pool: return "pool";
      case LayerKind::Activation: return "act";
      case LayerKind::FullyConnected: return "fc";
    }
    return "?";
}

namespace {

int
convOutDim(int in, int kernel, int stride, int pad)
{
    return (in + 2 * pad - kernel) / stride + 1;
}

/**
 * One output row of a 2x2/s2 max pool from input rows r0 and r1, as
 * many columns as whole vectors cover (a wide tier runs its tail in
 * narrower vectors); returns that count, and the scalar loop finishes
 * the row. Each window folds its taps in the
 * scalar loop's (ky, kx) order from -inf as best = maxps(tap, best):
 * maxps returns its second operand when either is NaN or the two are
 * equal, so it keeps `best` on NaN and on +-0 ties, exactly as
 * std::max(best, tap) does.
 */
using PoolRowFn = std::size_t (*)(const float* r0, const float* r1,
                                  float* dst, std::size_t ow);

#if AD_NN_POOL_X86

// The loops of each width are always inlined into the tier's entry
// point, so a wider tier runs its tail in its own (VEX) encoding: a
// call from AVX code into SSE-encoded code would run the latter with
// the upper register halves dirty, at a large penalty per instruction.

[[gnu::always_inline]] inline std::size_t
poolRow4(const float* r0, const float* r1, float* dst, std::size_t ox,
         std::size_t ow)
{
    const __m128 lowest = _mm_set1_ps(-INFINITY);
    for (; ox + 4 <= ow; ox += 4) {
        const __m128 a0 = _mm_loadu_ps(r0 + 2 * ox);
        const __m128 a1 = _mm_loadu_ps(r0 + 2 * ox + 4);
        const __m128 b0 = _mm_loadu_ps(r1 + 2 * ox);
        const __m128 b1 = _mm_loadu_ps(r1 + 2 * ox + 4);
        __m128 best = _mm_max_ps(
            _mm_shuffle_ps(a0, a1, _MM_SHUFFLE(2, 0, 2, 0)), lowest);
        best = _mm_max_ps(_mm_shuffle_ps(a0, a1, _MM_SHUFFLE(3, 1, 3, 1)),
                          best);
        best = _mm_max_ps(_mm_shuffle_ps(b0, b1, _MM_SHUFFLE(2, 0, 2, 0)),
                          best);
        best = _mm_max_ps(_mm_shuffle_ps(b0, b1, _MM_SHUFFLE(3, 1, 3, 1)),
                          best);
        _mm_storeu_ps(dst + ox, best);
    }
    return ox;
}

// The in-lane shuffles leave columns in the order 0 1 4 5 2 3 6 7; the
// max is lane-wise, so one permute of the result restores the order.
__attribute__((target("avx2"), always_inline)) inline std::size_t
poolRow8(const float* r0, const float* r1, float* dst, std::size_t ox,
         std::size_t ow)
{
    const __m256 lowest = _mm256_set1_ps(-INFINITY);
    for (; ox + 8 <= ow; ox += 8) {
        const __m256 a0 = _mm256_loadu_ps(r0 + 2 * ox);
        const __m256 a1 = _mm256_loadu_ps(r0 + 2 * ox + 8);
        const __m256 b0 = _mm256_loadu_ps(r1 + 2 * ox);
        const __m256 b1 = _mm256_loadu_ps(r1 + 2 * ox + 8);
        __m256 best = _mm256_max_ps(
            _mm256_shuffle_ps(a0, a1, _MM_SHUFFLE(2, 0, 2, 0)), lowest);
        best = _mm256_max_ps(
            _mm256_shuffle_ps(a0, a1, _MM_SHUFFLE(3, 1, 3, 1)), best);
        best = _mm256_max_ps(
            _mm256_shuffle_ps(b0, b1, _MM_SHUFFLE(2, 0, 2, 0)), best);
        best = _mm256_max_ps(
            _mm256_shuffle_ps(b0, b1, _MM_SHUFFLE(3, 1, 3, 1)), best);
        best = _mm256_castpd_ps(_mm256_permute4x64_pd(
            _mm256_castps_pd(best), _MM_SHUFFLE(3, 1, 2, 0)));
        _mm256_storeu_ps(dst + ox, best);
    }
    return ox;
}

// _mm512_max_ps passes _mm512_undefined_ps() as its merge source,
// which trips a false-positive -Wmaybe-uninitialized in GCC 12's own
// header; silence it for this function.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"

__attribute__((target("avx512f"), always_inline)) inline std::size_t
poolRow16(const float* r0, const float* r1, float* dst, std::size_t ox,
          std::size_t ow)
{
    const __m512 lowest = _mm512_set1_ps(-INFINITY);
    const __m512i even = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16,
                                           18, 20, 22, 24, 26, 28, 30);
    const __m512i odd = _mm512_add_epi32(even, _mm512_set1_epi32(1));
    for (; ox + 16 <= ow; ox += 16) {
        const __m512 a0 = _mm512_loadu_ps(r0 + 2 * ox);
        const __m512 a1 = _mm512_loadu_ps(r0 + 2 * ox + 16);
        const __m512 b0 = _mm512_loadu_ps(r1 + 2 * ox);
        const __m512 b1 = _mm512_loadu_ps(r1 + 2 * ox + 16);
        __m512 best =
            _mm512_max_ps(_mm512_permutex2var_ps(a0, even, a1), lowest);
        best = _mm512_max_ps(_mm512_permutex2var_ps(a0, odd, a1), best);
        best = _mm512_max_ps(_mm512_permutex2var_ps(b0, even, b1), best);
        best = _mm512_max_ps(_mm512_permutex2var_ps(b0, odd, b1), best);
        _mm512_storeu_ps(dst + ox, best);
    }
    return ox;
}

#pragma GCC diagnostic pop

std::size_t
poolRowSse2(const float* r0, const float* r1, float* dst, std::size_t ow)
{
    return poolRow4(r0, r1, dst, 0, ow);
}

__attribute__((target("avx2"))) std::size_t
poolRowAvx2(const float* r0, const float* r1, float* dst, std::size_t ow)
{
    return poolRow4(r0, r1, dst, poolRow8(r0, r1, dst, 0, ow), ow);
}

__attribute__((target("avx512f"))) std::size_t
poolRowAvx512(const float* r0, const float* r1, float* dst,
              std::size_t ow)
{
    const std::size_t ox =
        poolRow8(r0, r1, dst, poolRow16(r0, r1, dst, 0, ow), ow);
    return poolRow4(r0, r1, dst, ox, ow);
}

#endif // AD_NN_POOL_X86

/** The tier's 2x2/s2 row kernel; null for the scalar tier. */
PoolRowFn
poolRow2x2For(IsaTier tier)
{
#if AD_NN_POOL_X86
    switch (tier) {
      case IsaTier::Scalar: return nullptr;
      case IsaTier::Sse2: return poolRowSse2;
      case IsaTier::Avx2: return poolRowAvx2;
      case IsaTier::Avx512Vnni: return poolRowAvx512;
    }
#endif
    (void)tier;
    return nullptr;
}

/**
 * The scratch behind Layer::forward: one per thread, so concurrent
 * forwards on different threads (forwardBatch's shards, the serve
 * engine's pool) never share buffers.
 */
ForwardScratch&
threadScratch()
{
    static thread_local ForwardScratch scratch;
    return scratch;
}

} // namespace

Tensor
Layer::forward(const Tensor& in, const KernelContext& ctx) const
{
    const Shape inShape{in.channels(), in.height(), in.width()};
    const Shape outShape = outputShape(inShape);
    Tensor out(outShape.c, outShape.h, outShape.w);
    forwardInto(in.data(), inShape, out.data(), threadScratch(), ctx);
    return out;
}

Conv2D::Conv2D(std::string name, int inChannels, int outChannels,
               int kernel, int stride, int pad)
    : Layer(std::move(name)), inChannels_(inChannels),
      outChannels_(outChannels), kernel_(kernel), stride_(stride), pad_(pad)
{
    if (inChannels <= 0 || outChannels <= 0 || kernel <= 0 || stride <= 0 ||
        pad < 0)
        panic("Conv2D ", this->name(), ": invalid geometry");
    weights_.assign(static_cast<std::size_t>(outChannels) * inChannels *
                    kernel * kernel, 0.0f);
    bias_.assign(outChannels, 0.0f);
}

Shape
Conv2D::outputShape(const Shape& in) const
{
    if (in.c != inChannels_)
        panic("Conv2D ", name(), ": expected ", inChannels_,
              " input channels, got ", in.c);
    const int oh = convOutDim(in.h, kernel_, stride_, pad_);
    const int ow = convOutDim(in.w, kernel_, stride_, pad_);
    if (oh <= 0 || ow <= 0)
        panic("Conv2D ", name(), ": input ", in.h, "x", in.w,
              " too small for kernel");
    return {outChannels_, oh, ow};
}

void
Conv2D::forwardInto(const float* in, const Shape& inShape, float* out,
                    ForwardScratch& scratch,
                    const KernelContext& ctx) const
{
    const Shape os = outputShape(inShape);
    const ConvGeometry g{inShape.c, inShape.h, inShape.w, kernel_,
                         stride_, pad_, os.h, os.w};
    const ConvEpilogue ep{bias_.data(), fusedAct_, fusedSlope_};
    convImplicitGemm(g, static_cast<std::size_t>(outChannels_),
                     weights_.data(), ep, in, out, scratch.conv, ctx);
}

void
Conv2D::fuseActivation(float leakySlope)
{
    if (fusedAct_)
        fatal("Conv2D ", name(), ": activation already fused");
    fusedAct_ = true;
    fusedSlope_ = leakySlope;
    rename(name() + "+act");
}

LayerProfile
Conv2D::profile(const Shape& in) const
{
    const Shape out = outputShape(in);
    LayerProfile p;
    p.name = name();
    p.kind = kind();
    p.flops = 2ULL * outChannels_ * inChannels_ * kernel_ * kernel_ *
              out.h * out.w;
    if (fusedAct_)
        p.flops += out.elements();
    p.weightBytes = (weights_.size() + bias_.size()) * sizeof(float);
    p.inputBytes = in.bytes();
    p.outputBytes = out.bytes();
    return p;
}

void
Conv2D::setWeight(int oc, int ic, int ky, int kx, float value)
{
    const std::size_t i =
        ((static_cast<std::size_t>(oc) * inChannels_ + ic) * kernel_ + ky) *
        kernel_ + kx;
    weights_[i] = value;
}

void
foldBatchNorm(Conv2D& conv, const BatchNormParams& bn)
{
    const auto oc = static_cast<std::size_t>(conv.outChannels());
    if (bn.gamma.size() != oc || bn.beta.size() != oc ||
        bn.mean.size() != oc || bn.variance.size() != oc)
        fatal("foldBatchNorm: parameter sizes must equal ",
              conv.outChannels(), " output channels");
    const std::size_t filterSize =
        static_cast<std::size_t>(conv.inChannels()) * conv.kernel() *
        conv.kernel();
    for (std::size_t c = 0; c < oc; ++c) {
        const float scale =
            bn.gamma[c] / std::sqrt(bn.variance[c] + bn.epsilon);
        float* w = conv.weights().data() + c * filterSize;
        for (std::size_t i = 0; i < filterSize; ++i)
            w[i] *= scale;
        conv.bias()[c] =
            scale * (conv.bias()[c] - bn.mean[c]) + bn.beta[c];
    }
}

MaxPool::MaxPool(std::string name, int kernel, int stride)
    : Layer(std::move(name)), kernel_(kernel), stride_(stride)
{
    if (kernel <= 0 || stride <= 0)
        panic("MaxPool ", this->name(), ": invalid geometry");
}

Shape
MaxPool::outputShape(const Shape& in) const
{
    // Guard before dividing: (in - kernel) / stride truncates toward
    // zero for negative values, which would "round" an undersized
    // input up to a 1x1 output.
    if (in.h < kernel_ || in.w < kernel_)
        panic("MaxPool ", name(), ": input ", in.h, "x", in.w,
              " too small");
    return {in.c, (in.h - kernel_) / stride_ + 1,
            (in.w - kernel_) / stride_ + 1};
}

void
MaxPool::forwardInto(const float* in, const Shape& inShape, float* out,
                     ForwardScratch&, const KernelContext&) const
{
    const Shape os = outputShape(inShape);
    // 2x2/s2 (every pool in DET and TRA) takes the tier's vector rows;
    // the scalar loop below finishes each row and runs other windows.
    const PoolRowFn vectorRow = kernel_ == 2 && stride_ == 2
                                    ? poolRow2x2For(kernelIsaTier())
                                    : nullptr;
    for (int c = 0; c < os.c; ++c) {
        const float* src =
            in + static_cast<std::size_t>(c) * inShape.h * inShape.w;
        float* dst = out + static_cast<std::size_t>(c) * os.h * os.w;
        for (int oy = 0; oy < os.h; ++oy) {
            const float* top = src +
                static_cast<std::size_t>(oy * stride_) * inShape.w;
            float* dstRow = dst + static_cast<std::size_t>(oy) * os.w;
            int ox = 0;
            if (vectorRow)
                ox = static_cast<int>(vectorRow(
                    top, top + inShape.w, dstRow,
                    static_cast<std::size_t>(os.w)));
            for (; ox < os.w; ++ox) {
                float best = -INFINITY;
                for (int ky = 0; ky < kernel_; ++ky) {
                    const float* row = top +
                        static_cast<std::size_t>(ky) * inShape.w +
                        ox * stride_;
                    for (int kx = 0; kx < kernel_; ++kx)
                        best = std::max(best, row[kx]);
                }
                dstRow[ox] = best;
            }
        }
    }
}

LayerProfile
MaxPool::profile(const Shape& in) const
{
    const Shape out = outputShape(in);
    LayerProfile p;
    p.name = name();
    p.kind = kind();
    // One comparison per window element, counted as one op.
    p.flops = static_cast<std::uint64_t>(out.elements()) * kernel_ * kernel_;
    p.weightBytes = 0;
    p.inputBytes = in.bytes();
    p.outputBytes = out.bytes();
    return p;
}

AvgPool::AvgPool(std::string name, int kernel, int stride)
    : Layer(std::move(name)), kernel_(kernel), stride_(stride)
{
    if (kernel <= 0 || stride <= 0)
        panic("AvgPool ", this->name(), ": invalid geometry");
}

Shape
AvgPool::outputShape(const Shape& in) const
{
    // See MaxPool::outputShape: guard before the truncating division.
    if (in.h < kernel_ || in.w < kernel_)
        panic("AvgPool ", name(), ": input ", in.h, "x", in.w,
              " too small");
    return {in.c, (in.h - kernel_) / stride_ + 1,
            (in.w - kernel_) / stride_ + 1};
}

void
AvgPool::forwardInto(const float* in, const Shape& inShape, float* out,
                     ForwardScratch&, const KernelContext&) const
{
    const Shape os = outputShape(inShape);
    const float norm = 1.0f / static_cast<float>(kernel_ * kernel_);
    for (int c = 0; c < os.c; ++c) {
        const float* src =
            in + static_cast<std::size_t>(c) * inShape.h * inShape.w;
        float* dst = out + static_cast<std::size_t>(c) * os.h * os.w;
        for (int oy = 0; oy < os.h; ++oy) {
            for (int ox = 0; ox < os.w; ++ox) {
                float sum = 0;
                for (int ky = 0; ky < kernel_; ++ky) {
                    const float* row = src +
                        static_cast<std::size_t>(oy * stride_ + ky) *
                        inShape.w + ox * stride_;
                    for (int kx = 0; kx < kernel_; ++kx)
                        sum += row[kx];
                }
                dst[static_cast<std::size_t>(oy) * os.w + ox] =
                    sum * norm;
            }
        }
    }
}

LayerProfile
AvgPool::profile(const Shape& in) const
{
    const Shape out = outputShape(in);
    LayerProfile p;
    p.name = name();
    p.kind = kind();
    p.flops = static_cast<std::uint64_t>(out.elements()) * kernel_ *
              kernel_;
    p.inputBytes = in.bytes();
    p.outputBytes = out.bytes();
    return p;
}

Softmax::Softmax(std::string name) : Layer(std::move(name))
{
}

void
Softmax::forwardInto(const float* in, const Shape& inShape, float* out,
                     ForwardScratch&, const KernelContext&) const
{
    // Per spatial position, normalize across channels (YOLO applies
    // softmax over class channels per grid cell).
    const int c = inShape.c;
    const std::size_t plane =
        static_cast<std::size_t>(inShape.h) * inShape.w;
    for (int y = 0; y < inShape.h; ++y) {
        for (int x = 0; x < inShape.w; ++x) {
            const std::size_t at =
                static_cast<std::size_t>(y) * inShape.w + x;
            float maxV = in[at];
            for (int ci = 1; ci < c; ++ci)
                maxV = std::max(maxV, in[ci * plane + at]);
            float sum = 0;
            for (int ci = 0; ci < c; ++ci) {
                const float e = std::exp(in[ci * plane + at] - maxV);
                out[ci * plane + at] = e;
                sum += e;
            }
            for (int ci = 0; ci < c; ++ci)
                out[ci * plane + at] /= sum;
        }
    }
}

LayerProfile
Softmax::profile(const Shape& in) const
{
    LayerProfile p;
    p.name = name();
    p.kind = kind();
    // exp + two passes per element, counted as ~4 ops each.
    p.flops = in.elements() * 4;
    p.inputBytes = in.bytes();
    p.outputBytes = in.bytes();
    return p;
}

Activation::Activation(std::string name, float leakySlope)
    : Layer(std::move(name)), leakySlope_(leakySlope)
{
}

void
Activation::forwardInto(const float* in, const Shape& inShape,
                        float* out, ForwardScratch&,
                        const KernelContext&) const
{
    const std::size_t n = inShape.elements();
    const float slope = leakySlope_;
    for (std::size_t i = 0; i < n; ++i)
        out[i] = in[i] > 0.0f ? in[i] : slope * in[i];
}

LayerProfile
Activation::profile(const Shape& in) const
{
    LayerProfile p;
    p.name = name();
    p.kind = kind();
    p.flops = in.elements();
    p.weightBytes = 0;
    p.inputBytes = in.bytes();
    p.outputBytes = in.bytes();
    return p;
}

FullyConnected::FullyConnected(std::string name, int inFeatures,
                               int outFeatures)
    : Layer(std::move(name)), inFeatures_(inFeatures),
      outFeatures_(outFeatures)
{
    if (inFeatures <= 0 || outFeatures <= 0)
        panic("FullyConnected ", this->name(), ": invalid geometry");
    weights_.assign(static_cast<std::size_t>(outFeatures) * inFeatures,
                    0.0f);
    bias_.assign(outFeatures, 0.0f);
}

Shape
FullyConnected::outputShape(const Shape& in) const
{
    if (static_cast<int>(in.elements()) != inFeatures_)
        panic("FullyConnected ", name(), ": expected ", inFeatures_,
              " inputs, got ", in.elements());
    return {outFeatures_, 1, 1};
}

void
FullyConnected::forwardInto(const float* in, const Shape& inShape,
                            float* out, ForwardScratch&,
                            const KernelContext& ctx) const
{
    outputShape(inShape);
    std::copy(bias_.begin(), bias_.end(), out);
    gemv(outFeatures_, inFeatures_, weights_.data(), in, out, ctx);
    if (fusedAct_) {
        const float slope = fusedSlope_;
        for (int o = 0; o < outFeatures_; ++o) {
            const float v = out[o];
            out[o] = v > 0.0f ? v : slope * v;
        }
    }
}

void
FullyConnected::fuseActivation(float leakySlope)
{
    if (fusedAct_)
        fatal("FullyConnected ", name(), ": activation already fused");
    fusedAct_ = true;
    fusedSlope_ = leakySlope;
    rename(name() + "+act");
}

LayerProfile
FullyConnected::profile(const Shape& in) const
{
    const Shape out = outputShape(in);
    LayerProfile p;
    p.name = name();
    p.kind = kind();
    p.flops = 2ULL * inFeatures_ * outFeatures_;
    if (fusedAct_)
        p.flops += out.elements();
    p.weightBytes = (weights_.size() + bias_.size()) * sizeof(float);
    p.inputBytes = in.bytes();
    p.outputBytes = out.bytes();
    return p;
}

} // namespace ad::nn
