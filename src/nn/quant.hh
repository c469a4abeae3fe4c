/**
 * @file
 * Post-training INT8 quantization for the inference engine: symmetric
 * per-channel weight quantization, histogram-based activation
 * calibration with percentile clipping, and drop-in quantized
 * conv/FC layers that run on the int8 kernels (gemm_int8.hh).
 *
 * Scheme (DESIGN.md "Quantized inference"): all quantization is
 * symmetric with the int8 range restricted to [-127, 127], so a tensor
 * is represented as q = clamp(round(x / s), -127, 127) for one positive
 * scale s and dequantized as x' = q * s. Weights use one scale per
 * output channel (absmax / 127 over the channel's filter); activations
 * use one scale per tensor, chosen during a calibration pass that feeds
 * seeded sample inputs through the fp32 network and clips each layer's
 * input distribution at a percentile of |x| (outliers cost range for
 * the whole tensor; clipping them trades rare saturation for finer
 * resolution everywhere else).
 *
 * A quantized layer keeps the float-Tensor Layer interface: it
 * quantizes its input internally, accumulates in int32, and
 * dequantizes straight to fp32 with the combined scale
 * sIn * sW[channel], adding the fp32 bias. A conv does all three in
 * one int8 implicit GEMM (the input pass quantizes, the register tile
 * accumulates, its store dequantizes; gemm_int8.hh) with no int8
 * copy of the unfolded input; an FC quantizes its input vector, runs
 * gemvInt8 and dequantizes the sums. Interleaved pool/activation
 * layers therefore run unmodified, and a quantized network is
 * bitwise-deterministic at any thread count and ISA tier because the
 * integer accumulation is exact.
 */

#ifndef AD_NN_QUANT_HH
#define AD_NN_QUANT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "nn/gemm_int8.hh"
#include "nn/layers.hh"
#include "nn/network.hh"

namespace ad::nn {

/** Knobs for the calibration pass. */
struct QuantizationParams
{
    /** Histogram resolution for activation range tracking. */
    int histogramBins = 1024;
    /**
     * Fraction of |x| mass kept inside the representable range; the
     * default clips the top 0.1% of activation magnitudes.
     */
    float percentile = 0.999f;
};

/**
 * Streaming histogram over |x| with a fixed bin count and a range that
 * grows by powers of two: when a sample exceeds the current range the
 * range doubles and adjacent bin pairs merge, so early samples are
 * never lost and memory stays constant. Used by calibration to pick
 * percentile-clipped activation scales.
 */
class AbsHistogram
{
  public:
    explicit AbsHistogram(int bins = 1024);

    /** Record |x| for every element. */
    void add(const float* data, std::size_t n);
    void add(const Tensor& t) { add(t.data(), t.size()); }

    /** Largest |x| seen (0 if empty). */
    float absMax() const { return absMax_; }
    /** Total samples recorded. */
    std::uint64_t count() const { return count_; }

    /**
     * Smallest magnitude bound that covers at least `fraction` of the
     * recorded mass (upper edge of the covering bin). fraction >= 1 or
     * an empty histogram returns absMax().
     */
    float percentileAbs(float fraction) const;

  private:
    void grow(float needed);

    std::vector<std::uint64_t> bins_;
    float range_ = 1.0f; ///< current upper edge of the last bin.
    float absMax_ = 0.0f;
    std::uint64_t count_ = 0;
};

/**
 * Symmetric scale mapping [-absMax, absMax] onto [-127, 127];
 * absMax <= 0 degenerates to 1 so all-zero tensors quantize to zero
 * instead of dividing by zero.
 */
float quantizeScale(float absMax);

/**
 * q = clamp(round(x * (1 / scale)), -127, 127) elementwise, rounding
 * half away from zero; the product is clamped before it is rounded, so
 * +-inf and values beyond the int8 range saturate, and NaN gives -127.
 * The reference the int8 convolution's SIMD input pass must equal.
 */
void quantize(const float* x, std::size_t n, float scale, std::int8_t* q);

/** x' = q * scale elementwise. */
void dequantize(const std::int8_t* q, std::size_t n, float scale,
                float* x);

/**
 * Re-express int32 accumulators (at scale accScale) as int8 at
 * outScale: q = clamp(round(acc * accScale / outScale), -127, 127).
 * The layer stack dequantizes to fp32 between layers instead, but the
 * helper is the primitive a fused int8->int8 chain would use and is
 * covered by the round-trip tests.
 */
void requantize(const std::int32_t* acc, std::size_t n, float accScale,
                float outScale, std::int8_t* q);

/**
 * Conv2D lowered to the int8 path: weights quantized per output
 * channel and packed once into the int8 register tile's s8 quads
 * (Int8ConvWeights, nn/gemm_int8.hh); each forward runs one int8
 * implicit GEMM that quantizes the input at the calibrated per-tensor
 * scale as it loads it, accumulates exact int32 sums, and stores
 * float(sum) * (sIn * sW[oc]) + bias[oc] (plus the fused activation)
 * straight into the output.
 */
class QuantConv2D : public Layer
{
  public:
    /**
     * @param conv fp32 layer to quantize (weights copied, not shared).
     * @param inputScale calibrated activation scale for this layer's
     *        input tensor.
     */
    QuantConv2D(const Conv2D& conv, float inputScale);

    LayerKind kind() const override { return LayerKind::Conv; }
    Shape outputShape(const Shape& in) const override;
    /**
     * Footprint with weightBytes at int8 width -- the reduced
     * parameter traffic is exactly what the accelerator models charge
     * for in the quantized configurations.
     */
    LayerProfile profile(const Shape& in) const override;

    float inputScale() const { return inputScale_; }
    /** Per-output-channel weight scales. */
    const std::vector<float>& weightScale() const { return weightScale_; }

    int kernel() const { return kernel_; }
    int stride() const { return stride_; }
    int pad() const { return pad_; }

    /**
     * Fold a following ReLU/LeakyReLU into the tile store (see
     * Conv2D::fuseActivation). The store always computes
     * `float(sum) * scale + bias` -- fused or not -- so applying the
     * activation right after that expression is bitwise-identical to a
     * separate Activation layer. Renames the layer "<name>+act".
     */
    void fuseActivation(float leakySlope);
    bool hasFusedActivation() const { return fusedAct_; }
    float fusedSlope() const { return fusedSlope_; }

    void forwardInto(const float* in, const Shape& inShape, float* out,
                     ForwardScratch& scratch,
                     const KernelContext& ctx) const override;

  private:
    int inChannels_;
    int outChannels_;
    int kernel_;
    int stride_;
    int pad_;
    float inputScale_;
    bool fusedAct_ = false;
    float fusedSlope_ = 0.0f;
    Int8ConvWeights weights_;        ///< s8 quads + bias correction.
    std::vector<float> weightScale_; ///< per output channel.
    std::vector<float> scale_;       ///< sIn * sW[oc], the dequant scale.
    std::vector<float> bias_;        ///< fp32, added after dequant.
};

/**
 * FullyConnected lowered to the int8 path: per-output-row weight
 * scales, per-tensor input scale, gemvInt8 core, fp32 bias after
 * dequantization.
 */
class QuantFullyConnected : public Layer
{
  public:
    QuantFullyConnected(const FullyConnected& fc, float inputScale);

    LayerKind kind() const override { return LayerKind::FullyConnected; }
    Shape outputShape(const Shape& in) const override;
    /** Footprint with weightBytes at int8 width (see QuantConv2D). */
    LayerProfile profile(const Shape& in) const override;

    float inputScale() const { return inputScale_; }
    const std::vector<float>& weightScale() const { return weightScale_; }

    /**
     * Fold a following ReLU/LeakyReLU into the dequantize pass (see
     * QuantConv2D::fuseActivation). Renames the layer "<name>+act".
     */
    void fuseActivation(float leakySlope);
    bool hasFusedActivation() const { return fusedAct_; }
    float fusedSlope() const { return fusedSlope_; }

    void forwardInto(const float* in, const Shape& inShape, float* out,
                     ForwardScratch& scratch,
                     const KernelContext& ctx) const override;

  private:
    int inFeatures_;
    int outFeatures_;
    float inputScale_;
    bool fusedAct_ = false;
    float fusedSlope_ = 0.0f;
    std::vector<std::int16_t> weights_; ///< int8-range, pre-widened.
    std::vector<float> weightScale_;    ///< per output feature.
    std::vector<float> bias_;
};

/** Calibrated per-layer activation scales for one network. */
struct NetworkCalibration
{
    /**
     * inputScale[i] is the quantization scale for layer i's input
     * tensor; meaningful only where layer i is conv or FC.
     */
    std::vector<float> inputScale;
};

/**
 * Run the calibration pass: feed each sample through the fp32 network
 * layer by layer (serially -- calibration is offline, determinism over
 * speed), record every layer's input magnitudes into per-layer
 * histograms, and derive percentile-clipped scales.
 */
NetworkCalibration calibrateNetwork(const Network& net,
                                    const std::vector<Tensor>& samples,
                                    const QuantizationParams& params = {});

/**
 * Swap every conv/FC layer of `net` for its quantized counterpart
 * using the calibrated scales, and mark the network Precision::Int8.
 * Pool/activation/softmax layers are untouched (they run fp32 on the
 * dequantized tensors). Returns the number of layers replaced.
 * fatal() if the calibration was taken on a different layer count.
 */
std::size_t quantizeNetwork(Network& net, const NetworkCalibration& cal);

/**
 * Convenience wrapper: calibrate on `samples` and quantize in place.
 * Returns the number of layers replaced.
 */
std::size_t quantizeNetwork(Network& net,
                            const std::vector<Tensor>& samples,
                            const QuantizationParams& params = {});

} // namespace ad::nn

#endif // AD_NN_QUANT_HH
