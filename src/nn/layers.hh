/**
 * @file
 * Layer zoo for the from-scratch DNN inference engine: convolution
 * (implicit GEMM), max pooling, ReLU/LeakyReLU activations and fully
 * connected layers -- exactly the layer types the paper's FPGA design
 * supports ("all the types of layers used in DET and TRA, including
 * convolutional layers, pooling layers, ReLu layers and fully connected
 * layers", Section 4.2.2).
 *
 * Every layer reports its compute/memory footprint (FLOPs, weight bytes,
 * activation bytes); the accelerator platform models consume those
 * profiles to predict latency and power on GPU/FPGA/ASIC targets.
 */

#ifndef AD_NN_LAYERS_HH
#define AD_NN_LAYERS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/gemm.hh"
#include "nn/kernel_context.hh"
#include "nn/tensor.hh"

namespace ad::nn {

/** Coarse layer category, used by the accelerator models. */
enum class LayerKind { Conv, Pool, Activation, FullyConnected };

/** Batch-normalization parameters for one channel set. */
struct BatchNormParams
{
    std::vector<float> gamma;   ///< scale.
    std::vector<float> beta;    ///< shift.
    std::vector<float> mean;    ///< running mean.
    std::vector<float> variance; ///< running variance.
    float epsilon = 1e-5f;
};

/** Convert a LayerKind to a short lowercase name. */
const char* layerKindName(LayerKind kind);

/** Static compute/memory footprint of one layer at a given input. */
struct LayerProfile
{
    std::string name;
    LayerKind kind = LayerKind::Conv;
    std::uint64_t flops = 0;       ///< multiply+add counted separately.
    std::uint64_t weightBytes = 0; ///< parameter footprint (fp32).
    std::uint64_t inputBytes = 0;  ///< activation read.
    std::uint64_t outputBytes = 0; ///< activation written.
};

/** Shape of a CHW tensor, used for static shape propagation. */
struct Shape
{
    int c = 0;
    int h = 0;
    int w = 0;

    std::size_t elements() const
    {
        return static_cast<std::size_t>(c) * h * w;
    }
    std::size_t bytes() const { return elements() * sizeof(float); }
    bool operator==(const Shape&) const = default;
};

/**
 * Reusable scratch buffers for the raw-pointer execution path
 * (Layer::forwardInto). One instance serves a whole sequential network:
 * layers execute one at a time, so they can share buffers, and all
 * growth is counted through scratchAssign/scratchResize -- after the
 * plan warm-up pass has high-watermarked every buffer, steady-state
 * frames touch the heap zero times. Layer::forward uses a thread-local
 * instance of its own.
 */
struct ForwardScratch
{
    ConvScratch conv;               ///< fp32 conv: padded input or panels.
    std::vector<std::int8_t> qin;   ///< quantized input tensor.
    std::vector<std::int8_t> qcols; ///< int8 im2col matrix.
    std::vector<std::int16_t> qx;   ///< pre-widened FC activation.
    std::vector<std::int32_t> acc;  ///< int32 GEMM/GEMV accumulators.
};

/**
 * Abstract network layer. Layers are stateless with respect to
 * invocation (weights are fixed after construction), so one layer object
 * can be reused across frames.
 */
class Layer
{
  public:
    explicit Layer(std::string name) : name_(std::move(name)) {}
    virtual ~Layer() = default;

    Layer(const Layer&) = delete;
    Layer& operator=(const Layer&) = delete;

    const std::string& name() const { return name_; }

    /** Layer category for accelerator mapping. */
    virtual LayerKind kind() const = 0;

    /** Output shape for the given input shape; fatal() on mismatch. */
    virtual Shape outputShape(const Shape& in) const = 0;

    /**
     * The layer's one execution entry point: read the input at `in`
     * with shape `inShape` and write the output to `out`, which the
     * caller sized to outputShape(inShape) and which may alias arena
     * storage (in and out never alias each other). Scratch comes from
     * `scratch` and only grows on first use, so the planned forward
     * (Network::forwardArena) allocates nothing in steady state.
     * Parallel contexts shard compute-heavy layers (conv, FC) across
     * the pool; results are bitwise-identical to serial execution for
     * any thread count.
     */
    virtual void forwardInto(const float* in, const Shape& inShape,
                             float* out, ForwardScratch& scratch,
                             const KernelContext& ctx) const = 0;

    /**
     * Allocating convenience wrapper over forwardInto: size a fresh
     * output tensor by outputShape and run forwardInto with this
     * thread's scratch. The path behind Network::forward and
     * forwardBatch; bitwise-identical to the planned forward because
     * both run the same forwardInto code.
     */
    Tensor forward(const Tensor& in,
                   const KernelContext& ctx = KernelContext::serial()) const;

    /** Compute/memory footprint for the given input shape. */
    virtual LayerProfile profile(const Shape& in) const = 0;

  protected:
    /**
     * Rename the layer; the fusion pass (nn/fusion.hh) appends "+act"
     * when it folds a following Activation into this layer so traces
     * and profiles name the fused stage honestly.
     */
    void rename(std::string name) { name_ = std::move(name); }

  private:
    std::string name_;
};

/**
 * 2D convolution with square kernel, symmetric zero padding and fused
 * optional bias, run as one implicit GEMM (convImplicitGemm,
 * nn/gemm.hh): the register tiles read the input taps in place or from
 * panels packed straight from the input, and apply bias and activation
 * as they store.
 */
class Conv2D : public Layer
{
  public:
    /**
     * @param name layer name (unique within a network).
     * @param inChannels input channel count.
     * @param outChannels output channel count (number of filters).
     * @param kernel square kernel size.
     * @param stride spatial stride.
     * @param pad symmetric zero padding.
     */
    Conv2D(std::string name, int inChannels, int outChannels, int kernel,
           int stride, int pad);

    LayerKind kind() const override { return LayerKind::Conv; }
    Shape outputShape(const Shape& in) const override;
    LayerProfile profile(const Shape& in) const override;

    int inChannels() const { return inChannels_; }
    int outChannels() const { return outChannels_; }
    int kernel() const { return kernel_; }
    int stride() const { return stride_; }
    int pad() const { return pad_; }

    /** Mutable weight access: [outC][inC][ky][kx] flattened. */
    std::vector<float>& weights() { return weights_; }
    const std::vector<float>& weights() const { return weights_; }
    std::vector<float>& bias() { return bias_; }
    const std::vector<float>& bias() const { return bias_; }

    /** Set the weight for one (outC, inC, ky, kx) tap. */
    void setWeight(int oc, int ic, int ky, int kx, float value);

    /**
     * Fold a following ReLU/LeakyReLU into this layer's epilogue (the
     * fusion lowering, nn/fusion.hh): the activation is applied to each
     * register tile right after its bias add, before the one output
     * store, so the separate Activation layer -- and its full tensor
     * read/write -- disappears. Bitwise-identical to running the
     * Activation afterwards: the epilogue performs the same operations
     * per element in the same order. Renames the layer "<name>+act".
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
    bool fusedAct_ = false;
    float fusedSlope_ = 0.0f;
    std::vector<float> weights_; ///< outC x (inC * k * k), row-major.
    std::vector<float> bias_;    ///< outC.
};

/**
 * Fold batch normalization into the preceding convolution: at
 * inference, BN(conv(x)) is an affine map per output channel, so the
 * scale folds into the filter weights and the shift into the bias.
 * This is why the inference engine (like the paper's FPGA design,
 * which lists only conv/pool/ReLU/FC) carries no BatchNorm layer.
 *
 * @param conv convolution whose weights/bias are rewritten in place.
 * @param bn per-output-channel statistics (sizes must match).
 */
void foldBatchNorm(Conv2D& conv, const BatchNormParams& bn);

/** Max pooling with square window. */
class MaxPool : public Layer
{
  public:
    MaxPool(std::string name, int kernel, int stride);

    LayerKind kind() const override { return LayerKind::Pool; }
    Shape outputShape(const Shape& in) const override;
    LayerProfile profile(const Shape& in) const override;

    int kernel() const { return kernel_; }
    int stride() const { return stride_; }

    void forwardInto(const float* in, const Shape& inShape, float* out,
                     ForwardScratch& scratch,
                     const KernelContext& ctx) const override;

  private:
    int kernel_;
    int stride_;
};

/** Average pooling with square window. */
class AvgPool : public Layer
{
  public:
    AvgPool(std::string name, int kernel, int stride);

    LayerKind kind() const override { return LayerKind::Pool; }
    Shape outputShape(const Shape& in) const override;
    LayerProfile profile(const Shape& in) const override;

    int kernel() const { return kernel_; }
    int stride() const { return stride_; }

    void forwardInto(const float* in, const Shape& inShape, float* out,
                     ForwardScratch& scratch,
                     const KernelContext& ctx) const override;

  private:
    int kernel_;
    int stride_;
};

/**
 * Channel-wise softmax over a (C, 1, 1) or flattened input -- the
 * classifier head normalization (YOLO applies it to class scores).
 */
class Softmax : public Layer
{
  public:
    explicit Softmax(std::string name);

    LayerKind kind() const override { return LayerKind::Activation; }
    Shape outputShape(const Shape& in) const override { return in; }
    LayerProfile profile(const Shape& in) const override;

    void forwardInto(const float* in, const Shape& inShape, float* out,
                     ForwardScratch& scratch,
                     const KernelContext& ctx) const override;
};

/** Pointwise activation: ReLU or LeakyReLU(slope). */
class Activation : public Layer
{
  public:
    /** @param leakySlope 0 for plain ReLU, e.g.\ 0.1 for YOLO's leaky. */
    Activation(std::string name, float leakySlope);

    LayerKind kind() const override { return LayerKind::Activation; }
    Shape outputShape(const Shape& in) const override { return in; }
    LayerProfile profile(const Shape& in) const override;

    float leakySlope() const { return leakySlope_; }

    void forwardInto(const float* in, const Shape& inShape, float* out,
                     ForwardScratch& scratch,
                     const KernelContext& ctx) const override;

  private:
    float leakySlope_;
};

/**
 * Fully connected layer; flattens its input implicitly. The GOTURN-style
 * tracker's 4096-wide FC stack dominates its parameter footprint, which
 * is why the paper maps TRA to the EIE-style FC ASIC.
 */
class FullyConnected : public Layer
{
  public:
    FullyConnected(std::string name, int inFeatures, int outFeatures);

    LayerKind kind() const override { return LayerKind::FullyConnected; }
    Shape outputShape(const Shape& in) const override;
    LayerProfile profile(const Shape& in) const override;

    int inFeatures() const { return inFeatures_; }
    int outFeatures() const { return outFeatures_; }

    std::vector<float>& weights() { return weights_; }
    const std::vector<float>& weights() const { return weights_; }
    std::vector<float>& bias() { return bias_; }
    const std::vector<float>& bias() const { return bias_; }

    /**
     * Fold a following ReLU/LeakyReLU into the output pass after the
     * GEMV (see Conv2D::fuseActivation; same bitwise-identity
     * argument). Renames the layer "<name>+act".
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
    bool fusedAct_ = false;
    float fusedSlope_ = 0.0f;
    std::vector<float> weights_; ///< out x in, row-major.
    std::vector<float> bias_;    ///< out.
};

} // namespace ad::nn

#endif // AD_NN_LAYERS_HH
