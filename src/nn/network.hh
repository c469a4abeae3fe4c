/**
 * @file
 * Sequential network container and executor for the DNN inference
 * engine. Besides forward execution, the network produces a
 * NetworkProfile -- the per-layer FLOP/byte inventory that the
 * accelerator platform models (GPU roofline, FPGA layer-by-layer
 * schedule, CNN/FC ASICs) consume to predict latency and power.
 */

#ifndef AD_NN_NETWORK_HH
#define AD_NN_NETWORK_HH

#include <memory>
#include <string>
#include <vector>

#include "nn/layers.hh"
#include "nn/planner.hh"

namespace ad::obs {
class MetricRegistry;
}

namespace ad::nn {

/**
 * Numeric mode of a network or pipeline stage. Fp32 is the seed
 * behavior; Int8 means conv/FC layers were swapped for their quantized
 * counterparts (quant.hh).
 */
enum class Precision { Fp32, Int8 };

/** Short lowercase name ("fp32" / "int8"). */
const char* precisionName(Precision p);

/**
 * Parse a precision knob value ("fp32" / "int8"); fatal() on anything
 * else so a typoed config fails loudly instead of silently running the
 * wrong numeric mode.
 */
Precision parsePrecision(const std::string& text);

/** Aggregated compute/memory inventory of a whole network. */
struct NetworkProfile
{
    std::string name;
    Shape inputShape;
    std::vector<LayerProfile> layers;

    /** Total FLOPs over all layers. */
    std::uint64_t totalFlops() const;
    /** Total parameter bytes. */
    std::uint64_t totalWeightBytes() const;
    /** Total activation bytes written. */
    std::uint64_t totalActivationBytes() const;
    /** FLOPs restricted to one layer kind. */
    std::uint64_t flopsOfKind(LayerKind kind) const;
    /** Weight bytes restricted to one layer kind. */
    std::uint64_t weightBytesOfKind(LayerKind kind) const;
    /** Multi-line human-readable table. */
    std::string toString() const;
};

/**
 * A feed-forward network: an owned sequence of layers applied in order.
 * The YOLO-style detector and GOTURN-style tracker backbones are both
 * expressible as sequences (the tracker's two branches share one
 * backbone applied twice; see models.hh).
 */
class Network
{
  public:
    /** @param name diagnostic name ("det-yolo", "tra-goturn-conv", ...). */
    explicit Network(std::string name) : name_(std::move(name)) {}

    const std::string& name() const { return name_; }

    /** Append a layer; returns a reference for weight construction. */
    template <typename L, typename... Args>
    L&
    add(Args&&... args)
    {
        auto layer = std::make_unique<L>(std::forward<Args>(args)...);
        L& ref = *layer;
        layers_.push_back(std::move(layer));
        return ref;
    }

    std::size_t layerCount() const { return layers_.size(); }
    const Layer& layer(std::size_t i) const { return *layers_[i]; }

    /**
     * Mutable layer access for lowering passes (nn/fusion.hh) that
     * rewrite layers in place (fused activations, direct-conv marks).
     */
    Layer& mutableLayer(std::size_t i);

    /**
     * Swap layer i for a replacement with identical input/output
     * shapes -- the hook quantizeNetwork (quant.hh) uses to lower
     * conv/FC layers to int8 in place. fatal() on out-of-range i or a
     * null layer. Drops any existing plan (offsets would be stale).
     */
    void replaceLayer(std::size_t i, std::unique_ptr<Layer> layer);

    /**
     * Remove layer i -- the hook the fusion pass uses to delete an
     * Activation folded into its predecessor. fatal() on out-of-range
     * i. Drops any existing plan.
     */
    void removeLayer(std::size_t i);

    /** Numeric mode this network currently runs in. */
    Precision precision() const { return precision_; }
    /** Record the numeric mode (set by quantizeNetwork). */
    void setPrecision(Precision p) { precision_ = p; }

    /** Run all layers in order, serially. */
    Tensor forward(const Tensor& input) const;

    /**
     * Run all layers in order under a kernel context, each through
     * Layer::forward (one fresh tensor per layer): the allocating
     * reference that forwardArena is tested against, and the serve
     * engine's path. Parallel contexts shard the conv/FC kernels over
     * the pool with bitwise-identical results to the serial path.
     */
    Tensor forward(const Tensor& input, const KernelContext& ctx) const;

    /**
     * Run a batch of independent inputs through the network -- the
     * cross-stream batched path of the serving layer (ad_serve).
     *
     * Under a parallel context the batch items are sharded across
     * the pool and each item executes with serial kernels, so the
     * whole batch costs one parallelFor instead of one per layer.
     * By the kernel determinism contract, outputs[i] is
     * bitwise-identical to forward(inputs[i]) for every batch size
     * and thread count -- batching is a throughput decision, never
     * a numerics decision.
     */
    std::vector<Tensor> forwardBatch(const std::vector<Tensor>& inputs,
                                     const KernelContext& ctx) const;

    /** Static shape propagation through all layers. */
    Shape outputShape(const Shape& input) const;

    /** Per-layer compute/memory inventory for the given input shape. */
    NetworkProfile profile(const Shape& input) const;

    /**
     * The plan/arena phase the DET and TRA engines run at build:
     * propagate shapes for `input`, place every intermediate tensor into one reused arena
     * via the liveness planner (nn/planner.hh), preallocate the output
     * tensor and run one warm-up forward so all scratch buffers reach
     * their high-water marks. After plan(), forwardArena() performs
     * zero heap allocations per frame. Publishes
     * "nn.<name>.arena_bytes" / "nn.<name>.arena_values" gauges when
     * metrics are enabled. Call after any structural lowering
     * (quantizeNetwork, lowerNetwork); structural edits drop the plan.
     */
    void plan(const Shape& input);

    /** True once plan() has run (and no structural edit followed). */
    bool planned() const { return plan_ != nullptr; }

    /** Peak arena bytes of the current plan (0 when unplanned). */
    std::size_t arenaBytes() const;

    /**
     * Planned forward pass: run all layers through their forwardInto
     * path with intermediates in the arena; returns a reference to the
     * plan's output tensor (valid until the next forwardArena or plan
     * call or structural edit -- copy it before running the network again on
     * data you still need). Bitwise-identical to forward() at any
     * thread count: both paths execute the same layer code on the same
     * values. fatal() when no plan exists or the input shape differs
     * from the planned one. Not reentrant: one forwardArena per
     * network at a time (the pipeline's engines each own their
     * networks, so this is the existing calling discipline).
     */
    const Tensor& forwardArena(const Tensor& input,
                               const KernelContext& ctx);

    /** Serial-context convenience overload. */
    const Tensor&
    forwardArena(const Tensor& input)
    {
        return forwardArena(input, KernelContext::serial());
    }

  private:
    std::string name_;
    std::vector<std::unique_ptr<Layer>> layers_;
    Precision precision_ = Precision::Fp32;
    std::unique_ptr<NetworkPlan> plan_;
};

/**
 * Publish a network's per-layer FLOP/byte inventory as metric gauges
 * ("nn.<net>.layer.<name>.flops", ... plus totals) so a --metrics dump
 * carries the compute footprint next to the measured latencies.
 */
void profileToMetrics(const NetworkProfile& profile,
                      obs::MetricRegistry& reg);

} // namespace ad::nn

#endif // AD_NN_NETWORK_HH
