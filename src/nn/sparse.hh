/**
 * @file
 * Sparse fully connected execution, in the style of the EIE inference
 * engine the paper adopts for the tracker's FC stack (Han et al.,
 * reference [23]). GOTURN's three 4096-wide FC layers carry ~436 MB
 * of fp32 weights -- the reason TRA is transfer-bound on the FPGA --
 * and EIE's answer is pruning + compressed storage: most weights are
 * near zero, so a CSR representation shrinks both the footprint and
 * the multiply count.
 *
 * SparseFullyConnected prunes a dense layer at a magnitude threshold
 * and executes the compressed form; its LayerProfile reports the
 * compressed FLOPs/bytes, which the accelerator models then convert
 * into the latency savings the paper's ASIC numbers embody.
 */

#ifndef AD_NN_SPARSE_HH
#define AD_NN_SPARSE_HH

#include "nn/layers.hh"

namespace ad::nn {

/**
 * CSR-compressed fully connected layer.
 */
class SparseFullyConnected : public Layer
{
  public:
    /**
     * Compress a dense FC layer by magnitude pruning.
     *
     * @param name layer name.
     * @param dense source layer (unchanged).
     * @param threshold weights with |w| <= threshold are dropped.
     */
    SparseFullyConnected(std::string name, const FullyConnected& dense,
                         float threshold);

    LayerKind kind() const override { return LayerKind::FullyConnected; }
    Shape outputShape(const Shape& in) const override;
    LayerProfile profile(const Shape& in) const override;

    int inFeatures() const { return inFeatures_; }
    int outFeatures() const { return outFeatures_; }

    /** Retained weights / original weights, in (0, 1]. */
    double density() const;

    /** Number of retained (nonzero) weights. */
    std::size_t nonZeros() const { return values_.size(); }

    /**
     * Compressed parameter bytes: CSR values (fp32) + column indices
     * (4 B) + row offsets + bias. (EIE additionally quantizes to 4-bit
     * indices and shared weights; we keep fp32 for numerical
     * comparability with the dense path.)
     */
    std::uint64_t compressedBytes() const;

    void forwardInto(const float* in, const Shape& inShape, float* out,
                     ForwardScratch& scratch,
                     const KernelContext& ctx) const override;

  private:
    int inFeatures_;
    int outFeatures_;
    std::vector<float> values_;        ///< nonzero weights.
    std::vector<std::uint32_t> cols_;  ///< column of each value.
    std::vector<std::uint32_t> rowPtr_; ///< CSR row offsets.
    std::vector<float> bias_;
};

/**
 * Relative output error of pruning a dense layer at the threshold,
 * measured on a probe input: ||dense(x) - sparse(x)|| / ||dense(x)||.
 * Used by tests and the compression ablation.
 */
double pruningError(const FullyConnected& dense, float threshold,
                    const Tensor& probe);

} // namespace ad::nn

#endif // AD_NN_SPARSE_HH
