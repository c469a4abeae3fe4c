#include "nn/sparse.hh"

#include <cmath>

#include "common/logging.hh"

namespace ad::nn {

SparseFullyConnected::SparseFullyConnected(std::string name,
                                           const FullyConnected& dense,
                                           float threshold)
    : Layer(std::move(name)), inFeatures_(dense.inFeatures()),
      outFeatures_(dense.outFeatures()), bias_(dense.bias())
{
    if (threshold < 0)
        fatal("SparseFullyConnected: threshold must be non-negative");
    const auto& w = dense.weights();
    rowPtr_.reserve(outFeatures_ + 1);
    rowPtr_.push_back(0);
    for (int r = 0; r < outFeatures_; ++r) {
        const float* row =
            w.data() + static_cast<std::size_t>(r) * inFeatures_;
        for (int c = 0; c < inFeatures_; ++c) {
            if (std::fabs(row[c]) > threshold) {
                values_.push_back(row[c]);
                cols_.push_back(static_cast<std::uint32_t>(c));
            }
        }
        rowPtr_.push_back(static_cast<std::uint32_t>(values_.size()));
    }
}

Shape
SparseFullyConnected::outputShape(const Shape& in) const
{
    if (static_cast<int>(in.elements()) != inFeatures_)
        panic("SparseFullyConnected ", name(), ": expected ",
              inFeatures_, " inputs, got ", in.elements());
    return {outFeatures_, 1, 1};
}

void
SparseFullyConnected::forwardInto(const float* in, const Shape& inShape,
                                  float* out, ForwardScratch&,
                                  const KernelContext& ctx) const
{
    outputShape(inShape);
    // CSR rows write disjoint outputs and each row reduces in index
    // order, so sharding over rows keeps results bitwise-serial.
    kernelParallelFor(
        ctx, 0, static_cast<std::size_t>(outFeatures_), 64,
        [&](std::size_t lo, std::size_t hi) {
            for (std::size_t r = lo; r < hi; ++r) {
                float acc = bias_[r];
                const std::uint32_t end = rowPtr_[r + 1];
                for (std::uint32_t i = rowPtr_[r]; i < end; ++i)
                    acc += values_[i] * in[cols_[i]];
                out[r] = acc;
            }
        });
}

LayerProfile
SparseFullyConnected::profile(const Shape& in) const
{
    const Shape out = outputShape(in);
    LayerProfile p;
    p.name = name();
    p.kind = kind();
    p.flops = 2ULL * values_.size();
    p.weightBytes = compressedBytes();
    p.inputBytes = in.bytes();
    p.outputBytes = out.bytes();
    return p;
}

double
SparseFullyConnected::density() const
{
    const double total =
        static_cast<double>(inFeatures_) * outFeatures_;
    return total > 0 ? values_.size() / total : 0.0;
}

std::uint64_t
SparseFullyConnected::compressedBytes() const
{
    return values_.size() * (sizeof(float) + sizeof(std::uint32_t)) +
           rowPtr_.size() * sizeof(std::uint32_t) +
           bias_.size() * sizeof(float);
}

double
pruningError(const FullyConnected& dense, float threshold,
             const Tensor& probe)
{
    const Tensor exact = dense.forward(probe);
    const SparseFullyConnected sparse("probe", dense, threshold);
    const Tensor approx = sparse.forward(probe);
    double num = 0;
    double den = 0;
    for (std::size_t i = 0; i < exact.size(); ++i) {
        const double d = exact.data()[i] - approx.data()[i];
        num += d * d;
        den += exact.data()[i] * static_cast<double>(exact.data()[i]);
    }
    if (den <= 0)
        return num > 0 ? 1.0 : 0.0;
    return std::sqrt(num / den);
}

} // namespace ad::nn
