/**
 * @file
 * Graph-lowering pass for the inference engine: walk a built (and
 * possibly quantized) Network and fuse each conv/FC + following
 * ReLU/LeakyReLU pair into a single layer whose GEMM epilogue applies
 * the activation before the output store. Neither precision's conv
 * needs more: both run as implicit GEMMs that never unfold their
 * input (nn/gemm.hh, nn/gemm_int8.hh).
 *
 * BatchNorm is already folded into conv weights at model build
 * (foldBatchNorm, layers.hh), so Conv2D+BN+LeakyReLU chains arrive
 * here as Conv2D+Activation and leave as one fused layer.
 *
 * The pass is a pure optimization: every lowered network computes
 * bit-identical outputs to the unfused reference at any thread count
 * (each fused epilogue performs the same scalar float operations in
 * the same order as the separate layers; see the fuseActivation docs).
 * The DET and TRA engines always run lowered and planned; an unfused
 * copy of a network, run through Network::forward, is the reference
 * the tests and bench_ext_quant_accuracy compare against.
 *
 * Run order matters: quantize first (calibration indexes the unlowered
 * layer list), then lowerNetwork, then Network::plan.
 */

#ifndef AD_NN_FUSION_HH
#define AD_NN_FUSION_HH

#include "nn/network.hh"

namespace ad::nn {

/** What the pass did, for logs/benches/tests. */
struct LoweringReport
{
    std::size_t fusedActivations = 0;
};

/**
 * Lower `net` in place, checking the chain against the given input
 * shape. Idempotent in effect: already-fused layers are never
 * re-fused (their follower is no longer an Activation).
 */
LoweringReport lowerNetwork(Network& net, const Shape& input);

} // namespace ad::nn

#endif // AD_NN_FUSION_HH
