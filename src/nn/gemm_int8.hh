/**
 * @file
 * Reduced-precision (int8 x int8 -> int32) matrix and convolution
 * kernels -- the CPU reproduction of the precision corner of the
 * paper's accelerator study. The ASIC/FPGA designs in Section 4.2 get
 * much of their win from narrow arithmetic; these kernels realize the
 * same trade on the host: four 8-bit products per 32-bit lane.
 *
 * An int8 convolution is one implicit GEMM, the twin of the fp32
 * convImplicitGemm (nn/gemm.hh). Its single input pass quantizes the
 * fp32 activations (x * (1 / sIn), rounded half away from zero and
 * clamped to [-127, 127]), adds 128 and writes them as u8 channel
 * quads: one 32-bit word holds channels 4q..4q+3 of one pixel. The
 * weights were packed once, at quantization, into s8 quads of the
 * same channels, with a per-channel correction 128 * sum(w). A
 * register tile of MR output channels x NV vectors of output columns
 * accumulates exact int32 sums over every quad of the filter, and is
 * stored once as float(acc - corr) * (sIn * sW[oc]) + bias[oc],
 * followed by the fused leaky select.
 *
 * Layouts. B (the quantized input) is read in place from a copy padded
 * with biased zeros (byte 128) when the layer has stride 1 and output
 * rows at least 16 wide; every other layer (TRA's 11x11/s4 stem, DET's
 * 10- and 5-wide conv5/conv6) gathers tile-width panels from that copy.
 * A 1x1/s1/p0 layer is run as a convolution over one long row, so it
 * reads in place too.
 *
 * Exactness. Each tier forms the same integer products: the AVX-512
 * VNNI tier with vpdpbusd (u8 x s8, four products per int32 lane, no
 * saturation); the AVX2, SSE2 and scalar tiers widen the bytes to
 * int16 and use pmaddwd (two products per lane, exact). pmaddubsw is
 * never used: it saturates the sum of two u8 x s8 products to int16,
 * and 2 * 255 * 127 does not fit. The +128 bias makes every activation
 * byte non-negative for vpdpbusd; subtracting 128 * sum(w) removes it
 * exactly (padding taps hold 128, the biased zero, so the correction
 * covers them too). The int32 sums are exact for k below 66,000, so
 * every tier, tile and thread count yields the same integers, and the
 * store performs one conversion, one multiply and one add per element
 * in a file compiled with -ffp-contract=off: the outputs are
 * bit-identical across tiers and thread counts (DESIGN.md, "Quantized
 * inference").
 *
 * Dispatch tiers: scalar -> SSE2 -> AVX2 -> AVX-512-VNNI, resolved by
 * the ladder the fp32 kernels share (nn/isa.hh). The AD_FORCE_ISA
 * environment variable (scalar/sse2/avx2/avx512vnni) pins the tier of
 * both precisions for A/B runs and the CI cross-ISA legs.
 */

#ifndef AD_NN_GEMM_INT8_HH
#define AD_NN_GEMM_INT8_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/gemm.hh"
#include "nn/isa.hh"
#include "nn/kernel_context.hh"

namespace ad::nn {

/**
 * C += A * B for row-major int8-range matrices, int32 accumulation.
 * Runs through the convolution's register tiles: A is packed into s8
 * quads, B into tile-width panels of biased u8 quads, and each tile
 * adds its exact sums to C.
 *
 * @param m rows of A and C.
 * @param n columns of B and C.
 * @param k columns of A / rows of B (below 66,000).
 * @param a m x k int8 matrix, values in [-127, 127].
 * @param b k x n int8 matrix, values in [-127, 127].
 * @param c m x n int32 accumulator (not cleared).
 * @param ctx kernel execution context (serial by default).
 *
 * Bitwise-deterministic for any ctx and tier: integer sums are exact
 * and each C element is written by exactly one tile.
 */
void gemmInt8(std::size_t m, std::size_t n, std::size_t k,
              const std::int8_t* a, const std::int8_t* b,
              std::int32_t* c,
              const KernelContext& ctx = KernelContext::serial());

/**
 * Reference int8 GEMM (naive triple loop, int32 accumulation) used by
 * the test suite to validate gemmInt8 over random shapes. Exact: the
 * SIMD kernel must match it bit for bit.
 */
void gemmInt8Naive(std::size_t m, std::size_t n, std::size_t k,
                   const std::int8_t* a, const std::int8_t* b,
                   std::int32_t* c);

/**
 * y += A * x for row-major int8-range A (m x k) pre-widened to int16;
 * the quantized fully connected core. x is likewise pre-widened by the
 * caller (one O(k) pass). Rows shard across ctx; exact integer sums
 * make the result bitwise-deterministic for any thread count.
 */
void gemvInt8(std::size_t m, std::size_t k, const std::int16_t* a,
              const std::int16_t* x, std::int32_t* y,
              const KernelContext& ctx = KernelContext::serial());

/**
 * The filters of one int8 convolution in the register tile's layout:
 * row oc holds one word per (channel quad q, ky, kx), in that order,
 * whose bytes are the s8 weights of channels 4q..4q+3 (0 past the last
 * channel).
 */
struct Int8ConvWeights
{
    std::size_t outC = 0;             ///< output channels (rows).
    std::size_t taps = 0;             ///< words per row.
    std::vector<std::uint32_t> words; ///< outC x taps s8 quads.
    std::vector<std::int32_t> corr;   ///< 128 * sum of each row.
};

/**
 * Pack `outC` filters of inC x kernel x kernel int8 weights
 * (row-major [oc][c][ky][kx], values in [-127, 127]) into quads.
 */
Int8ConvWeights packInt8ConvWeights(const std::int8_t* weights,
                                    std::size_t outC, int inC,
                                    int kernel);

/**
 * What an int8 convolution's tile store applies to output channel oc:
 * v = float(sum) * scale[oc] + bias[oc] (both always applied), then,
 * when `activation` is set, v > 0 ? v : slope * v.
 */
struct Int8ConvEpilogue
{
    const float* scale = nullptr; ///< sIn * sW[oc] per output channel.
    const float* bias = nullptr;  ///< one entry per output channel.
    bool activation = false;      ///< fused leaky ReLU.
    float slope = 0.0f;           ///< its negative slope (0 = ReLU).
};

/** Buffers an int8 convolution reuses across calls (see ConvScratch). */
struct Int8ConvScratch
{
    std::vector<std::uint32_t> quads;  ///< padded quantized input.
    std::vector<std::uint32_t> panels; ///< B panels (packed layers).
    std::vector<std::ptrdiff_t> taps;  ///< offset of each B row.
};

/**
 * Quantize `in` (g.inC x g.inH x g.inW fp32) at `inputScale` and
 * convolve it with the packed filters into `out` (w.outC x g.outH x
 * g.outW fp32) as one implicit GEMM. Output (oc, oy, ox) is the exact
 * int32 sum of q(x) * w over the filter's taps (padding taps count as
 * q = 0), stored through `ep`. q(x) is the value quantize() in
 * nn/quant.hh gives.
 */
void convImplicitGemmInt8(const ConvGeometry& g, const Int8ConvWeights& w,
                          float inputScale, const Int8ConvEpilogue& ep,
                          const float* in, float* out,
                          Int8ConvScratch& scratch,
                          const KernelContext& ctx);

} // namespace ad::nn

#endif // AD_NN_GEMM_INT8_HH
