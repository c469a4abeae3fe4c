/**
 * @file
 * Single-precision matrix multiplication and convolution kernels. A
 * convolution runs as an implicit GEMM: the kernel reads its B operand
 * (the input taps) straight from the input tensor, so no unfolded
 * matrix is written. The paper finds the DNN portion is 99%+ of DET
 * and TRA cycles, which makes this the hottest loop in the repository.
 *
 * One fp32 driver serves both entry points. It holds a register tile
 * (MR output rows x NV SIMD vectors of output columns) for all of k and
 * stores it once, applying a convolution's bias and fused leaky ReLU on
 * the way out. The tile comes from the ISA tier in effect (nn/isa.hh:
 * scalar, SSE2 4x8, AVX2 4x16, AVX-512F 8x32) and is sized to the shape:
 * the row count follows m, and a column tile narrower than the full
 * width runs the fewest vectors that cover it, with a partial store.
 * Tiles of output columns, times blocks of output rows, are sharded
 * across the KernelContext as disjoint writes.
 *
 * Bitwise determinism: every output element starts at +0.0f (gemm:
 * at its C value) and adds the rounded product of each A and B pair
 * in ascending k, as one rounded multiply and one rounded add (the
 * kernel file is compiled with -ffp-contract=off, so no FMA fuses
 * them). Neither the tier, the tile, the thread count nor the mode of
 * reading B changes any of those operations, so every combination
 * produces the same bits as gemmBlockedReference (DESIGN.md, "Parallel
 * NN kernel layer").
 */

#ifndef AD_NN_GEMM_HH
#define AD_NN_GEMM_HH

#include <cstddef>
#include <vector>

#include "nn/kernel_context.hh"

namespace ad::nn {

/**
 * C += A * B for row-major matrices: B is packed into tile-width
 * panels, then each register tile starts from its C values. Sharded
 * over ctx when it is parallel.
 *
 * @param m rows of A and C.
 * @param n columns of B and C.
 * @param k columns of A / rows of B.
 * @param a m x k matrix.
 * @param b k x n matrix.
 * @param c m x n accumulator (not cleared).
 * @param ctx kernel execution context (serial by default).
 *
 * Bitwise-deterministic: each C element is accumulated in ascending-k
 * order whatever the tier or thread count, so any ctx produces the
 * identical result, which also equals gemmBlockedReference / gemmNaive
 * (same summation order).
 */
void gemm(std::size_t m, std::size_t n, std::size_t k,
          const float* a, const float* b, float* c,
          const KernelContext& ctx = KernelContext::serial());

/** Geometry of one convolution over a CHW input, square kernel. */
struct ConvGeometry
{
    int inC = 0;    ///< input channels.
    int inH = 0;    ///< input height.
    int inW = 0;    ///< input width.
    int kernel = 1; ///< kernel size.
    int stride = 1; ///< spatial stride.
    int pad = 0;    ///< symmetric zero padding.
    int outH = 0;   ///< output height.
    int outW = 0;   ///< output width.
};

/**
 * What a convolution's tile store applies to output channel oc:
 * v = sum + bias[oc], skipped when bias[oc] == 0.0f (adding +0.0f
 * would turn a -0.0f sum into +0.0f), then, when `activation` is set,
 * the leaky select v > 0 ? v : slope * v.
 */
struct ConvEpilogue
{
    const float* bias = nullptr; ///< one entry per output channel.
    bool activation = false;     ///< fused leaky ReLU.
    float slope = 0.0f;          ///< its negative slope (0 = ReLU).
};

/**
 * Buffers a convolution reuses across calls. They grow through
 * scratchAssign / scratchResize, so a planned forward allocates only
 * on its warm-up pass.
 */
struct ConvScratch
{
    std::vector<float> source;        ///< padded input or B panels.
    std::vector<std::ptrdiff_t> taps; ///< offset of each B row.
};

/**
 * Convolve `in` (g.inC x g.inH x g.inW) with `outC` filters of
 * g.inC x kernel x kernel weights (row-major [oc][c][ky][kx]) into
 * `out` (outC x g.outH x g.outW), as one implicit GEMM. Output
 * (oc, oy, ox) starts at +0.0f, adds w * x for every tap in ascending
 * (c, ky, kx) order -- a padding tap multiplies w by 0.0f -- and is
 * stored through `ep`.
 *
 * B is read in one of two ways, chosen from the geometry and the tile
 * width: a stride-1 layer whose output rows fill a full tile reads its
 * input rows in place from a zero-padded copy (with slack after each
 * row, so full-width vector loads stay in bounds); every other layer
 * packs tile-width panels straight from the input. A 1x1/s1/p0 layer
 * needs no copy: its full panels are the input planes themselves, and
 * only a partial last panel is packed. At most one copy of the input
 * taps is made, and `out` is written once.
 */
void convImplicitGemm(const ConvGeometry& g, std::size_t outC,
                      const float* weights, const ConvEpilogue& ep,
                      const float* in, float* out, ConvScratch& scratch,
                      const KernelContext& ctx);

/**
 * The pre-parallel blocked i-k-j kernel (the seed implementation),
 * kept as the performance baseline for bench_micro_kernels and as a
 * bitwise reference for the tiled kernel's determinism tests.
 */
void gemmBlockedReference(std::size_t m, std::size_t n, std::size_t k,
                          const float* a, const float* b, float* c);

/**
 * Reference implementation (naive triple loop) used by the test suite
 * to validate gemm() over random shapes.
 */
void gemmNaive(std::size_t m, std::size_t n, std::size_t k,
               const float* a, const float* b, float* c);

/**
 * y += A * x for row-major A (m x k); the fully connected layer core.
 * Rows shard across ctx; each row's reduction order is fixed, so the
 * result is bitwise-deterministic for any thread count.
 */
void gemv(std::size_t m, std::size_t k, const float* a, const float* x,
          float* y, const KernelContext& ctx = KernelContext::serial());

} // namespace ad::nn

#endif // AD_NN_GEMM_HH
