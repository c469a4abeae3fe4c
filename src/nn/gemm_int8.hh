/**
 * @file
 * Reduced-precision (int8 x int8 -> int32) matrix kernels -- the CPU
 * reproduction of the precision corner of the paper's accelerator
 * study. The ASIC/FPGA designs in Section 4.2 get much of their win
 * from narrow arithmetic; these kernels realize the same trade on the
 * host: 8-bit operands quadruple the values carried per SIMD lane, and
 * the widening multiply-add (pmaddwd) retires two multiply-accumulates
 * per 32-bit lane per instruction, roughly doubling MAC throughput
 * again over fp32 mul+add.
 *
 * Layout contract: operand values are int8-range [-127, 127], but the
 * A (left) operand is passed pre-widened to int16 -- the form the SIMD
 * multiply consumes -- so layers with static weights (conv filters, FC
 * matrices) pay the widening once at quantization time instead of per
 * forward pass. The activation-side operand is packed and widened
 * internally per call, an O(k*n) cost amortized against the O(m*n*k)
 * multiply.
 *
 * Determinism: integer accumulation is exact, so any summation order
 * gives bit-identical int32 results; rows shard across the
 * KernelContext pool as disjoint pure writes. The int8 path is
 * therefore bitwise-deterministic at any thread count by construction,
 * matching the fp32 kernel-layer contract (DESIGN.md, "Quantized
 * inference").
 *
 * Dispatch tiers: scalar -> SSE2 -> AVX2 -> AVX-512-VNNI, resolved by
 * the ladder the fp32 kernels share (nn/isa.hh). The VNNI tier feeds
 * vpdpbusd (u8 x s8, four pairs per int32 lane per instruction) by
 * biasing the signed A operand into u8 (+128) and subtracting
 * 128 * colsum(B) afterwards -- an exact integer correction, so every
 * tier is bit-identical to every other. The AD_FORCE_ISA environment
 * variable (scalar/sse2/avx2/avx512vnni) pins the tier of both
 * precisions for A/B runs and the CI cross-ISA legs.
 */

#ifndef AD_NN_GEMM_INT8_HH
#define AD_NN_GEMM_INT8_HH

#include <cstddef>
#include <cstdint>

#include "nn/isa.hh"
#include "nn/kernel_context.hh"

namespace ad::nn {

/**
 * C += A * B for row-major int8-range matrices, int32 accumulation.
 *
 * @param m rows of A and C.
 * @param n columns of B and C.
 * @param k columns of A / rows of B.
 * @param a m x k, int8-range values pre-widened to int16.
 * @param b k x n int8 matrix (packed/widened internally).
 * @param c m x n int32 accumulator (not cleared).
 * @param ctx kernel execution context (serial by default).
 *
 * Bitwise-deterministic for any ctx: integer sums are exact and each
 * C row is written by exactly one shard.
 */
void gemmInt8(std::size_t m, std::size_t n, std::size_t k,
              const std::int16_t* a, const std::int8_t* b,
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

} // namespace ad::nn

#endif // AD_NN_GEMM_INT8_HH
