#include "nn/gemm_int8.hh"

#include <vector>

#include "nn/tensor.hh"

#if defined(__x86_64__) || defined(__amd64__)
#define AD_NN_INT8_X86 1
#include <immintrin.h>
#endif

namespace ad::nn {

namespace {

// k is padded to a multiple of 16 so both the 8-wide SSE2 and the
// 16-wide AVX2 inner loops run without a scalar tail; padded lanes are
// zero and contribute nothing to the exact integer sums.
constexpr std::size_t kStep = 16;

// Row grain for sharding M across the pool (same rationale as the
// fp32 kernel: chunks never get fewer rows than this).
constexpr std::size_t rowGrain = 8;

/**
 * One row range of C += A * B^T over padded int16 operands: aPack is
 * m x kPad row-major, bt is n x kPad row-major (B transposed), so
 * every output element is one contiguous dot product.
 */
using RowRangeFn = void (*)(std::size_t rowLo, std::size_t rowHi,
                            std::size_t n, std::size_t kPad,
                            const std::int16_t* aPack,
                            const std::int16_t* bt, std::int32_t* c);

/** Dot product over int8-range int16 operands. */
using DotFn = std::int32_t (*)(const std::int16_t* a,
                               const std::int16_t* b, std::size_t k);

void
rowRangeScalar(std::size_t rowLo, std::size_t rowHi, std::size_t n,
               std::size_t kPad, const std::int16_t* aPack,
               const std::int16_t* bt, std::int32_t* c)
{
    for (std::size_t i = rowLo; i < rowHi; ++i) {
        const std::int16_t* ar = aPack + i * kPad;
        for (std::size_t j = 0; j < n; ++j) {
            const std::int16_t* bc = bt + j * kPad;
            std::int32_t acc = 0;
            for (std::size_t kk = 0; kk < kPad; ++kk)
                acc += static_cast<std::int32_t>(ar[kk]) * bc[kk];
            c[i * n + j] += acc;
        }
    }
}

std::int32_t
dotScalar(const std::int16_t* a, const std::int16_t* b, std::size_t k)
{
    std::int32_t acc = 0;
    for (std::size_t kk = 0; kk < k; ++kk)
        acc += static_cast<std::int32_t>(a[kk]) * b[kk];
    return acc;
}

#if AD_NN_INT8_X86

/** Horizontal sum of four int32 lanes (SSE2). */
inline std::int32_t
hsum128(__m128i v)
{
    __m128i hi = _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2));
    v = _mm_add_epi32(v, hi);
    hi = _mm_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1));
    v = _mm_add_epi32(v, hi);
    return _mm_cvtsi128_si32(v);
}

// The SSE2 micro-kernel: 4 output columns share each A load; pmaddwd
// retires 8 widening MACs per instruction (pairs summed into 4 int32
// lanes). int8-range operands cannot overflow the pairwise int32 sum
// (127 * 127 * 2 << 2^31) and the running sums stay exact for any
// practical k, so the result is bit-identical to the scalar kernel.
void
rowRangeSse2(std::size_t rowLo, std::size_t rowHi, std::size_t n,
             std::size_t kPad, const std::int16_t* aPack,
             const std::int16_t* bt, std::int32_t* c)
{
    for (std::size_t i = rowLo; i < rowHi; ++i) {
        const std::int16_t* ar = aPack + i * kPad;
        std::size_t j = 0;
        for (; j + 4 <= n; j += 4) {
            const std::int16_t* b0 = bt + j * kPad;
            const std::int16_t* b1 = b0 + kPad;
            const std::int16_t* b2 = b1 + kPad;
            const std::int16_t* b3 = b2 + kPad;
            __m128i s0 = _mm_setzero_si128();
            __m128i s1 = s0;
            __m128i s2 = s0;
            __m128i s3 = s0;
            for (std::size_t kk = 0; kk < kPad; kk += 8) {
                const __m128i va = _mm_loadu_si128(
                    reinterpret_cast<const __m128i*>(ar + kk));
                s0 = _mm_add_epi32(
                    s0, _mm_madd_epi16(va, _mm_loadu_si128(
                        reinterpret_cast<const __m128i*>(b0 + kk))));
                s1 = _mm_add_epi32(
                    s1, _mm_madd_epi16(va, _mm_loadu_si128(
                        reinterpret_cast<const __m128i*>(b1 + kk))));
                s2 = _mm_add_epi32(
                    s2, _mm_madd_epi16(va, _mm_loadu_si128(
                        reinterpret_cast<const __m128i*>(b2 + kk))));
                s3 = _mm_add_epi32(
                    s3, _mm_madd_epi16(va, _mm_loadu_si128(
                        reinterpret_cast<const __m128i*>(b3 + kk))));
            }
            c[i * n + j] += hsum128(s0);
            c[i * n + j + 1] += hsum128(s1);
            c[i * n + j + 2] += hsum128(s2);
            c[i * n + j + 3] += hsum128(s3);
        }
        for (; j < n; ++j) {
            const std::int16_t* bc = bt + j * kPad;
            std::int32_t acc = 0;
            for (std::size_t kk = 0; kk < kPad; ++kk)
                acc += static_cast<std::int32_t>(ar[kk]) * bc[kk];
            c[i * n + j] += acc;
        }
    }
}

std::int32_t
dotSse2(const std::int16_t* a, const std::int16_t* b, std::size_t k)
{
    __m128i s = _mm_setzero_si128();
    std::size_t kk = 0;
    for (; kk + 8 <= k; kk += 8) {
        const __m128i va = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(a + kk));
        const __m128i vb = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(b + kk));
        s = _mm_add_epi32(s, _mm_madd_epi16(va, vb));
    }
    std::int32_t acc = hsum128(s);
    for (; kk < k; ++kk)
        acc += static_cast<std::int32_t>(a[kk]) * b[kk];
    return acc;
}

// AVX2 variants: 16 int16 lanes per pmaddwd. Compiled with a target
// attribute so the binary stays runnable on baseline x86-64; the
// dispatcher below only selects them when the CPU reports AVX2.
__attribute__((target("avx2"))) void
rowRangeAvx2(std::size_t rowLo, std::size_t rowHi, std::size_t n,
             std::size_t kPad, const std::int16_t* aPack,
             const std::int16_t* bt, std::int32_t* c)
{
    for (std::size_t i = rowLo; i < rowHi; ++i) {
        const std::int16_t* ar = aPack + i * kPad;
        std::size_t j = 0;
        for (; j + 4 <= n; j += 4) {
            const std::int16_t* b0 = bt + j * kPad;
            const std::int16_t* b1 = b0 + kPad;
            const std::int16_t* b2 = b1 + kPad;
            const std::int16_t* b3 = b2 + kPad;
            __m256i s0 = _mm256_setzero_si256();
            __m256i s1 = s0;
            __m256i s2 = s0;
            __m256i s3 = s0;
            for (std::size_t kk = 0; kk < kPad; kk += 16) {
                const __m256i va = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(ar + kk));
                s0 = _mm256_add_epi32(
                    s0, _mm256_madd_epi16(va, _mm256_loadu_si256(
                        reinterpret_cast<const __m256i*>(b0 + kk))));
                s1 = _mm256_add_epi32(
                    s1, _mm256_madd_epi16(va, _mm256_loadu_si256(
                        reinterpret_cast<const __m256i*>(b1 + kk))));
                s2 = _mm256_add_epi32(
                    s2, _mm256_madd_epi16(va, _mm256_loadu_si256(
                        reinterpret_cast<const __m256i*>(b2 + kk))));
                s3 = _mm256_add_epi32(
                    s3, _mm256_madd_epi16(va, _mm256_loadu_si256(
                        reinterpret_cast<const __m256i*>(b3 + kk))));
            }
            const __m128i t0 = _mm_add_epi32(
                _mm256_castsi256_si128(s0),
                _mm256_extracti128_si256(s0, 1));
            const __m128i t1 = _mm_add_epi32(
                _mm256_castsi256_si128(s1),
                _mm256_extracti128_si256(s1, 1));
            const __m128i t2 = _mm_add_epi32(
                _mm256_castsi256_si128(s2),
                _mm256_extracti128_si256(s2, 1));
            const __m128i t3 = _mm_add_epi32(
                _mm256_castsi256_si128(s3),
                _mm256_extracti128_si256(s3, 1));
            c[i * n + j] += hsum128(t0);
            c[i * n + j + 1] += hsum128(t1);
            c[i * n + j + 2] += hsum128(t2);
            c[i * n + j + 3] += hsum128(t3);
        }
        for (; j < n; ++j) {
            const std::int16_t* bc = bt + j * kPad;
            std::int32_t acc = 0;
            for (std::size_t kk = 0; kk < kPad; ++kk)
                acc += static_cast<std::int32_t>(ar[kk]) * bc[kk];
            c[i * n + j] += acc;
        }
    }
}

__attribute__((target("avx2"))) std::int32_t
dotAvx2(const std::int16_t* a, const std::int16_t* b, std::size_t k)
{
    __m256i s = _mm256_setzero_si256();
    std::size_t kk = 0;
    for (; kk + 16 <= k; kk += 16) {
        const __m256i va = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(a + kk));
        const __m256i vb = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(b + kk));
        s = _mm256_add_epi32(s, _mm256_madd_epi16(va, vb));
    }
    std::int32_t acc = hsum128(_mm_add_epi32(
        _mm256_castsi256_si128(s), _mm256_extracti128_si256(s, 1)));
    for (; kk < k; ++kk)
        acc += static_cast<std::int32_t>(a[kk]) * b[kk];
    return acc;
}

// VNNI byte lanes: 64 u8/s8 per zmm, so k pads to a multiple of 64.
constexpr std::size_t kStepVnni = 64;

// _mm512_reduce_add_epi32 expands through _mm512_extracti64x4_epi64,
// whose _mm256_undefined_si256() trips a false-positive
// -Wmaybe-uninitialized in GCC's own header; silence it for the two
// kernels below.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"

// The VNNI micro-kernel consumes the biased-u8 A pack and the s8
// transposed B pack. vpdpbusd multiplies u8 x s8 pairs (each i16
// product fits: 255*127 = 32385, 255*-128 = -32640), sums four of
// them sign-extended into each int32 lane and accumulates without
// saturation -- vpdpbusds, the saturating sibling, would NOT be exact.
// Per element: sum((a+128) * b) = sum(a*b) + 128 * colSum, so
// subtracting 128 * colSum[j] recovers the exact signed dot product.
// Pad lanes hold a=128 (bias of zero) against b=0: no contribution.
__attribute__((target("avx512f,avx512bw,avx512vnni"))) void
rowRangeVnni(std::size_t rowLo, std::size_t rowHi, std::size_t n,
             std::size_t kPad, const std::uint8_t* aPack,
             const std::int8_t* bt, const std::int32_t* colSum,
             std::int32_t* c)
{
    for (std::size_t i = rowLo; i < rowHi; ++i) {
        const std::uint8_t* ar = aPack + i * kPad;
        std::size_t j = 0;
        for (; j + 4 <= n; j += 4) {
            const std::int8_t* b0 = bt + j * kPad;
            const std::int8_t* b1 = b0 + kPad;
            const std::int8_t* b2 = b1 + kPad;
            const std::int8_t* b3 = b2 + kPad;
            __m512i s0 = _mm512_setzero_si512();
            __m512i s1 = s0;
            __m512i s2 = s0;
            __m512i s3 = s0;
            for (std::size_t kk = 0; kk < kPad; kk += kStepVnni) {
                const __m512i va = _mm512_loadu_si512(ar + kk);
                s0 = _mm512_dpbusd_epi32(
                    s0, va, _mm512_loadu_si512(b0 + kk));
                s1 = _mm512_dpbusd_epi32(
                    s1, va, _mm512_loadu_si512(b1 + kk));
                s2 = _mm512_dpbusd_epi32(
                    s2, va, _mm512_loadu_si512(b2 + kk));
                s3 = _mm512_dpbusd_epi32(
                    s3, va, _mm512_loadu_si512(b3 + kk));
            }
            c[i * n + j] +=
                _mm512_reduce_add_epi32(s0) - 128 * colSum[j];
            c[i * n + j + 1] +=
                _mm512_reduce_add_epi32(s1) - 128 * colSum[j + 1];
            c[i * n + j + 2] +=
                _mm512_reduce_add_epi32(s2) - 128 * colSum[j + 2];
            c[i * n + j + 3] +=
                _mm512_reduce_add_epi32(s3) - 128 * colSum[j + 3];
        }
        for (; j < n; ++j) {
            const std::int8_t* bc = bt + j * kPad;
            __m512i s = _mm512_setzero_si512();
            for (std::size_t kk = 0; kk < kPad; kk += kStepVnni)
                s = _mm512_dpbusd_epi32(
                    s, _mm512_loadu_si512(ar + kk),
                    _mm512_loadu_si512(bc + kk));
            c[i * n + j] +=
                _mm512_reduce_add_epi32(s) - 128 * colSum[j];
        }
    }
}

// gemv stays on the pre-widened int16 layout; vpdpwssd retires two
// int16 x int16 MACs per int32 lane per instruction across 32 lanes.
// Exact (non-saturating) accumulation, so bit-identical to scalar.
__attribute__((target("avx512f,avx512bw,avx512vnni"))) std::int32_t
dotVnni(const std::int16_t* a, const std::int16_t* b, std::size_t k)
{
    __m512i s = _mm512_setzero_si512();
    std::size_t kk = 0;
    for (; kk + 32 <= k; kk += 32) {
        const __m512i va = _mm512_loadu_si512(a + kk);
        const __m512i vb = _mm512_loadu_si512(b + kk);
        s = _mm512_dpwssd_epi32(s, va, vb);
    }
    std::int32_t acc = _mm512_reduce_add_epi32(s);
    for (; kk < k; ++kk)
        acc += static_cast<std::int32_t>(a[kk]) * b[kk];
    return acc;
}

#pragma GCC diagnostic pop

#endif // AD_NN_INT8_X86

RowRangeFn
rowRangeForTier(IsaTier t)
{
#if AD_NN_INT8_X86
    switch (t) {
      case IsaTier::Scalar: return rowRangeScalar;
      case IsaTier::Sse2: return rowRangeSse2;
      default: return rowRangeAvx2;
    }
#else
    (void)t;
    return rowRangeScalar;
#endif
}

DotFn
dotForTier(IsaTier t)
{
#if AD_NN_INT8_X86
    switch (t) {
      case IsaTier::Scalar: return dotScalar;
      case IsaTier::Sse2: return dotSse2;
      case IsaTier::Avx2: return dotAvx2;
      case IsaTier::Avx512Vnni: return dotVnni;
    }
    return dotScalar;
#else
    (void)t;
    return dotScalar;
#endif
}

} // namespace

void
gemmInt8(std::size_t m, std::size_t n, std::size_t k,
         const std::int16_t* a, const std::int8_t* b, std::int32_t* c,
         const KernelContext& ctx)
{
    if (m == 0 || n == 0 || k == 0)
        return;
    const IsaTier tier = kernelIsaTier();

#if AD_NN_INT8_X86
    if (tier == IsaTier::Avx512Vnni) {
        // VNNI packing: A biased into u8 (pad lanes 128 = biased
        // zero), B transposed s8 (pad 0), plus per-column sums of B
        // for the exact +128 bias correction.
        const std::size_t kPad =
            (k + kStepVnni - 1) / kStepVnni * kStepVnni;
        static thread_local std::vector<std::uint8_t> aPackU8;
        static thread_local std::vector<std::int8_t> btPackS8;
        static thread_local std::vector<std::int32_t> colSum;
        scratchAssign(aPackU8, m * kPad, std::uint8_t{128});
        scratchAssign(btPackS8, n * kPad, std::int8_t{0});
        scratchAssign(colSum, n, std::int32_t{0});
        std::uint8_t* aData = aPackU8.data();
        std::int8_t* btData = btPackS8.data();
        std::int32_t* sums = colSum.data();

        for (std::size_t i = 0; i < m; ++i)
            for (std::size_t kk = 0; kk < k; ++kk)
                aData[i * kPad + kk] = static_cast<std::uint8_t>(
                    a[i * k + kk] + 128);

        kernelParallelFor(
            ctx, 0, n, 64, [&, btData, sums](std::size_t lo,
                                             std::size_t hi) {
                for (std::size_t j = lo; j < hi; ++j) {
                    std::int32_t s = 0;
                    for (std::size_t kk = 0; kk < k; ++kk) {
                        const std::int8_t v = b[kk * n + j];
                        btData[j * kPad + kk] = v;
                        s += v;
                    }
                    sums[j] = s;
                }
            });

        kernelParallelFor(ctx, 0, m, rowGrain,
                          [=](std::size_t lo, std::size_t hi) {
                              rowRangeVnni(lo, hi, n, kPad, aData,
                                           btData, sums, c);
                          });
        return;
    }
#endif // AD_NN_INT8_X86

    const std::size_t kPad = (k + kStep - 1) / kStep * kStep;

    // Both packed operands belong to the calling thread; workers only
    // read them through raw pointers (thread_locals are not captured
    // by lambdas), and kernelParallelFor joins before the next resize.
    static thread_local std::vector<std::int16_t> aPack;
    static thread_local std::vector<std::int16_t> btPack;
    scratchAssign(aPack, m * kPad, std::int16_t{0});
    scratchAssign(btPack, n * kPad, std::int16_t{0});
    std::int16_t* aData = aPack.data();
    std::int16_t* btData = btPack.data();

    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t kk = 0; kk < k; ++kk)
            aData[i * kPad + kk] = a[i * k + kk];

    // Transpose + widen B so every output element is one contiguous
    // dot product; bt rows are disjoint pure writes, so they shard.
    kernelParallelFor(ctx, 0, n, 64,
                      [&, btData](std::size_t lo, std::size_t hi) {
                          for (std::size_t j = lo; j < hi; ++j)
                              for (std::size_t kk = 0; kk < k; ++kk)
                                  btData[j * kPad + kk] = b[kk * n + j];
                      });

    const RowRangeFn rows = rowRangeForTier(tier);
    kernelParallelFor(ctx, 0, m, rowGrain,
                      [=](std::size_t lo, std::size_t hi) {
                          rows(lo, hi, n, kPad, aData, btData, c);
                      });
}

void
gemmInt8Naive(std::size_t m, std::size_t n, std::size_t k,
              const std::int8_t* a, const std::int8_t* b,
              std::int32_t* c)
{
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            std::int32_t acc = c[i * n + j];
            for (std::size_t kk = 0; kk < k; ++kk)
                acc += static_cast<std::int32_t>(a[i * k + kk]) *
                       b[kk * n + j];
            c[i * n + j] = acc;
        }
    }
}

void
gemvInt8(std::size_t m, std::size_t k, const std::int16_t* a,
         const std::int16_t* x, std::int32_t* y, const KernelContext& ctx)
{
    const DotFn dot = dotForTier(kernelIsaTier());
    kernelParallelFor(ctx, 0, m, 64,
                      [=](std::size_t lo, std::size_t hi) {
                          for (std::size_t i = lo; i < hi; ++i)
                              y[i] += dot(a + i * k, x, k);
                      });
}

} // namespace ad::nn
