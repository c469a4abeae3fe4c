#include "nn/gemm_int8.hh"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/logging.hh"
#include "nn/tensor.hh"

#if defined(__x86_64__) || defined(__amd64__)
#define AD_NN_INT8_X86 1
#include <immintrin.h>
#endif

// This file is compiled with -ffp-contract=off (src/nn/CMakeLists.txt):
// the tile store must round its multiply and its add separately, as
// the scalar dequantize float(acc) * scale + bias does; inside the
// target("avx512f") entry points GCC would otherwise fuse them into
// vfmadd.

namespace ad::nn {

namespace {

/** Four activation bytes at the biased zero (q = 0 stored as 128). */
constexpr std::uint32_t biasedZeros = 0x80808080u;

/**
 * Longest reduction whose biased sums stay exact: |acc| <= 255 * 127 *
 * k must stay below 2^31.
 */
constexpr std::size_t maxExactK = 66000;

/** W int32/uint32/fp32 lanes (GCC/Clang vector extensions). */
template <int W>
struct Lanes
{
    typedef std::int32_t I __attribute__((vector_size(W * 4)));
    typedef std::uint32_t U __attribute__((vector_size(W * 4)));
    typedef float F __attribute__((vector_size(W * 4)));
};

/**
 * x = mask ? a : b, lane by lane, as a bit select. The vector helpers
 * here take and give their vectors by reference: a vector passed by
 * value outside a target function would change the ABI (-Wpsabi).
 */
template <typename F, typename I>
[[gnu::always_inline]] inline void
select(F& x, const I& mask, const F& a, const F& b)
{
    I ai;
    I bi;
    std::memcpy(&ai, &a, sizeof(F));
    std::memcpy(&bi, &b, sizeof(F));
    ai = (mask & ai) | (~mask & bi);
    std::memcpy(&x, &ai, sizeof(F));
}

/**
 * q = clamp(round(x * inv), -127, 127) lane by lane, rounding half away
 * from zero; NaN gives -127 -- the values of quantize() in
 * nn/quant.hh. Clamping first keeps the conversion in range, and
 * y - trunc(y) is exact for |y| <= 127, so the half-way test is exact.
 */
template <int W>
[[gnu::always_inline]] inline void
quantizeLanes(typename Lanes<W>::I& q, const typename Lanes<W>::F& x,
              float inv)
{
    using F = typename Lanes<W>::F;
    F y = x * inv;
    select(y, y > 127.0f, F{} + 127.0f, y);
    select(y, y >= -127.0f, y, F{} - 127.0f);
    q = __builtin_convertvector(y, typename Lanes<W>::I);
    const F frac = y - __builtin_convertvector(q, F);
    q -= frac >= 0.5f; // a true lane is -1.
    q += frac <= -0.5f;
}

/**
 * Quantize n pixels of up to four channel rows (src[j] for j < chans)
 * into u8 quads at dst, each byte q + 128; bytes of channels past
 * `chans` hold the biased zero.
 */
template <int W>
[[gnu::always_inline]] inline void
quantizeQuadRow(const float* const* src, int chans, std::size_t n,
                float inv, std::uint32_t* dst)
{
    using I = typename Lanes<W>::I;
    using U = typename Lanes<W>::U;
    using F = typename Lanes<W>::F;
    std::size_t x = 0;
    for (; x + W <= n; x += W) {
        U word = U{};
#pragma GCC unroll 4
        for (int j = 0; j < 4; ++j) {
            I u = I{} + 128;
            if (j < chans) {
                F v;
                std::memcpy(&v, src[j] + x, sizeof(F));
                quantizeLanes<W>(u, v, inv);
                u += 128;
            }
            word |= (U)u << (8 * j);
        }
        std::memcpy(dst + x, &word, sizeof(U));
    }
    if constexpr (W > 1) {
        if (x < n) {
            const float* rest[4] = {};
            for (int j = 0; j < chans; ++j)
                rest[j] = src[j] + x;
            quantizeQuadRow<1>(rest, chans, n - x, inv, dst + x);
        }
    }
}

/**
 * One register tile: MR rows of A (s8 quads) against NV vectors of B
 * columns (biased u8 quads), accumulated over every tap in int32 and
 * stored once -- added to `sums` (gemmInt8) or dequantized into `out`
 * (a convolution).
 */
struct Tile
{
    std::size_t taps = 0;                 ///< reduction length in words.
    const std::uint32_t* a = nullptr;     ///< A(r, t) = a[r * lda + t].
    std::size_t lda = 0;
    const std::uint32_t* b = nullptr;     ///< B(t, j) = b[bOff[t] + j].
    const std::ptrdiff_t* bOff = nullptr;
    std::size_t cols = 0;                 ///< valid columns, 1..NV*W.
    const std::int32_t* corr = nullptr;   ///< row r subtracts corr[r].
    std::size_t ldc = 0;                  ///< row stride of the output.
    std::int32_t* sums = nullptr;         ///< int32 output, or null.
    float* out = nullptr;                 ///< fp32 output (sums null).
    const float* scale = nullptr;         ///< row r's dequant scale.
    const float* bias = nullptr;          ///< row r's bias.
    bool act = false;                     ///< leaky select before store.
    float slope = 0.0f;
};

/**
 * The micro-kernel every tier runs. Ops supplies the tier's lane count
 * W and its multiply-accumulate: madd(acc, b, a) adds, to each int32
 * lane, the four products of the lane's u8 quad of B with the s8 quad
 * of A. Ops take their vectors by reference (no vector crosses a
 * function boundary by value outside a target function) and are
 * inlined by the `flatten` entry points below, which carry the target
 * attribute, so the same source becomes scalar, SSE2, AVX2 or AVX-512
 * code. Lanes past `cols` compute on whatever B holds there and are
 * never stored.
 */
template <class Ops, int MR, int NV>
[[gnu::always_inline]] inline void
tileKernel(const Tile& t)
{
    constexpr int W = Ops::W;
    using I = typename Lanes<W>::I;
    using F = typename Lanes<W>::F;
    const std::size_t taps = t.taps;
    const std::uint32_t* a = t.a;
    const std::size_t lda = t.lda;
    const std::uint32_t* b = t.b;
    const std::ptrdiff_t* bOff = t.bOff;
    const std::size_t cols = t.cols;

    I acc[MR][NV];
#pragma GCC unroll 8
    for (int r = 0; r < MR; ++r)
#pragma GCC unroll 2
        for (int v = 0; v < NV; ++v)
            acc[r][v] = I{};

    for (std::size_t tap = 0; tap < taps; ++tap) {
        const std::uint32_t* bRow = b + bOff[tap];
        typename Ops::B bv[NV];
#pragma GCC unroll 2
        for (int v = 0; v < NV; ++v)
            Ops::loadB(bv[v], bRow + v * W);
#pragma GCC unroll 8
        for (int r = 0; r < MR; ++r) {
            typename Ops::A av;
            Ops::loadA(av, a[r * lda + tap]);
#pragma GCC unroll 2
            for (int v = 0; v < NV; ++v)
                Ops::madd(acc[r][v], bv[v], av);
        }
    }

#pragma GCC unroll 8
    for (int r = 0; r < MR; ++r) {
        const std::int32_t corr = t.corr[r];
#pragma GCC unroll 2
        for (int v = 0; v < NV; ++v) {
            const I sum = acc[r][v] - corr;
            const std::size_t lanes = std::min<std::size_t>(W, cols - v * W);
            if (t.sums) {
                std::int32_t* dst = t.sums + r * t.ldc + v * W;
                if (lanes == W) {
                    I c;
                    std::memcpy(&c, dst, sizeof(I));
                    c += sum;
                    std::memcpy(dst, &c, sizeof(I));
                } else {
                    for (std::size_t i = 0; i < lanes; ++i)
                        dst[i] += sum[i];
                }
                continue;
            }
            F x = __builtin_convertvector(sum, F) * t.scale[r] + t.bias[r];
            if (t.act)
                select(x, x > 0.0f, x, F(t.slope * x));
            float* dst = t.out + r * t.ldc + v * W;
            if (lanes == W)
                std::memcpy(dst, &x, sizeof(F));
            else
                for (std::size_t i = 0; i < lanes; ++i)
                    dst[i] = x[i];
        }
    }
}

/** Scalar tier: the four products of a quad, summed in plain C. */
struct ScalarOps
{
    static constexpr int W = 1;
    using A = std::uint32_t;
    using B = std::uint32_t;

    static void loadA(A& a, std::uint32_t word) { a = word; }
    static void loadB(B& b, const std::uint32_t* p) { b = *p; }
    static void
    madd(Lanes<1>::I& acc, const B& b, const A& a)
    {
        std::int32_t s = 0;
        for (int j = 0; j < 4; ++j)
            s += static_cast<std::int32_t>((b >> (8 * j)) & 0xffu) *
                 static_cast<std::int8_t>(a >> (8 * j));
        acc[0] += s;
    }
};

using TileFn = void (*)(const Tile&);
using QuantizeFn = void (*)(const float* const* src, int chans,
                            std::size_t n, float inv, std::uint32_t* dst);

// Largest tile of any tier: MR rows, NV vectors, columns (AVX-512's
// 8 x 2 x 16 lanes).
constexpr int maxTileRows = 8;
constexpr int maxTileVecs = 2;
constexpr std::size_t maxTileCols = 32;

// A stride-1 layer reads its quantized input in place when its output
// rows are at least this wide; narrower rows gather panels, as in the
// fp32 convolution (DET's conv5 and conv6 at 10 and 5 columns).
constexpr std::size_t inPlaceMinWidth = 16;

/** A tier's kernels: fn[mr - 1][nv - 1] is the mr x (nv * w) tile. */
struct TileSet
{
    std::size_t w;       ///< int32 lanes per vector.
    std::size_t mr;      ///< rows of the full tile.
    std::size_t nv;      ///< vectors of the full tile.
    QuantizeFn quantize; ///< the input pass at this tier's width.
    TileFn fn[maxTileRows][maxTileVecs];

    std::size_t cols() const { return w * nv; }
};

template <int MR, int NV>
struct ScalarTile
{
    static void run(const Tile& t) { tileKernel<ScalarOps, MR, NV>(t); }
};

void
quantizeScalar(const float* const* src, int chans, std::size_t n,
               float inv, std::uint32_t* dst)
{
    quantizeQuadRow<1>(src, chans, n, inv, dst);
}

#if AD_NN_INT8_X86

// The pmaddwd tiers (SSE2, 4 lanes; AVX2, 8 lanes) split each quad
// into int16 pairs: B's even bytes (u0, u2) by a mask and its odd
// bytes (u1, u3) by a logical shift; A's bytes are sign-extended the
// same way by arithmetic shifts. Two pmaddwd then give u0*w0 + u2*w2
// and u1*w1 + u3*w3 per lane, exact in int32 (|sum| <= 2 * 255 * 127).

/** acc += pmaddwd(b, a), lane by lane. */
inline void
pmaddwdAdd(Lanes<4>::I& acc, const Lanes<4>::I& b, const Lanes<4>::I& a)
{
    acc += (Lanes<4>::I)_mm_madd_epi16((__m128i)b, (__m128i)a);
}

__attribute__((target("avx2"))) inline void
pmaddwdAdd(Lanes<8>::I& acc, const Lanes<8>::I& b, const Lanes<8>::I& a)
{
    acc += (Lanes<8>::I)_mm256_madd_epi16((__m256i)b, (__m256i)a);
}

template <int Width>
struct PmaddwdOps
{
    static constexpr int W = Width;
    using I = typename Lanes<W>::I;
    typedef std::int16_t S __attribute__((vector_size(W * 4)));
    typedef std::uint16_t US __attribute__((vector_size(W * 4)));
    struct A
    {
        I even;
        I odd;
    };
    using B = A;

    static void
    loadA(A& a, std::uint32_t word)
    {
        const S q = (S)(I{} + static_cast<std::int32_t>(word));
        a.even = (I)((S)(q << 8) >> 8);
        a.odd = (I)(q >> 8);
    }
    static void
    loadB(B& b, const std::uint32_t* p)
    {
        US q;
        std::memcpy(&q, p, sizeof(US));
        b.even = (I)(q & 0xff);
        b.odd = (I)(q >> 8);
    }
    static void
    madd(I& acc, const B& b, const A& a)
    {
        pmaddwdAdd(acc, b.even, a.even);
        pmaddwdAdd(acc, b.odd, a.odd);
    }
};

/**
 * AVX-512 VNNI tier: 16 lanes, vpdpbusd multiplies B's u8 bytes by A's
 * s8 bytes and adds the four products of each lane to its int32
 * accumulator without saturation (vpdpbusds, its saturating sibling,
 * would not be exact).
 */
struct VnniOps
{
    static constexpr int W = 16;
    using A = __m512i;
    using B = __m512i;

    __attribute__((target("avx512f,avx512bw,avx512vnni"))) static void
    loadA(A& a, std::uint32_t word)
    {
        a = _mm512_set1_epi32(static_cast<int>(word));
    }
    __attribute__((target("avx512f,avx512bw,avx512vnni"))) static void
    loadB(B& b, const std::uint32_t* p)
    {
        b = _mm512_loadu_si512(p);
    }
    __attribute__((target("avx512f,avx512bw,avx512vnni"))) static void
    madd(Lanes<16>::I& acc, const B& b, const A& a)
    {
        acc = (Lanes<16>::I)_mm512_dpbusd_epi32((__m512i)acc, b, a);
    }
};

template <int MR, int NV>
struct Sse2Tile
{
    [[gnu::flatten]] static void
    run(const Tile& t)
    {
        tileKernel<PmaddwdOps<4>, MR, NV>(t);
    }
};

template <int MR, int NV>
struct Avx2Tile
{
    __attribute__((target("avx2"), flatten)) static void
    run(const Tile& t)
    {
        tileKernel<PmaddwdOps<8>, MR, NV>(t);
    }
};

template <int MR, int NV>
struct VnniTile
{
    __attribute__((target("avx512f,avx512bw,avx512vnni"), flatten)) static void
    run(const Tile& t)
    {
        tileKernel<VnniOps, MR, NV>(t);
    }
};

void
quantizeSse2(const float* const* src, int chans, std::size_t n,
             float inv, std::uint32_t* dst)
{
    quantizeQuadRow<4>(src, chans, n, inv, dst);
}

__attribute__((target("avx2"))) void
quantizeAvx2(const float* const* src, int chans, std::size_t n,
             float inv, std::uint32_t* dst)
{
    quantizeQuadRow<8>(src, chans, n, inv, dst);
}

__attribute__((target("avx512f,avx512bw,avx512vnni"))) void
quantizeVnni(const float* const* src, int chans, std::size_t n,
             float inv, std::uint32_t* dst)
{
    quantizeQuadRow<16>(src, chans, n, inv, dst);
}

#endif // AD_NN_INT8_X86

template <template <int, int> class T, int... R>
constexpr TileSet
makeTileSet(std::size_t w, QuantizeFn quantize,
            std::integer_sequence<int, R...>)
{
    static_assert(sizeof...(R) <= maxTileRows);
    return {w, sizeof...(R), maxTileVecs, quantize,
            {{&T<R + 1, 1>::run, &T<R + 1, 2>::run}...}};
}

const TileSet&
tilesFor(IsaTier tier)
{
    static const TileSet scalar = makeTileSet<ScalarTile>(
        1, quantizeScalar, std::make_integer_sequence<int, 4>());
#if AD_NN_INT8_X86
    static const TileSet sse2 = makeTileSet<Sse2Tile>(
        4, quantizeSse2, std::make_integer_sequence<int, 4>());
    static const TileSet avx2 = makeTileSet<Avx2Tile>(
        8, quantizeAvx2, std::make_integer_sequence<int, 4>());
    static const TileSet vnni = makeTileSet<VnniTile>(
        16, quantizeVnni, std::make_integer_sequence<int, 8>());
    switch (tier) {
      case IsaTier::Scalar: return scalar;
      case IsaTier::Sse2: return sse2;
      case IsaTier::Avx2: return avx2;
      case IsaTier::Avx512Vnni: return vnni;
    }
#endif
    (void)tier;
    return scalar;
}

std::size_t
ceilDiv(std::size_t a, std::size_t b)
{
    return (a + b - 1) / b;
}

/** Where one column tile's B comes from and which columns it covers. */
struct ColumnTile
{
    const std::uint32_t* b;
    const std::ptrdiff_t* bOff;
    std::size_t col;  ///< first output column.
    std::size_t cols; ///< columns covered.
};

/**
 * Run every (column tile, row block) pair, sharded over ctx as
 * disjoint writes: unit u is column tile u / rowBlocks against row
 * block u % rowBlocks, so consecutive units reuse one column tile's B.
 */
template <typename ColumnFn>
void
runTiles(const TileSet& ts, std::size_t m, std::size_t columnTiles,
         const Tile& proto, const ColumnFn& column,
         const KernelContext& ctx)
{
    const std::size_t rowBlocks = ceilDiv(m, ts.mr);
    kernelParallelFor(
        ctx, 0, columnTiles * rowBlocks, 1,
        [&](std::size_t lo, std::size_t hi) {
            Tile t = proto;
            for (std::size_t u = lo; u < hi; ++u) {
                const ColumnTile ct = column(u / rowBlocks);
                const std::size_t i0 = u % rowBlocks * ts.mr;
                const std::size_t mr = std::min(ts.mr, m - i0);
                const std::size_t at = i0 * proto.ldc + ct.col;
                t.a = proto.a + i0 * proto.lda;
                t.b = ct.b;
                t.bOff = ct.bOff;
                t.cols = ct.cols;
                t.corr = proto.corr + i0;
                if (proto.sums) {
                    t.sums = proto.sums + at;
                } else {
                    t.out = proto.out + at;
                    t.scale = proto.scale + i0;
                    t.bias = proto.bias + i0;
                }
                ts.fn[mr - 1][ceilDiv(ct.cols, ts.w) - 1](t);
            }
        });
}

/** Dot product over int8-range int16 operands (the gemv core). */
using DotFn = std::int32_t (*)(const std::int16_t* a,
                               const std::int16_t* b, std::size_t k);

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

// _mm512_reduce_add_epi32 expands through _mm512_extracti64x4_epi64,
// whose _mm256_undefined_si256() trips a false-positive
// -Wmaybe-uninitialized in GCC's own header; silence it for dotVnni.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"

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

void
checkExactK(std::size_t k)
{
    if (k > maxExactK)
        panic("int8 kernel: reduction length ", k,
              " exceeds the exact int32 range (", maxExactK, ")");
}

} // namespace

Int8ConvWeights
packInt8ConvWeights(const std::int8_t* weights, std::size_t outC,
                    int inC, int kernel)
{
    const std::size_t area = static_cast<std::size_t>(kernel) * kernel;
    const std::size_t filter = static_cast<std::size_t>(inC) * area;
    Int8ConvWeights p;
    p.outC = outC;
    p.taps = ceilDiv(static_cast<std::size_t>(inC), 4) * area;
    p.words.assign(outC * p.taps, 0);
    p.corr.assign(outC, 0);
    for (std::size_t oc = 0; oc < outC; ++oc) {
        const std::int8_t* f = weights + oc * filter;
        std::uint32_t* row = p.words.data() + oc * p.taps;
        std::int32_t sum = 0;
        for (std::size_t c = 0; c < static_cast<std::size_t>(inC); ++c) {
            for (std::size_t s = 0; s < area; ++s) {
                const std::int8_t v = f[c * area + s];
                sum += v;
                row[c / 4 * area + s] |=
                    static_cast<std::uint32_t>(static_cast<std::uint8_t>(v))
                    << (8 * (c % 4));
            }
        }
        p.corr[oc] = 128 * sum;
    }
    return p;
}

void
convImplicitGemmInt8(const ConvGeometry& geom, const Int8ConvWeights& w,
                     float inputScale, const Int8ConvEpilogue& ep,
                     const float* in, float* out, Int8ConvScratch& scratch,
                     const KernelContext& ctx)
{
    ConvGeometry g = geom;
    if (g.kernel == 1 && g.stride == 1 && g.pad == 0) {
        // A pointwise layer is the same convolution over one long row.
        g.inW = g.outW = g.inH * g.inW;
        g.inH = g.outH = 1;
    }
    const TileSet& ts = tilesFor(kernelIsaTier());
    const std::size_t nr = ts.cols();
    const std::size_t quads = ceilDiv(static_cast<std::size_t>(g.inC), 4);
    const std::size_t area = static_cast<std::size_t>(g.kernel) * g.kernel;
    const std::size_t taps = quads * area;
    if (w.taps != taps)
        panic("convImplicitGemmInt8: weights packed for ", w.taps,
              " taps, geometry needs ", taps);
    checkExactK(4 * taps);
    const std::size_t ow = static_cast<std::size_t>(g.outW);
    const std::size_t n = static_cast<std::size_t>(g.outH) * ow;
    const bool inPlace = g.stride == 1 && ow >= inPlaceMinWidth;

    // The input pass: quantize into u8 quads inside a border of biased
    // zeros; in place, each row also has nr words of slack so a tile's
    // last vectors stay inside the buffer.
    const std::size_t pad = static_cast<std::size_t>(g.pad);
    const std::size_t inW = static_cast<std::size_t>(g.inW);
    const std::size_t inH = static_cast<std::size_t>(g.inH);
    const std::size_t rowStride = inW + 2 * pad + (inPlace ? nr : 0);
    const std::size_t plane = (inH + 2 * pad) * rowStride;
    scratchAssign(scratch.quads, quads * plane, biasedZeros);
    std::uint32_t* q = scratch.quads.data();
    const float inv = 1.0f / inputScale;
    const std::size_t inPlane = inH * inW;
    kernelParallelFor(
        ctx, 0, quads * inH, 8, [&, q](std::size_t lo, std::size_t hi) {
            for (std::size_t u = lo; u < hi; ++u) {
                const std::size_t cq = u / inH;
                const std::size_t y = u % inH;
                const int chans =
                    std::min(4, g.inC - 4 * static_cast<int>(cq));
                const float* src[4] = {};
                for (int j = 0; j < chans; ++j)
                    src[j] = in + (4 * cq + j) * inPlane + y * inW;
                ts.quantize(src, chans, inW, inv,
                            q + cq * plane + (y + pad) * rowStride + pad);
            }
        });

    // B row t = (quad, ky, kx) starts at offsets[t]; panel rows are nr
    // words apart.
    scratchResize(scratch.taps, 2 * taps);
    std::ptrdiff_t* offsets = scratch.taps.data();
    std::ptrdiff_t* panelOffsets = offsets + taps;
    for (std::size_t t = 0; t < taps; ++t) {
        const std::size_t s = t % area;
        offsets[t] = static_cast<std::ptrdiff_t>(
            t / area * plane + s / g.kernel * rowStride + s % g.kernel);
        panelOffsets[t] = static_cast<std::ptrdiff_t>(t * nr);
    }

    Tile proto;
    proto.taps = taps;
    proto.a = w.words.data();
    proto.lda = taps;
    proto.corr = w.corr.data();
    proto.ldc = n;
    proto.out = out;
    proto.scale = ep.scale;
    proto.bias = ep.bias;
    proto.act = ep.activation;
    proto.slope = ep.slope;

    if (inPlace) {
        // Tiles run along output rows, reading input rows in place.
        const std::size_t rowTiles = ceilDiv(ow, nr);
        runTiles(ts, w.outC, g.outH * rowTiles, proto,
                 [&](std::size_t t) {
                     const std::size_t oy = t / rowTiles;
                     const std::size_t ox = t % rowTiles * nr;
                     return ColumnTile{q + oy * rowStride + ox, offsets,
                                       oy * ow + ox, std::min(nr, ow - ox)};
                 },
                 ctx);
        return;
    }

    // Panels of nr output columns gathered from the quantized copy;
    // columns past n hold biased zeros.
    const std::size_t panels = ceilDiv(n, nr);
    const std::size_t stride = static_cast<std::size_t>(g.stride);
    scratchResize(scratch.panels, panels * taps * nr);
    std::uint32_t* packed = scratch.panels.data();
    kernelParallelFor(
        ctx, 0, panels, 1, [&, packed](std::size_t lo, std::size_t hi) {
            std::size_t base[maxTileCols];
            for (std::size_t p = lo; p < hi; ++p) {
                const std::size_t valid = std::min(nr, n - p * nr);
                for (std::size_t j = 0; j < valid; ++j) {
                    const std::size_t col = p * nr + j;
                    base[j] = col / ow * stride * rowStride +
                              col % ow * stride;
                }
                std::uint32_t* dst = packed + p * taps * nr;
                for (std::size_t t = 0; t < taps; ++t, dst += nr) {
                    const std::uint32_t* src = q + offsets[t];
                    for (std::size_t j = 0; j < valid; ++j)
                        dst[j] = src[base[j]];
                    std::fill(dst + valid, dst + nr, biasedZeros);
                }
            }
        });
    runTiles(ts, w.outC, panels, proto,
             [&](std::size_t p) {
                 return ColumnTile{packed + p * taps * nr, panelOffsets,
                                   p * nr, std::min(nr, n - p * nr)};
             },
             ctx);
}

void
gemmInt8(std::size_t m, std::size_t n, std::size_t k,
         const std::int8_t* a, const std::int8_t* b, std::int32_t* c,
         const KernelContext& ctx)
{
    if (m == 0 || n == 0 || k == 0)
        return;
    checkExactK(k);
    const TileSet& ts = tilesFor(kernelIsaTier());
    const std::size_t nr = ts.cols();
    // A is a pointwise convolution's filters: m rows of k channels.
    const Int8ConvWeights packedA =
        packInt8ConvWeights(a, m, static_cast<int>(k), 1);
    const std::size_t taps = packedA.taps;
    const std::size_t panels = ceilDiv(n, nr);

    // The packed panels belong to the calling thread; workers only
    // read them through raw pointers (thread_locals are not captured
    // by lambdas), and kernelParallelFor joins before the next resize.
    static thread_local std::vector<std::uint32_t> bPack;
    static thread_local std::vector<std::ptrdiff_t> offsets;
    bPack.resize(panels * taps * nr);
    offsets.resize(taps);
    for (std::size_t t = 0; t < taps; ++t)
        offsets[t] = static_cast<std::ptrdiff_t>(t * nr);
    std::uint32_t* packed = bPack.data();

    // Row i of a quad is byte i of its words, q + 128 (q ^ 0x80 as a
    // byte); rows past k and columns past n hold biased zeros.
    kernelParallelFor(
        ctx, 0, panels, 1,
        [&, packed](std::size_t lo, std::size_t hi) {
            const std::int8_t* quad[4];
            for (std::size_t p = lo; p < hi; ++p) {
                const std::size_t j0 = p * nr;
                const std::size_t valid = std::min(nr, n - j0);
                std::uint32_t* dst = packed + p * taps * nr;
                for (std::size_t t = 0; t < taps; ++t, dst += nr) {
                    for (std::size_t i = 0; i < 4; ++i)
                        quad[i] = 4 * t + i < k
                                      ? b + (4 * t + i) * n + j0
                                      : nullptr;
                    std::fill(dst, dst + nr, biasedZeros);
                    for (std::size_t i = 0; i < 4 && quad[i]; ++i) {
                        const std::int8_t* row = quad[i];
                        const std::uint32_t keep = ~(0xffu << (8 * i));
                        for (std::size_t j = 0; j < valid; ++j)
                            dst[j] = (dst[j] & keep) |
                                     static_cast<std::uint32_t>(
                                         static_cast<std::uint8_t>(row[j]) ^
                                         0x80u)
                                         << (8 * i);
                    }
                }
            }
        });

    Tile proto;
    proto.taps = taps;
    proto.a = packedA.words.data();
    proto.lda = taps;
    proto.corr = packedA.corr.data();
    proto.ldc = n;
    proto.sums = c;
    const std::ptrdiff_t* panelOffsets = offsets.data();
    runTiles(ts, m, panels, proto,
             [&](std::size_t p) {
                 return ColumnTile{packed + p * taps * nr, panelOffsets,
                                   p * nr, std::min(nr, n - p * nr)};
             },
             ctx);
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
