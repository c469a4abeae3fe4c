#include "nn/gemm.hh"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>

#include "nn/isa.hh"
#include "nn/tensor.hh"

// This file is compiled with -ffp-contract=off (src/nn/CMakeLists.txt):
// inside a target("avx512f") function GCC would otherwise fuse the
// tile's multiply and add into vfmadd231ps, which rounds once instead
// of twice and changes every output.

namespace ad::nn {

namespace {

/**
 * One register tile: MR rows of A against NV vectors of B columns,
 * accumulated over all of k in registers and stored once.
 */
struct Tile
{
    std::size_t k = 0;                    ///< reduction length.
    const float* a = nullptr;             ///< A(r, kk) = a[r * lda + kk].
    std::size_t lda = 0;
    const float* b = nullptr;             ///< B(kk, j) = b[bOff[kk] + j].
    const std::ptrdiff_t* bOff = nullptr;
    float* c = nullptr;                   ///< C(r, j) = c[r * ldc + j].
    std::size_t ldc = 0;
    std::size_t cols = 0;                 ///< valid columns, 1..NV*W.
    bool loadC = false;                   ///< start from C, else +0.0f.
    const float* bias = nullptr;          ///< row r adds bias[r] if != 0.
    bool act = false;                     ///< leaky select before store.
    float slope = 0.0f;
};

/** W fp32 lanes (GCC/Clang vector extension) and the matching mask. */
template <int W>
struct Lanes
{
    typedef float F __attribute__((vector_size(W * sizeof(float))));
    typedef std::int32_t I __attribute__((vector_size(W * sizeof(float))));
};

/**
 * The micro-kernel every tier runs. Each accumulator lane performs, in
 * order: start (+0.0f or C), then per kk one rounded multiply and one
 * rounded add; then the epilogue's add and select. Lanes past `cols`
 * compute on whatever B holds there and are never stored.
 *
 * Always inlined into the per-tier entry points below, which carry
 * the target attribute, so the same source becomes SSE2, AVX2 or
 * AVX-512F code.
 */
template <int W, int MR, int NV>
[[gnu::always_inline]] inline void
tileKernel(const Tile& t)
{
    using F = typename Lanes<W>::F;
    using I = typename Lanes<W>::I;
    const std::size_t k = t.k;
    const float* a = t.a;
    const std::size_t lda = t.lda;
    const float* b = t.b;
    const std::ptrdiff_t* bOff = t.bOff;
    float* c = t.c;
    const std::size_t ldc = t.ldc;
    const std::size_t cols = t.cols;
    const float slope = t.slope;
    const bool act = t.act;

    F acc[MR][NV];
#pragma GCC unroll 8
    for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 2
        for (int v = 0; v < NV; ++v) {
            acc[r][v] = F{};
            if (!t.loadC)
                continue;
            const float* src = c + r * ldc + v * W;
            const std::size_t lanes = std::min<std::size_t>(W, cols - v * W);
            if (lanes == W)
                std::memcpy(&acc[r][v], src, sizeof(F));
            else
                for (std::size_t i = 0; i < lanes; ++i)
                    acc[r][v][i] = src[i];
        }
    }

    for (std::size_t kk = 0; kk < k; ++kk) {
        const float* bRow = b + bOff[kk];
        F bv[NV];
#pragma GCC unroll 2
        for (int v = 0; v < NV; ++v)
            std::memcpy(&bv[v], bRow + v * W, sizeof(F));
#pragma GCC unroll 8
        for (int r = 0; r < MR; ++r) {
            const float av = a[r * lda + kk];
#pragma GCC unroll 2
            for (int v = 0; v < NV; ++v)
                acc[r][v] = acc[r][v] + av * bv[v];
        }
    }

#pragma GCC unroll 8
    for (int r = 0; r < MR; ++r) {
        const float bias = t.bias ? t.bias[r] : 0.0f;
        float* dst = c + r * ldc;
#pragma GCC unroll 2
        for (int v = 0; v < NV; ++v) {
            F x = acc[r][v];
            if (bias != 0.0f)
                x = x + bias;
            if (act) {
                // v > 0 ? v : slope * v, lane by lane, as a bit select.
                const I pos = x > 0.0f;
                const F neg = slope * x;
                I xi;
                I ni;
                std::memcpy(&xi, &x, sizeof(F));
                std::memcpy(&ni, &neg, sizeof(F));
                xi = (pos & xi) | (~pos & ni);
                std::memcpy(&x, &xi, sizeof(F));
            }
            const std::size_t lanes = std::min<std::size_t>(W, cols - v * W);
            if (lanes == W)
                std::memcpy(dst + v * W, &x, sizeof(F));
            else
                for (std::size_t i = 0; i < lanes; ++i)
                    dst[v * W + i] = x[i];
        }
    }
}

using TileFn = void (*)(const Tile&);

// Largest tile of any tier: MR rows, NV vectors, columns (AVX-512F's
// 8 x 2 x 16 lanes).
constexpr int maxTileRows = 8;
constexpr int maxTileVecs = 2;
constexpr std::size_t maxTileCols = 32;

// A stride-1 layer reads its input rows in place when its output rows
// are at least this wide; narrower rows pack panels instead. Tiles run
// along output rows there, so a row's last tile leaves lanes idle, and
// on DET's shapes that waste outweighed the packing only below 16
// columns (conv5 and conv6 at 10 and 5 columns pack on every tier;
// conv4 at 20 columns ran about a fifth faster in place on AVX-512F).
constexpr std::size_t inPlaceMinWidth = 16;

/** A tier's register tiles: fn[mr - 1][nv - 1] is mr x (nv * w). */
struct TileSet
{
    std::size_t w;     ///< fp32 lanes per vector.
    std::size_t mr;    ///< rows of the full tile.
    std::size_t nv;    ///< vectors of the full tile.
    TileFn fn[maxTileRows][maxTileVecs];

    std::size_t cols() const { return w * nv; }
};

template <int MR, int NV>
struct ScalarTile
{
    static void run(const Tile& t) { tileKernel<1, MR, NV>(t); }
};

#if defined(__x86_64__) || defined(__amd64__)
#define AD_NN_FP32_X86 1

template <int MR, int NV>
struct Sse2Tile
{
    static void run(const Tile& t) { tileKernel<4, MR, NV>(t); }
};

template <int MR, int NV>
struct Avx2Tile
{
    __attribute__((target("avx2"))) static void
    run(const Tile& t)
    {
        tileKernel<8, MR, NV>(t);
    }
};

template <int MR, int NV>
struct Avx512Tile
{
    __attribute__((target("avx512f"))) static void
    run(const Tile& t)
    {
        tileKernel<16, MR, NV>(t);
    }
};

#endif // x86

template <template <int, int> class T, int... R>
constexpr TileSet
makeTileSet(std::size_t w, std::integer_sequence<int, R...>)
{
    static_assert(sizeof...(R) <= maxTileRows);
    return {w, sizeof...(R), maxTileVecs,
            {{&T<R + 1, 1>::run, &T<R + 1, 2>::run}...}};
}

const TileSet&
tilesFor(IsaTier tier)
{
    static const TileSet scalar =
        makeTileSet<ScalarTile>(1, std::make_integer_sequence<int, 4>());
#if AD_NN_FP32_X86
    static const TileSet sse2 =
        makeTileSet<Sse2Tile>(4, std::make_integer_sequence<int, 4>());
    static const TileSet avx2 =
        makeTileSet<Avx2Tile>(8, std::make_integer_sequence<int, 4>());
    static const TileSet avx512 =
        makeTileSet<Avx512Tile>(16, std::make_integer_sequence<int, 8>());
    switch (tier) {
      case IsaTier::Scalar: return scalar;
      case IsaTier::Sse2: return sse2;
      case IsaTier::Avx2: return avx2;
      case IsaTier::Avx512Vnni: return avx512;
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

/**
 * Where one column tile's B comes from and which output columns it
 * covers; the rows of A it meets are picked per row block.
 */
struct ColumnTile
{
    const float* b;
    const std::ptrdiff_t* bOff;
    std::size_t col;   ///< first output column.
    std::size_t cols;  ///< columns covered.
};

/**
 * Run every (column tile, row block) pair, sharded over ctx as
 * disjoint writes: unit u is column tile u / rowBlocks against row
 * block u % rowBlocks, so consecutive units reuse one column tile's B.
 */
template <typename ColumnFn>
void
runTiles(const TileSet& ts, std::size_t m, std::size_t columnTiles,
         const Tile& proto, const float* a, float* c, const float* bias,
         const ColumnFn& column, const KernelContext& ctx)
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
                t.a = a + i0 * proto.lda;
                t.b = ct.b;
                t.bOff = ct.bOff;
                t.c = c + i0 * proto.ldc + ct.col;
                t.cols = ct.cols;
                t.bias = bias ? bias + i0 : nullptr;
                ts.fn[mr - 1][ceilDiv(ct.cols, ts.w) - 1](t);
            }
        });
}

/**
 * Unfold output columns [q0, q0 + nr) of a convolution into one B
 * panel: row kk = (c, ky, kx) holds each column's input tap, 0.0f for
 * a padding tap and for columns past n.
 */
void
packConvPanel(const ConvGeometry& g, const float* in, std::size_t q0,
              std::size_t n, std::size_t nr, float* dst)
{
    // The panel's columns as runs that share an output row.
    struct Run
    {
        std::size_t j;
        std::size_t len;
        int iy;
        int ix;
    };
    Run runs[maxTileCols];
    std::size_t runCount = 0;
    const std::size_t ow = static_cast<std::size_t>(g.outW);
    const std::size_t valid = std::min(nr, n - q0);
    for (std::size_t j = 0; j < valid;) {
        const std::size_t q = q0 + j;
        const std::size_t ox = q % ow;
        const std::size_t len = std::min(valid - j, ow - ox);
        runs[runCount++] = {j, len,
                            static_cast<int>(q / ow) * g.stride - g.pad,
                            static_cast<int>(ox) * g.stride - g.pad};
        j += len;
    }
    const std::size_t plane = static_cast<std::size_t>(g.inH) * g.inW;
    for (int c = 0; c < g.inC; ++c) {
        for (int ky = 0; ky < g.kernel; ++ky) {
            for (int kx = 0; kx < g.kernel; ++kx) {
                float* row = dst;
                dst += nr;
                for (std::size_t r = 0; r < runCount; ++r) {
                    const Run& run = runs[r];
                    float* out = row + run.j;
                    const int iy = run.iy + ky;
                    if (iy < 0 || iy >= g.inH) {
                        std::fill(out, out + run.len, 0.0f);
                        continue;
                    }
                    const float* src = in + c * plane +
                        static_cast<std::size_t>(iy) * g.inW;
                    int ix = run.ix + kx;
                    for (std::size_t i = 0; i < run.len;
                         ++i, ix += g.stride)
                        out[i] = (ix >= 0 && ix < g.inW) ? src[ix] : 0.0f;
                }
                std::fill(row + valid, row + nr, 0.0f);
            }
        }
    }
}

} // namespace

void
gemm(std::size_t m, std::size_t n, std::size_t k,
     const float* a, const float* b, float* c, const KernelContext& ctx)
{
    if (m == 0 || n == 0 || k == 0)
        return;
    const TileSet& ts = tilesFor(kernelIsaTier());
    const std::size_t nr = ts.cols();
    const std::size_t panels = ceilDiv(n, nr);

    // The packed panels belong to the calling thread; workers only
    // read them, and kernelParallelFor joins before they can be
    // resized again. Shards get raw pointers: thread_locals are not
    // captured by lambdas, so naming one inside a shard would resolve
    // to the worker's own (empty) instance.
    static thread_local std::vector<float> bPack;
    static thread_local std::vector<std::ptrdiff_t> taps;
    bPack.resize(panels * k * nr);
    taps.resize(k);
    for (std::size_t kk = 0; kk < k; ++kk)
        taps[kk] = static_cast<std::ptrdiff_t>(kk * nr);
    float* packed = bPack.data();
    const std::ptrdiff_t* offsets = taps.data();

    kernelParallelFor(ctx, 0, panels, 1,
                      [&, packed](std::size_t lo, std::size_t hi) {
                          for (std::size_t p = lo; p < hi; ++p) {
                              const std::size_t j0 = p * nr;
                              const std::size_t w = std::min(nr, n - j0);
                              float* dst = packed + p * k * nr;
                              for (std::size_t kk = 0; kk < k; ++kk) {
                                  std::copy(b + kk * n + j0,
                                            b + kk * n + j0 + w, dst);
                                  std::fill(dst + w, dst + nr, 0.0f);
                                  dst += nr;
                              }
                          }
                      });

    Tile proto;
    proto.k = k;
    proto.lda = k;
    proto.ldc = n;
    proto.loadC = true;
    runTiles(ts, m, panels, proto, a, c, nullptr,
             [&](std::size_t p) {
                 return ColumnTile{packed + p * k * nr, offsets, p * nr,
                                   std::min(nr, n - p * nr)};
             },
             ctx);
}

void
convImplicitGemm(const ConvGeometry& g, std::size_t outC,
                 const float* weights, const ConvEpilogue& ep,
                 const float* in, float* out, ConvScratch& scratch,
                 const KernelContext& ctx)
{
    const TileSet& ts = tilesFor(kernelIsaTier());
    const std::size_t nr = ts.cols();
    const std::size_t k =
        static_cast<std::size_t>(g.inC) * g.kernel * g.kernel;
    const std::size_t ow = static_cast<std::size_t>(g.outW);
    const std::size_t n = static_cast<std::size_t>(g.outH) * ow;
    const std::size_t inPlane = static_cast<std::size_t>(g.inH) * g.inW;

    Tile proto;
    proto.k = k;
    proto.lda = k;
    proto.ldc = n;
    proto.act = ep.activation;
    proto.slope = ep.slope;

    const bool pointwise = g.kernel == 1 && g.stride == 1 && g.pad == 0;
    if (!pointwise && g.stride == 1 && ow >= inPlaceMinWidth) {
        // In place: tiles run along output rows and read input rows
        // from a zero-padded copy. Each row has nr floats of zeroed
        // slack, so a tile's last vectors stay inside the buffer.
        const std::size_t pad = static_cast<std::size_t>(g.pad);
        const std::size_t rowStride = g.inW + 2 * pad + nr;
        const std::size_t plane = (g.inH + 2 * pad) * rowStride;
        scratchAssign(scratch.source, g.inC * plane, 0.0f);
        scratchResize(scratch.taps, k);
        float* padded = scratch.source.data();
        std::ptrdiff_t* taps = scratch.taps.data();
        std::size_t kk = 0;
        for (int c = 0; c < g.inC; ++c)
            for (int ky = 0; ky < g.kernel; ++ky)
                for (int kx = 0; kx < g.kernel; ++kx)
                    taps[kk++] = static_cast<std::ptrdiff_t>(
                        c * plane + ky * rowStride + kx);
        kernelParallelFor(
            ctx, 0, static_cast<std::size_t>(g.inC), 1,
            [&, padded](std::size_t lo, std::size_t hi) {
                for (std::size_t c = lo; c < hi; ++c)
                    for (int y = 0; y < g.inH; ++y)
                        std::copy(in + c * inPlane + y * g.inW,
                                  in + c * inPlane + (y + 1) * g.inW,
                                  padded + c * plane +
                                      (y + pad) * rowStride + pad);
            });

        const std::size_t rowTiles = ceilDiv(ow, nr);
        runTiles(ts, outC, g.outH * rowTiles, proto, weights, out,
                 ep.bias,
                 [&](std::size_t t) {
                     const std::size_t oy = t / rowTiles;
                     const std::size_t ox = t % rowTiles * nr;
                     return ColumnTile{padded + oy * rowStride + ox, taps,
                                       oy * ow + ox, std::min(nr, ow - ox)};
                 },
                 ctx);
        return;
    }

    // Panels of nr output columns, packed straight from the input. A
    // pointwise layer's full panels need no packing: B row c of panel
    // p is input plane c from column p * nr on.
    const std::size_t panels = ceilDiv(n, nr);
    const std::size_t direct = pointwise ? n / nr : 0;
    scratchResize(scratch.source, (panels - direct) * k * nr);
    scratchResize(scratch.taps, 2 * k);
    float* packed = scratch.source.data();
    std::ptrdiff_t* planeTaps = scratch.taps.data();
    std::ptrdiff_t* panelTaps = planeTaps + k;
    for (std::size_t kk = 0; kk < k; ++kk) {
        planeTaps[kk] = static_cast<std::ptrdiff_t>(kk * inPlane);
        panelTaps[kk] = static_cast<std::ptrdiff_t>(kk * nr);
    }
    kernelParallelFor(ctx, direct, panels, 1,
                      [&, packed](std::size_t lo, std::size_t hi) {
                          for (std::size_t p = lo; p < hi; ++p)
                              packConvPanel(g, in, p * nr, n, nr,
                                            packed + (p - direct) * k * nr);
                      });
    runTiles(ts, outC, panels, proto, weights, out, ep.bias,
             [&](std::size_t p) {
                 const std::size_t col = p * nr;
                 const std::size_t cols = std::min(nr, n - col);
                 if (p < direct)
                     return ColumnTile{in + col, planeTaps, col, cols};
                 return ColumnTile{packed + (p - direct) * k * nr,
                                   panelTaps, col, cols};
             },
             ctx);
}

void
gemmBlockedReference(std::size_t m, std::size_t n, std::size_t k,
                     const float* a, const float* b, float* c)
{
    constexpr std::size_t blockM = 64;
    constexpr std::size_t blockK = 256;
    for (std::size_t i0 = 0; i0 < m; i0 += blockM) {
        const std::size_t iEnd = std::min(i0 + blockM, m);
        for (std::size_t k0 = 0; k0 < k; k0 += blockK) {
            const std::size_t kEnd = std::min(k0 + blockK, k);
            for (std::size_t i = i0; i < iEnd; ++i) {
                float* cRow = c + i * n;
                const float* aRow = a + i * k;
                for (std::size_t kk = k0; kk < kEnd; ++kk) {
                    // No zero-skipping: constructed weights are sparse,
                    // and skipping would make measured latency depend on
                    // weight values rather than network shape.
                    const float aVal = aRow[kk];
                    const float* bRow = b + kk * n;
                    for (std::size_t j = 0; j < n; ++j)
                        cRow[j] += aVal * bRow[j];
                }
            }
        }
    }
}

void
gemmNaive(std::size_t m, std::size_t n, std::size_t k,
          const float* a, const float* b, float* c)
{
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            float acc = c[i * n + j];
            for (std::size_t kk = 0; kk < k; ++kk)
                acc += a[i * k + kk] * b[kk * n + j];
            c[i * n + j] = acc;
        }
    }
}

void
gemv(std::size_t m, std::size_t k, const float* a, const float* x,
     float* y, const KernelContext& ctx)
{
    kernelParallelFor(ctx, 0, m, 64,
                      [&](std::size_t lo, std::size_t hi) {
                          for (std::size_t i = lo; i < hi; ++i) {
                              const float* row = a + i * k;
                              float acc = 0.0f;
                              for (std::size_t j = 0; j < k; ++j)
                                  acc += row[j] * x[j];
                              y[i] += acc;
                          }
                      });
}

} // namespace ad::nn
