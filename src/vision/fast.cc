#include "vision/fast.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/logging.hh"

namespace ad::vision {

namespace {

/** Bresenham circle of radius 3: the 16 FAST test offsets, in order. */
constexpr int kCircle[16][2] = {
    {0, -3}, {1, -3}, {2, -2}, {3, -1}, {3, 0}, {3, 1}, {2, 2}, {1, 3},
    {0, 3}, {-1, 3}, {-2, 2}, {-3, 1}, {-3, 0}, {-3, -1}, {-2, -2},
    {-1, -3},
};

constexpr int kArcLength = 9; // FAST-9.

/** Detection border: orientation disc radius + circle radius. */
constexpr int kBorder = 8 + 3;

constexpr int kDiscRadius = 8;

/** Half-width of the orientation disc's row dy, indexed dy + 8. */
constexpr std::array<int, 2 * kDiscRadius + 1> kDiscHalfWidth = [] {
    std::array<int, 2 * kDiscRadius + 1> hw{};
    for (int dy = -kDiscRadius; dy <= kDiscRadius; ++dy) {
        int w = 0;
        while ((w + 1) * (w + 1) + dy * dy <= kDiscRadius * kDiscRadius)
            ++w;
        hw[dy + kDiscRadius] = w;
    }
    return hw;
}();

/** Harris score from the structure-tensor sums (k = 0.04). */
float
harrisScore(double sxx, double syy, double sxy)
{
    constexpr double k = 0.04;
    const double det = sxx * syy - sxy * sxy;
    const double trace = sxx + syy;
    return static_cast<float>(det - k * trace * trace);
}

#if defined(__SSE2__)

const __m128i*
at16(const std::uint8_t* p)
{
    return reinterpret_cast<const __m128i*>(p);
}

/** Sum of the four int32 lanes. */
int
laneSum(__m128i v)
{
    v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2)));
    v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1)));
    return _mm_cvtsi128_si32(v);
}

/**
 * harrisResponse() for a pixel whose Sobel window needs no clamping:
 * the loads span columns x - 4 .. x + 5 and rows y - 4 .. y + 4, all
 * inside the image for a candidate. A Sobel value is at most 4 * 255
 * in magnitude, so every product and window sum is an integer below
 * 2^26. int32 sums converted once to double therefore equal the
 * double sums the reference accumulates, and the score is computed
 * from them alike.
 */
float
cornerResponse(const Image& img, int x, int y)
{
    const std::ptrdiff_t stride = img.width();
    const std::uint8_t* p = img.row(y) + x;
    const __m128i zero = _mm_setzero_si128();
    // Lane j is window column x - 3 + j (lane 7 is masked off). For
    // source rows y - 4 .. y + 4, left/mid/right hold the pixels one
    // column left of, at, and one column right of each lane.
    __m128i left[9];
    __m128i mid[9];
    __m128i right[9];
    for (int i = 0; i < 9; ++i) {
        const std::uint8_t* q = p + (i - 4) * stride - 4;
        left[i] = _mm_unpacklo_epi8(_mm_loadl_epi64(at16(q)), zero);
        mid[i] = _mm_unpacklo_epi8(_mm_loadl_epi64(at16(q + 1)), zero);
        right[i] = _mm_unpacklo_epi8(_mm_loadl_epi64(at16(q + 2)), zero);
    }
    const __m128i keep = _mm_setr_epi16(-1, -1, -1, -1, -1, -1, -1, 0);
    const auto smooth = [](__m128i a, __m128i b, __m128i c) {
        return _mm_add_epi16(_mm_add_epi16(a, c), _mm_slli_epi16(b, 1));
    };
    __m128i sxx = zero;
    __m128i syy = zero;
    __m128i sxy = zero;
    for (int i = 1; i <= 7; ++i) {
        const __m128i gx = _mm_and_si128(
            keep, _mm_sub_epi16(smooth(right[i - 1], right[i], right[i + 1]),
                                smooth(left[i - 1], left[i], left[i + 1])));
        const __m128i gy = _mm_and_si128(
            keep,
            _mm_sub_epi16(smooth(left[i + 1], mid[i + 1], right[i + 1]),
                          smooth(left[i - 1], mid[i - 1], right[i - 1])));
        sxx = _mm_add_epi32(sxx, _mm_madd_epi16(gx, gx));
        syy = _mm_add_epi32(syy, _mm_madd_epi16(gy, gy));
        sxy = _mm_add_epi32(sxy, _mm_madd_epi16(gx, gy));
    }
    return harrisScore(laneSum(sxx), laneSum(syy), laneSum(sxy));
}

/**
 * The lanes (as a nonzero byte) of the 16 pixels at p whose circle
 * holds kArcLength consecutive entries that pass: diff(v) is nonzero
 * exactly where circle pixel v passes. On such values min_epu8 is a
 * logical AND and max_epu8 an OR, so doubling builds runs of 2, 4, 8
 * and then 9 around the circle.
 */
template <typename Diff>
__m128i
arcLanes(const std::uint8_t* p, const std::ptrdiff_t (&off)[16], Diff diff)
{
    __m128i pass[16];
    __m128i run[16];
    __m128i run2[16];
#pragma GCC unroll 16
    for (int k = 0; k < 16; ++k)
        pass[k] = diff(_mm_loadu_si128(at16(p + off[k])));
#pragma GCC unroll 16
    for (int k = 0; k < 16; ++k)
        run2[k] = _mm_min_epu8(pass[k], pass[(k + 1) & 15]);
#pragma GCC unroll 16
    for (int k = 0; k < 16; ++k)
        run[k] = _mm_min_epu8(run2[k], run2[(k + 2) & 15]);
#pragma GCC unroll 16
    for (int k = 0; k < 16; ++k)
        run2[k] = _mm_min_epu8(run[k], run[(k + 4) & 15]);
    __m128i any = _mm_setzero_si128();
#pragma GCC unroll 16
    for (int k = 0; k < 16; ++k)
        any = _mm_max_epu8(any, _mm_min_epu8(run2[k], pass[(k + 8) & 15]));
    return any;
}

/** Bit j set where byte lane j of v is nonzero. */
unsigned
nonzeroLanes(__m128i v)
{
    return static_cast<unsigned>(
               _mm_movemask_epi8(_mm_cmpeq_epi8(v, _mm_setzero_si128()))) ^
           0xFFFFu;
}

/**
 * Segment-test row y over [kBorder, width - kBorder), 16 pixels at a
 * time, calling emit(x) for each corner in increasing x.
 *
 * With t in [0, 255], v > c + t exactly when v exceeds the saturated
 * c + t, and v < c - t exactly when v is below the saturated c - t,
 * so the u8 compares equal the reference's int compares. A block is
 * skipped when no lane passes the compass prefilter: an arc of 9
 * covers two adjacent compass points, one of 0/8 and one of 4/12.
 * Rows narrower than a block run the reference.
 */
template <typename Emit>
void
scanRow(const Image& img, int y, int threshold, Emit&& emit)
{
    const int x0 = kBorder;
    const int x1 = img.width() - kBorder;
    if (x1 - x0 < 16) {
        for (int x = x0; x < x1; ++x)
            if (fastSegmentTest(img, x, y, threshold))
                emit(x);
        return;
    }
    std::ptrdiff_t off[16];
    for (int k = 0; k < 16; ++k)
        off[k] = static_cast<std::ptrdiff_t>(kCircle[k][1]) * img.width() +
                 kCircle[k][0];
    const __m128i t = _mm_set1_epi8(static_cast<char>(threshold));
    const std::uint8_t* row = img.row(y);
    for (int x = x0; x < x1; x += 16) {
        // The last block ends at x1, overlapping lanes already scanned.
        const int base = std::min(x, x1 - 16);
        const std::uint8_t* p = row + base;
        const __m128i c = _mm_loadu_si128(at16(p));
        const __m128i hi = _mm_adds_epu8(c, t);
        const __m128i lo = _mm_subs_epu8(c, t);
        const auto brighter = [hi](__m128i v) { return _mm_subs_epu8(v, hi); };
        const auto darker = [lo](__m128i v) { return _mm_subs_epu8(lo, v); };
        const auto compass = [p, &off](auto diff) {
            const auto at = [p, &off, diff](int k) {
                return diff(_mm_loadu_si128(at16(p + off[k])));
            };
            return _mm_min_epu8(_mm_max_epu8(at(0), at(8)),
                                _mm_max_epu8(at(4), at(12)));
        };
        unsigned lanes =
            nonzeroLanes(_mm_max_epu8(compass(brighter), compass(darker))) &
            (0xFFFFu << (x - base));
        if (lanes == 0)
            continue;
        lanes &= nonzeroLanes(_mm_max_epu8(arcLanes(p, off, brighter),
                                           arcLanes(p, off, darker)));
        for (; lanes != 0; lanes &= lanes - 1)
            emit(base + std::countr_zero(lanes));
    }
}

#else // !__SSE2__: the per-pixel references.

template <typename Emit>
void
scanRow(const Image& img, int y, int threshold, Emit&& emit)
{
    for (int x = kBorder; x < img.width() - kBorder; ++x)
        if (fastSegmentTest(img, x, y, threshold))
            emit(x);
}

float
cornerResponse(const Image& img, int x, int y)
{
    return harrisResponse(img, x, y);
}

#endif

} // namespace

bool
fastSegmentTest(const Image& img, int x, int y, int threshold)
{
    const int center = img.at(x, y);
    const int hi = center + threshold;
    const int lo = center - threshold;

    // Quick reject using the 4 compass points: a contiguous arc of 9
    // always covers at least 2 of the 4 (they are spaced 4 apart).
    int brighter = 0;
    int darker = 0;
    for (int i : {0, 4, 8, 12}) {
        const int v = img.at(x + kCircle[i][0], y + kCircle[i][1]);
        brighter += v > hi;
        darker += v < lo;
    }
    if (brighter < 2 && darker < 2)
        return false;

    // Full test: walk the circle twice to catch wrap-around arcs.
    int runBright = 0;
    int runDark = 0;
    for (int i = 0; i < 32; ++i) {
        const int idx = i & 15;
        const int v = img.at(x + kCircle[idx][0], y + kCircle[idx][1]);
        runBright = v > hi ? runBright + 1 : 0;
        runDark = v < lo ? runDark + 1 : 0;
        if (runBright >= kArcLength || runDark >= kArcLength)
            return true;
    }
    return false;
}

float
harrisResponse(const Image& img, int x, int y)
{
    // Structure tensor from Sobel gradients over a 7x7 window.
    double sxx = 0;
    double syy = 0;
    double sxy = 0;
    for (int dy = -3; dy <= 3; ++dy) {
        for (int dx = -3; dx <= 3; ++dx) {
            const int px = x + dx;
            const int py = y + dy;
            const double gx =
                (img.atClamped(px + 1, py - 1) + 2 * img.atClamped(px + 1, py)
                 + img.atClamped(px + 1, py + 1)) -
                (img.atClamped(px - 1, py - 1) + 2 * img.atClamped(px - 1, py)
                 + img.atClamped(px - 1, py + 1));
            const double gy =
                (img.atClamped(px - 1, py + 1) + 2 * img.atClamped(px, py + 1)
                 + img.atClamped(px + 1, py + 1)) -
                (img.atClamped(px - 1, py - 1) + 2 * img.atClamped(px, py - 1)
                 + img.atClamped(px + 1, py - 1));
            sxx += gx * gx;
            syy += gy * gy;
            sxy += gx * gy;
        }
    }
    return harrisScore(sxx, syy, sxy);
}

int
intensityCentroidBin(const Image& img, int x, int y, TrigMode mode)
{
    // Integer moments. Every partial sum is an integer of magnitude at
    // most 660 * 255 < 2^24, so the float sum accumulated pixel by
    // pixel is exactly this sum converted once.
    const bool interior = x >= kDiscRadius && y >= kDiscRadius &&
                          x + kDiscRadius < img.width() &&
                          y + kDiscRadius < img.height();
    int m10 = 0;
    int m01 = 0;
    for (int dy = -kDiscRadius; dy <= kDiscRadius; ++dy) {
        const int hw = kDiscHalfWidth[dy + kDiscRadius];
        int sum = 0;
        int moment = 0;
        if (interior) {
            const std::uint8_t* row = img.row(y + dy) + x;
            for (int dx = -hw; dx <= hw; ++dx) {
                sum += row[dx];
                moment += dx * row[dx];
            }
        } else {
            for (int dx = -hw; dx <= hw; ++dx) {
                const int v = img.atClamped(x + dx, y + dy);
                sum += v;
                moment += dx * v;
            }
        }
        m10 += moment;
        m01 += dy * sum;
    }
    const float fm10 = static_cast<float>(m10);
    const float fm01 = static_cast<float>(m01);
    if (mode == TrigMode::Lut)
        return TrigTables::instance().atan2Bin(fm01, fm10);
    return naiveAtan2Bin(fm01, fm10);
}

std::vector<Keypoint>
detectFast(const Image& img, const FastParams& params, FastOpCounts* counts)
{
    // The saturating u8 compares equal the int ones only in [0, 255].
    if (params.threshold < 0 || params.threshold > 255)
        fatal("FastParams::threshold must be in [0, 255], got ",
              params.threshold);
    if (params.maxKeypoints < 0)
        fatal("FastParams::maxKeypoints must be >= 0, got ",
              params.maxKeypoints);

    std::vector<Keypoint> candidates;
    for (int y = kBorder; y < img.height() - kBorder; ++y) {
        scanRow(img, y, params.threshold, [&](int x) {
            Keypoint kp;
            kp.x = static_cast<float>(x);
            kp.y = static_cast<float>(y);
            kp.response = cornerResponse(img, x, y);
            candidates.push_back(kp);
        });
    }

    // Grid NMS: keep the strongest response per cell.
    const int cell = std::max(1, params.cellSize);
    const int gw = (img.width() + cell - 1) / cell;
    const int gh = (img.height() + cell - 1) / cell;
    std::vector<int> bestInCell(static_cast<std::size_t>(gw) * gh, -1);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        const int cx = static_cast<int>(candidates[i].x) / cell;
        const int cy = static_cast<int>(candidates[i].y) / cell;
        int& best = bestInCell[static_cast<std::size_t>(cy) * gw + cx];
        if (best < 0 ||
            candidates[best].response < candidates[i].response)
            best = static_cast<int>(i);
    }
    std::vector<Keypoint> kept;
    for (const int idx : bestInCell)
        if (idx >= 0)
            kept.push_back(candidates[idx]);

    // Top-N by response.
    if (static_cast<int>(kept.size()) > params.maxKeypoints) {
        std::nth_element(kept.begin(), kept.begin() + params.maxKeypoints,
                         kept.end(), [](const Keypoint& a, const Keypoint& b)
                         { return a.response > b.response; });
        kept.resize(params.maxKeypoints);
    }

    // Orientation only for survivors (as in ORB).
    for (auto& kp : kept)
        kp.orientationBin = intensityCentroidBin(
            img, static_cast<int>(kp.x), static_cast<int>(kp.y),
            params.trigMode);

    if (counts) {
        const auto span = [](int extent) {
            return static_cast<std::uint64_t>(
                std::max(0, extent - 2 * kBorder));
        };
        counts->pixelsTested += span(img.width()) * span(img.height());
        counts->candidates += candidates.size();
        counts->keypoints += kept.size();
    }
    return kept;
}

} // namespace ad::vision
