#include "yardstick.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common.hh"

namespace adbench {

namespace {

constexpr int kW = 640, kH = 360; ///< an HHD-sized image.
constexpr int kBorder = 11;       ///< orientation disc + circle radius.
constexpr int kThreshold = 20;
constexpr int kArc = 9;           ///< FAST-9.
constexpr int kRects = 120;       ///< flat patches, whose corners are corners.

/** The 16-pixel circle of radius 3 that FAST tests, as (dx, dy). */
const int kCircle[16][2] = {
    {0, -3}, {1, -3}, {2, -2}, {3, -1}, {3, 0},  {3, 1},  {2, 2},  {1, 3},
    {0, 3},  {-1, 3}, {-2, 2}, {-3, 1}, {-3, 0}, {-3, -1}, {-2, -2},
    {-1, -3}};

/** A view of the fixed image with FAST's pixel accessors. */
struct Image
{
    const std::uint8_t* px;

    int at(int x, int y) const { return px[y * kW + x]; }

    int
    atClamped(int x, int y) const
    {
        x = x < 0 ? 0 : x >= kW ? kW - 1 : x;
        y = y < 0 ? 0 : y >= kH ? kH - 1 : y;
        return px[y * kW + x];
    }
};

/** FAST-9 segment test with the four-point quick reject. */
bool
segmentTest(const Image& im, int x, int y)
{
    const int c = im.at(x, y);
    const int hi = c + kThreshold, lo = c - kThreshold;
    int brighter = 0, darker = 0;
    for (int i : {0, 4, 8, 12}) {
        const int v = im.at(x + kCircle[i][0], y + kCircle[i][1]);
        brighter += v > hi;
        darker += v < lo;
    }
    if (brighter < 2 && darker < 2)
        return false;
    int runBright = 0, runDark = 0;
    for (int i = 0; i < 32; ++i) {
        const int idx = i & 15;
        const int v = im.at(x + kCircle[idx][0], y + kCircle[idx][1]);
        runBright = v > hi ? runBright + 1 : 0;
        runDark = v < lo ? runDark + 1 : 0;
        if (runBright >= kArc || runDark >= kArc)
            return true;
    }
    return false;
}

/** Harris response from Sobel gradients over a 7x7 window. */
double
harris(const Image& im, int x, int y)
{
    double sxx = 0, syy = 0, sxy = 0;
    for (int dy = -3; dy <= 3; ++dy)
        for (int dx = -3; dx <= 3; ++dx) {
            const int px = x + dx, py = y + dy;
            const double gx =
                (im.atClamped(px + 1, py - 1) + 2 * im.atClamped(px + 1, py) +
                 im.atClamped(px + 1, py + 1)) -
                (im.atClamped(px - 1, py - 1) + 2 * im.atClamped(px - 1, py) +
                 im.atClamped(px - 1, py + 1));
            const double gy =
                (im.atClamped(px - 1, py + 1) + 2 * im.atClamped(px, py + 1) +
                 im.atClamped(px + 1, py + 1)) -
                (im.atClamped(px - 1, py - 1) + 2 * im.atClamped(px, py - 1) +
                 im.atClamped(px + 1, py - 1));
            sxx += gx * gx;
            syy += gy * gy;
            sxy += gx * gy;
        }
    const double det = sxx * syy - sxy * sxy;
    const double trace = sxx + syy;
    return det - 0.04 * trace * trace;
}

/** The fixed procedural image: a gradient, flat patches, mild noise. */
std::vector<std::uint8_t>
makeImage()
{
    std::vector<std::uint8_t> px(static_cast<std::size_t>(kW) * kH);
    std::uint32_t s = 99;
    const auto next = [&] {
        s = s * 1664525u + 1013904223u;
        return static_cast<int>(s >> 8);
    };
    for (int y = 0; y < kH; ++y)
        for (int x = 0; x < kW; ++x)
            px[y * kW + x] =
                static_cast<std::uint8_t>(60 + x * 80 / kW + y * 40 / kH);
    for (int k = 0; k < kRects; ++k) {
        const int w = 8 + next() % 70, h = 8 + next() % 70;
        const int x0 = next() % (kW - w), y0 = next() % (kH - h);
        const auto v = static_cast<std::uint8_t>(next() % 256);
        for (int y = y0; y < y0 + h; ++y)
            std::fill_n(px.begin() + y * kW + x0, w, v);
    }
    for (auto& p : px)
        p = static_cast<std::uint8_t>(std::clamp(p + next() % 7 - 3, 0, 255));
    return px;
}

volatile double gSink;

} // namespace

Yardstick::Yardstick() : image_(makeImage()) {}

double
Yardstick::sample()
{
    const Image im{image_.data()};
    const double t0 = nowMs();
    double score = 0.0;
    for (int y = kBorder; y < kH - kBorder; ++y)
        for (int x = kBorder; x < kW - kBorder; ++x)
            if (segmentTest(im, x, y))
                score += harris(im, x, y);
    gSink = score;
    const double ms = nowMs() - t0;
    ms_.push_back(ms);
    return ms;
}

void
Yardstick::sampleMany(std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        sample();
}

double
Yardstick::factor(std::size_t lo, std::size_t hi) const
{
    if (lo >= hi || hi > ms_.size())
        die("yardstick: empty or out-of-range sample window");
    const double ms =
        median(std::vector<double>(ms_.begin() + lo, ms_.begin() + hi));
    return std::pow(kYardstickRefMs / ms, kYardstickPower);
}

double
Yardstick::recentFactor() const
{
    const std::size_t n = std::min(kYardstickWindow, ms_.size());
    return factor(ms_.size() - n, ms_.size());
}

double
Yardstick::factorAround(std::size_t i, std::size_t lo,
                        std::size_t hi) const
{
    const std::size_t n = std::min(kYardstickWindow, hi - lo);
    const std::size_t start =
        std::clamp(i >= n / 2 ? i - n / 2 : 0, lo, hi - n);
    return factor(start, start + n);
}

double
Yardstick::medianMs() const
{
    return median(ms_);
}

void
printHostSpeed(const Yardstick& yard, const std::vector<double>& factors)
{
    std::vector<double> f = factors;
    std::sort(f.begin(), f.end());
    const auto at = [&](double q) {
        return f.empty() ? 0.0
                         : f[static_cast<std::size_t>(
                               q * static_cast<double>(f.size() - 1))];
    };
    std::printf("host speed: yardstick median %.4f ms over %zu samples "
                "(reference %.4f ms); host factor q1 %.4f median %.4f "
                "q3 %.4f\n",
                yard.medianMs(), yard.count(), kYardstickRefMs, at(0.25),
                at(0.5), at(0.75));
}

} // namespace adbench
