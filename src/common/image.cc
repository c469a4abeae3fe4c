#include "common/image.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace ad {

Image::Image(int width, int height, std::uint8_t fill)
    : width_(width), height_(height)
{
    if (width < 0 || height < 0)
        panic("Image: negative dimensions ", width, "x", height);
    data_.assign(static_cast<std::size_t>(width) * height, fill);
}

std::uint8_t
Image::atClamped(int x, int y) const
{
    x = std::clamp(x, 0, width_ - 1);
    y = std::clamp(y, 0, height_ - 1);
    return at(x, y);
}

void
Image::fill(std::uint8_t value)
{
    std::fill(data_.begin(), data_.end(), value);
}

void
Image::fillRect(const BBox& rect, std::uint8_t value)
{
    const int x0 = std::max(0, static_cast<int>(std::floor(rect.x)));
    const int y0 = std::max(0, static_cast<int>(std::floor(rect.y)));
    const int x1 = std::min(width_, static_cast<int>(std::ceil(rect.xmax())));
    const int y1 = std::min(height_,
                            static_cast<int>(std::ceil(rect.ymax())));
    for (int y = y0; y < y1; ++y)
        std::fill(row(y) + x0, row(y) + x1, value);
}

double
Image::sampleBilinear(double x, double y) const
{
    x = std::clamp(x, 0.0, static_cast<double>(width_ - 1));
    y = std::clamp(y, 0.0, static_cast<double>(height_ - 1));
    const int x0 = static_cast<int>(x);
    const int y0 = static_cast<int>(y);
    const int x1 = std::min(x0 + 1, width_ - 1);
    const int y1 = std::min(y0 + 1, height_ - 1);
    const double fx = x - x0;
    const double fy = y - y0;
    const double top = at(x0, y0) * (1 - fx) + at(x1, y0) * fx;
    const double bot = at(x0, y1) * (1 - fx) + at(x1, y1) * fx;
    return top * (1 - fy) + bot * fy;
}

namespace {

/** One output coordinate's bilinear taps, as sampleBilinear() forms them. */
struct BilinearTap
{
    int i0 = 0;   ///< lower source index.
    int i1 = 0;   ///< upper source index (clamped to the last).
    double f = 0; ///< weight of i1.
    double g = 0; ///< weight of i0: 1 - f.
};

/** The taps of n output samples spread over a source axis of length src. */
std::vector<BilinearTap>
bilinearTaps(int n, int src)
{
    std::vector<BilinearTap> taps(static_cast<std::size_t>(n));
    const double scale = static_cast<double>(src) / n;
    for (int i = 0; i < n; ++i) {
        const double c = std::clamp((i + 0.5) * scale - 0.5, 0.0,
                                    static_cast<double>(src - 1));
        BilinearTap& t = taps[static_cast<std::size_t>(i)];
        t.i0 = static_cast<int>(c);
        t.i1 = std::min(t.i0 + 1, src - 1);
        t.f = c - t.i0;
        t.g = 1 - t.f;
    }
    return taps;
}

} // namespace

Image
Image::resized(int newWidth, int newHeight) const
{
    Image out(newWidth, newHeight);
    if (empty() || newWidth <= 0 || newHeight <= 0)
        return out;
    // sampleBilinear()'s taps depend on x alone or on y alone. With
    // them tabled, the same double expression runs in the same order,
    // so every byte equals the per-pixel sample's.
    const std::vector<BilinearTap> cols = bilinearTaps(newWidth, width_);
    const std::vector<BilinearTap> rows = bilinearTaps(newHeight, height_);
    for (int y = 0; y < newHeight; ++y) {
        const BilinearTap& ty = rows[static_cast<std::size_t>(y)];
        const std::uint8_t* r0 = row(ty.i0);
        const std::uint8_t* r1 = row(ty.i1);
        std::uint8_t* dst = out.row(y);
        for (int x = 0; x < newWidth; ++x) {
            const BilinearTap& tx = cols[static_cast<std::size_t>(x)];
            const double top = r0[tx.i0] * tx.g + r0[tx.i1] * tx.f;
            const double bot = r1[tx.i0] * tx.g + r1[tx.i1] * tx.f;
            dst[x] = static_cast<std::uint8_t>(
                std::clamp(top * ty.g + bot * ty.f, 0.0, 255.0));
        }
    }
    return out;
}

Image
Image::cropResized(const BBox& rect, int outW, int outH) const
{
    Image out(outW, outH);
    if (empty() || rect.empty())
        return out;
    for (int y = 0; y < outH; ++y) {
        const double srcY = rect.y + (y + 0.5) / outH * rect.h - 0.5;
        for (int x = 0; x < outW; ++x) {
            const double srcX = rect.x + (x + 0.5) / outW * rect.w - 0.5;
            out.at(x, y) = static_cast<std::uint8_t>(
                std::clamp(sampleBilinear(srcX, srcY), 0.0, 255.0));
        }
    }
    return out;
}

Image
Image::boxFiltered(int radius) const
{
    if (radius <= 0 || empty())
        return *this;
    // A radius past the image's extent covers all of it either way.
    const std::size_t r = std::min<std::size_t>(
        static_cast<std::size_t>(radius),
        static_cast<std::size_t>(std::max(width_, height_)));
    const std::size_t w = static_cast<std::size_t>(width_);
    const std::size_t h = static_cast<std::size_t>(height_);
    const std::size_t side = 2 * r + 1;

    // cols[r + x] sums column x over the window's rows: it gains the
    // row entering the window and loses the one leaving it. The r
    // zeros before and r + 1 after stand in for clipped columns.
    std::vector<std::uint64_t> cols(w + side, 0);
    const auto addRow = [&](std::size_t y) {
        const std::uint8_t* src = row(static_cast<int>(y));
        for (std::size_t x = 0; x < w; ++x)
            cols[r + x] += src[x];
    };
    const auto subtractRow = [&](std::size_t y) {
        const std::uint8_t* src = row(static_cast<int>(y));
        for (std::size_t x = 0; x < w; ++x)
            cols[r + x] -= src[x];
    };

    Image out(width_, height_);
    for (std::size_t y = 0; y < std::min(h, r); ++y)
        addRow(y);
    // Columns [r, w - r) have unclipped windows.
    const std::size_t innerBegin = std::min(w, r);
    const std::size_t innerEnd = std::max(innerBegin, w > r ? w - r : 0);
    for (std::size_t y = 0; y < h; ++y) {
        // The window's rows are [y - r, y + r], clipped to the image.
        if (y + r < h)
            addRow(y + r);
        if (y > r)
            subtractRow(y - r - 1);
        const std::uint64_t rows =
            std::min(h, y + r + 1) - (y > r ? y - r : 0);

        // Unclipped windows share one divisor d. For every sum n <=
        // 255 d, (n * (floor(2^32 / d) + 1)) >> 32 is floor(n / d)
        // when 255 d^2 < 2^32: the product overshoots n / d by less
        // than 255 d / 2^32 < 1 / d, too little to reach the next
        // integer. Clipped windows, and larger d, divide.
        const std::uint64_t full = side * rows;
        const bool byReciprocal =
            full < 4096 && 255 * full * full < (std::uint64_t{1} << 32);
        const std::uint64_t reciprocal =
            (std::uint64_t{1} << 32) / full + 1;

        // sum is the window total of column x: cols[x .. x + 2r].
        std::uint64_t sum = 0;
        for (std::size_t i = 0; i < side; ++i)
            sum += cols[i];
        std::uint8_t* dst = out.row(static_cast<int>(y));
        const auto divide = [&](std::size_t x) {
            const std::uint64_t area =
                (std::min(w, x + r + 1) - (x > r ? x - r : 0)) * rows;
            dst[x] = static_cast<std::uint8_t>(sum / area);
        };
        std::size_t x = 0;
        for (; x < innerBegin; ++x) {
            divide(x);
            sum += cols[x + side] - cols[x];
        }
        if (byReciprocal) {
            for (; x < innerEnd; ++x) {
                dst[x] = static_cast<std::uint8_t>((sum * reciprocal) >> 32);
                sum += cols[x + side] - cols[x];
            }
        }
        for (; x < w; ++x) {
            divide(x);
            sum += cols[x + side] - cols[x];
        }
    }
    return out;
}

double
Image::meanIntensity() const
{
    if (empty())
        return 0.0;
    std::uint64_t sum = 0;
    for (const auto v : data_)
        sum += v;
    return static_cast<double>(sum) / static_cast<double>(data_.size());
}

} // namespace ad
