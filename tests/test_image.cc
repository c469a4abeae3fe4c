/**
 * @file
 * Tests for the image substrate: pixel access, rectangle fills, bilinear
 * sampling/resizing, crop-resize (the tracker's input path) and box
 * filtering, with the tabled resize and the running-sum box filter
 * checked byte for byte against per-pixel references.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "common/image.hh"
#include "common/random.hh"

namespace {

using ad::BBox;
using ad::Image;
using ad::Rng;

/** A width x height image of uniform random bytes. */
Image
randomImage(Rng& rng, int width, int height)
{
    Image img(width, height);
    for (int y = 0; y < height; ++y)
        for (int x = 0; x < width; ++x)
            img.at(x, y) = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
    return img;
}

/** resized() as one sampleBilinear() per output pixel. */
Image
referenceResize(const Image& img, int width, int height)
{
    Image out(width, height);
    const double sx = static_cast<double>(img.width()) / width;
    const double sy = static_cast<double>(img.height()) / height;
    for (int y = 0; y < height; ++y)
        for (int x = 0; x < width; ++x)
            out.at(x, y) = static_cast<std::uint8_t>(std::clamp(
                img.sampleBilinear((x + 0.5) * sx - 0.5,
                                   (y + 0.5) * sy - 0.5),
                0.0, 255.0));
    return out;
}

/** boxFiltered() as the truncated mean of each clipped window. */
Image
referenceBox(const Image& img, int radius)
{
    Image out(img.width(), img.height());
    for (int y = 0; y < img.height(); ++y)
        for (int x = 0; x < img.width(); ++x) {
            std::uint64_t sum = 0;
            std::uint64_t area = 0;
            for (int wy = std::max(0, y - radius);
                 wy <= std::min(img.height() - 1, y + radius); ++wy)
                for (int wx = std::max(0, x - radius);
                     wx <= std::min(img.width() - 1, x + radius); ++wx) {
                    sum += img.at(wx, wy);
                    ++area;
                }
            out.at(x, y) = static_cast<std::uint8_t>(sum / area);
        }
    return out;
}

/** Byte-for-byte comparison naming the first differing pixel. */
::testing::AssertionResult
sameBytes(const Image& got, const Image& want)
{
    if (got.width() != want.width() || got.height() != want.height())
        return ::testing::AssertionFailure()
               << got.width() << "x" << got.height() << " vs "
               << want.width() << "x" << want.height();
    for (int y = 0; y < got.height(); ++y)
        for (int x = 0; x < got.width(); ++x)
            if (got.at(x, y) != want.at(x, y))
                return ::testing::AssertionFailure()
                       << "pixel (" << x << ", " << y << "): "
                       << int(got.at(x, y)) << " vs " << int(want.at(x, y));
    return ::testing::AssertionSuccess();
}

TEST(Image, ConstructAndFill)
{
    Image img(8, 4, 7);
    EXPECT_EQ(img.width(), 8);
    EXPECT_EQ(img.height(), 4);
    EXPECT_EQ(img.size(), 32u);
    EXPECT_EQ(img.at(3, 2), 7);
    img.fill(200);
    EXPECT_EQ(img.at(7, 3), 200);
    EXPECT_FALSE(img.empty());
    EXPECT_TRUE(Image().empty());
}

TEST(Image, FillRectClipsToBounds)
{
    Image img(10, 10, 0);
    img.fillRect(BBox(-5, -5, 8, 8), 255);
    EXPECT_EQ(img.at(0, 0), 255);
    EXPECT_EQ(img.at(2, 2), 255);
    EXPECT_EQ(img.at(3, 3), 0);
    img.fillRect(BBox(8, 8, 100, 100), 9);
    EXPECT_EQ(img.at(9, 9), 9);
    EXPECT_EQ(img.at(7, 7), 0);
}

TEST(Image, ClampedAccess)
{
    Image img(4, 4, 0);
    img.at(0, 0) = 10;
    img.at(3, 3) = 20;
    EXPECT_EQ(img.atClamped(-5, -5), 10);
    EXPECT_EQ(img.atClamped(100, 100), 20);
}

TEST(Image, BilinearInterpolatesMidpoint)
{
    Image img(2, 1, 0);
    img.at(0, 0) = 0;
    img.at(1, 0) = 100;
    EXPECT_NEAR(img.sampleBilinear(0.5, 0.0), 50.0, 1e-9);
    EXPECT_NEAR(img.sampleBilinear(0.0, 0.0), 0.0, 1e-9);
    EXPECT_NEAR(img.sampleBilinear(1.0, 0.0), 100.0, 1e-9);
}

TEST(Image, ResizePreservesConstantImage)
{
    Image img(16, 12, 123);
    const Image small = img.resized(7, 5);
    EXPECT_EQ(small.width(), 7);
    EXPECT_EQ(small.height(), 5);
    for (int y = 0; y < 5; ++y)
        for (int x = 0; x < 7; ++x)
            EXPECT_EQ(small.at(x, y), 123);
}

TEST(Image, ResizeUpAndDownRoughlyPreservesMean)
{
    Rng rng(3);
    Image img(32, 32);
    for (int y = 0; y < 32; ++y)
        for (int x = 0; x < 32; ++x)
            img.at(x, y) = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
    const double mean = img.meanIntensity();
    EXPECT_NEAR(img.resized(64, 64).meanIntensity(), mean, 4.0);
    EXPECT_NEAR(img.resized(16, 16).meanIntensity(), mean, 6.0);
}

TEST(Image, CropResizedExtractsRegion)
{
    Image img(20, 20, 0);
    img.fillRect(BBox(10, 10, 10, 10), 200);
    // Crop exactly the bright quadrant.
    const Image crop = img.cropResized(BBox(10, 10, 10, 10), 5, 5);
    for (int y = 1; y < 4; ++y)
        for (int x = 1; x < 4; ++x)
            EXPECT_GT(crop.at(x, y), 150) << x << "," << y;
    // Crop the dark quadrant.
    const Image dark = img.cropResized(BBox(0, 0, 10, 10), 5, 5);
    EXPECT_LT(dark.at(2, 2), 50);
}

TEST(Image, BoxFilterSmoothsImpulse)
{
    Image img(9, 9, 0);
    img.at(4, 4) = 255;
    const Image smooth = img.boxFiltered(1);
    EXPECT_EQ(smooth.at(4, 4), 255 / 9);
    EXPECT_EQ(smooth.at(3, 3), 255 / 9);
    EXPECT_EQ(smooth.at(0, 0), 0);
}

TEST(Image, ResizeMatchesPerPixelSample)
{
    Rng rng(11);
    struct Case
    {
        int srcW, srcH, dstW, dstH;
    };
    const Case cases[] = {
        {64, 36, 53, 30},  // one ORB pyramid step (1 / 1.2)
        {97, 61, 44, 25},  // deeper downsampling
        {17, 13, 5, 3},
        {7, 5, 23, 19},    // upsampling
        {3, 2, 16, 16},
        {40, 30, 1, 1},    // 1x1 target
        {1, 9, 4, 3},      // one-column source
        {9, 1, 3, 4},      // one-row source
        {1, 1, 5, 2},
    };
    for (const Case& c : cases) {
        const Image img = randomImage(rng, c.srcW, c.srcH);
        EXPECT_TRUE(sameBytes(img.resized(c.dstW, c.dstH),
                              referenceResize(img, c.dstW, c.dstH)))
            << c.srcW << "x" << c.srcH << " -> " << c.dstW << "x"
            << c.dstH;
    }
    for (const std::uint8_t v : {0, 255}) {
        const Image flat(33, 21, v);
        EXPECT_TRUE(sameBytes(flat.resized(27, 17),
                              referenceResize(flat, 27, 17)));
        EXPECT_TRUE(sameBytes(flat.resized(50, 40),
                              referenceResize(flat, 50, 40)));
    }
}

TEST(Image, BoxFilterMatchesBruteForceMean)
{
    Rng rng(12);
    const int sizes[][2] = {{40, 31}, {17, 13}, {5, 9}, {9, 5}, {3, 2},
                            {1, 1}, {1, 12}, {12, 1}};
    for (const auto& size : sizes) {
        const Image img = randomImage(rng, size[0], size[1]);
        for (int radius = 1; radius <= 4; ++radius)
            EXPECT_TRUE(sameBytes(img.boxFiltered(radius),
                                  referenceBox(img, radius)))
                << size[0] << "x" << size[1] << " radius " << radius;
    }
    // All-255 images put every window at its largest sum.
    for (const std::uint8_t v : {0, 255}) {
        const Image flat(23, 19, v);
        for (int radius = 1; radius <= 4; ++radius)
            EXPECT_TRUE(sameBytes(flat.boxFiltered(radius),
                                  referenceBox(flat, radius)));
    }
    // Windows too large for the reciprocal divide, and a radius past
    // the image's extent.
    const Image img = randomImage(rng, 70, 50);
    EXPECT_TRUE(sameBytes(img.boxFiltered(33), referenceBox(img, 33)));
    EXPECT_TRUE(sameBytes(img.boxFiltered(1000), referenceBox(img, 1000)));
    // Radius 0 is the identity.
    EXPECT_TRUE(sameBytes(img.boxFiltered(0), img));
}

} // namespace
