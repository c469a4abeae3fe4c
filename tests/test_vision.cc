/**
 * @file
 * Tests for the ORB feature-extraction substrate: LUT trigonometry vs
 * libm, FAST segment test on synthetic corners, Harris ranking,
 * orientation, rBRIEF descriptor invariances, pyramid extraction and
 * descriptor matching. The vectorised kernels are checked bit for bit
 * against per-pixel scalar references over seeded random images.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <initializer_list>
#include <string>

#include "common/random.hh"
#include "vision/orb.hh"

namespace {

using namespace ad::vision;
using ad::Image;
using ad::Rng;

/** Render a bright axis-aligned square on a dark background. */
Image
squareImage(int size, int x0, int y0, int side)
{
    Image img(size, size, 40);
    img.fillRect(ad::BBox(x0, y0, side, side), 220);
    return img;
}

/** Add uniform noise so FAST has texture to work with. */
void
addNoise(Image& img, Rng& rng, int amplitude)
{
    for (int y = 0; y < img.height(); ++y)
        for (int x = 0; x < img.width(); ++x) {
            const int v = img.at(x, y) + rng.uniformInt(-amplitude,
                                                        amplitude);
            img.at(x, y) = static_cast<std::uint8_t>(std::clamp(v, 0, 255));
        }
}

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

/** intensityCentroidBin() as per-pixel float accumulation. */
int
referenceCentroidBin(const Image& img, int x, int y, TrigMode mode)
{
    constexpr int radius = 8;
    float m10 = 0;
    float m01 = 0;
    for (int dy = -radius; dy <= radius; ++dy) {
        for (int dx = -radius; dx <= radius; ++dx) {
            if (dx * dx + dy * dy > radius * radius)
                continue;
            const float v = img.atClamped(x + dx, y + dy);
            m10 += static_cast<float>(dx) * v;
            m01 += static_cast<float>(dy) * v;
        }
    }
    if (mode == TrigMode::Lut)
        return TrigTables::instance().atan2Bin(m01, m10);
    return naiveAtan2Bin(m01, m10);
}

/**
 * detectFast() as a per-pixel loop over fastSegmentTest() and
 * harrisResponse(), with the same grid NMS and top-N.
 */
std::vector<Keypoint>
referenceDetect(const Image& img, const FastParams& params,
                FastOpCounts& counts)
{
    constexpr int border = 11;
    std::vector<Keypoint> candidates;
    for (int y = border; y < img.height() - border; ++y) {
        for (int x = border; x < img.width() - border; ++x) {
            ++counts.pixelsTested;
            if (!fastSegmentTest(img, x, y, params.threshold))
                continue;
            Keypoint kp;
            kp.x = static_cast<float>(x);
            kp.y = static_cast<float>(y);
            kp.response = harrisResponse(img, x, y);
            candidates.push_back(kp);
        }
    }
    counts.candidates += candidates.size();

    const int cell = std::max(1, params.cellSize);
    const int gw = (img.width() + cell - 1) / cell;
    const int gh = (img.height() + cell - 1) / cell;
    std::vector<int> bestInCell(static_cast<std::size_t>(gw) * gh, -1);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        const int cx = static_cast<int>(candidates[i].x) / cell;
        const int cy = static_cast<int>(candidates[i].y) / cell;
        int& best = bestInCell[static_cast<std::size_t>(cy) * gw + cx];
        if (best < 0 || candidates[best].response < candidates[i].response)
            best = static_cast<int>(i);
    }
    std::vector<Keypoint> kept;
    for (const int idx : bestInCell)
        if (idx >= 0)
            kept.push_back(candidates[idx]);
    if (static_cast<int>(kept.size()) > params.maxKeypoints) {
        std::nth_element(kept.begin(), kept.begin() + params.maxKeypoints,
                         kept.end(), [](const Keypoint& a, const Keypoint& b)
                         { return a.response > b.response; });
        kept.resize(params.maxKeypoints);
    }
    for (auto& kp : kept)
        kp.orientationBin = referenceCentroidBin(
            img, static_cast<int>(kp.x), static_cast<int>(kp.y),
            params.trigMode);
    counts.keypoints += kept.size();
    return kept;
}

/** detectFast() and referenceDetect() agree bit for bit. */
::testing::AssertionResult
detectMatchesReference(const Image& img, const FastParams& params)
{
    FastOpCounts got;
    FastOpCounts want;
    const auto fast = detectFast(img, params, &got);
    const auto ref = referenceDetect(img, params, want);
    if (got.pixelsTested != want.pixelsTested ||
        got.candidates != want.candidates || got.keypoints != want.keypoints)
        return ::testing::AssertionFailure()
               << "counts (tested, candidates, keypoints) ("
               << got.pixelsTested << ", " << got.candidates << ", "
               << got.keypoints << ") vs (" << want.pixelsTested << ", "
               << want.candidates << ", " << want.keypoints << ")";
    if (fast.size() != ref.size())
        return ::testing::AssertionFailure()
               << fast.size() << " keypoints vs " << ref.size();
    for (std::size_t i = 0; i < fast.size(); ++i) {
        const Keypoint& a = fast[i];
        const Keypoint& b = ref[i];
        if (a.x != b.x || a.y != b.y ||
            std::bit_cast<std::uint32_t>(a.response) !=
                std::bit_cast<std::uint32_t>(b.response) ||
            a.orientationBin != b.orientationBin || a.level != b.level)
            return ::testing::AssertionFailure()
                   << "keypoint " << i << ": (" << a.x << ", " << a.y
                   << ", " << a.response << ", bin " << a.orientationBin
                   << ") vs (" << b.x << ", " << b.y << ", " << b.response
                   << ", bin " << b.orientationBin << ")";
    }
    return ::testing::AssertionSuccess();
}

/** describeKeypoint() with clamped reads for every test. */
Descriptor
referenceDescribe(const Image& smoothed, const Keypoint& kp)
{
    const auto& tests = BriefPattern::instance().rotated(kp.orientationBin);
    Descriptor desc;
    const int cx = static_cast<int>(kp.x);
    const int cy = static_cast<int>(kp.y);
    for (int i = 0; i < 256; ++i) {
        const auto& t = tests[i];
        if (smoothed.atClamped(cx + t.ax, cy + t.ay) <
            smoothed.atClamped(cx + t.bx, cy + t.by))
            desc.words[i >> 6] |= 1ULL << (i & 63);
    }
    return desc;
}

TEST(LutTrig, BinRoundTrip)
{
    const TrigTables& t = TrigTables::instance();
    for (int bin = 0; bin < kOrientationBins; ++bin) {
        EXPECT_EQ(TrigTables::binOf(t.angleOf(bin)), bin);
        EXPECT_NEAR(t.sinOf(bin), std::sin(t.angleOf(bin)), 1e-6);
        EXPECT_NEAR(t.cosOf(bin), std::cos(t.angleOf(bin)), 1e-6);
    }
}

TEST(LutTrig, Atan2BinMatchesNaiveWithinOneBin)
{
    const TrigTables& t = TrigTables::instance();
    Rng rng(5);
    int mismatchedByMore = 0;
    for (int i = 0; i < 2000; ++i) {
        const float x = static_cast<float>(rng.uniform(-100, 100));
        const float y = static_cast<float>(rng.uniform(-100, 100));
        const int lut = t.atan2Bin(y, x);
        const int naive = naiveAtan2Bin(y, x);
        const int diff = std::abs(lut - naive);
        const int circDiff = std::min(diff, kOrientationBins - diff);
        if (circDiff > 1)
            ++mismatchedByMore;
    }
    // The LUT quantization may flip a borderline angle into the
    // neighboring bin but never further.
    EXPECT_EQ(mismatchedByMore, 0);
}

TEST(LutTrig, Atan2BinQuadrants)
{
    const TrigTables& t = TrigTables::instance();
    EXPECT_EQ(t.atan2Bin(0.0f, 1.0f), 0);                       // +x
    EXPECT_EQ(t.atan2Bin(1.0f, 0.0f), kOrientationBins / 4);    // +y
    EXPECT_EQ(t.atan2Bin(0.0f, -1.0f), kOrientationBins / 2);   // -x
    EXPECT_EQ(t.atan2Bin(-1.0f, 0.0f), 3 * kOrientationBins / 4);
    EXPECT_EQ(t.atan2Bin(0.0f, 0.0f), 0); // degenerate input
}

TEST(Fast, DetectsSquareCorners)
{
    Image img = squareImage(64, 24, 24, 16);
    FastParams params;
    params.threshold = 30;
    const auto kps = detectFast(img, params);
    ASSERT_FALSE(kps.empty());
    // Every detection should be near one of the four square corners.
    for (const auto& kp : kps) {
        const double dx1 = std::min(std::abs(kp.x - 24), std::abs(kp.x - 40));
        const double dy1 = std::min(std::abs(kp.y - 24), std::abs(kp.y - 40));
        EXPECT_LT(dx1, 5.0);
        EXPECT_LT(dy1, 5.0);
    }
}

TEST(Fast, FlatImageHasNoCorners)
{
    Image img(64, 64, 128);
    FastParams params;
    const auto kps = detectFast(img, params);
    EXPECT_TRUE(kps.empty());
}

TEST(Fast, SegmentTestNeedsContiguousArc)
{
    // A single bright pixel at the circle is not a corner; a bright
    // half-plane is.
    Image img(16, 16, 100);
    EXPECT_FALSE(fastSegmentTest(img, 8, 8, 20));
    for (int y = 0; y < 16; ++y)
        for (int x = 9; x < 16; ++x)
            img.at(x, y) = 200;
    // Center pixel on the dark side, right half bright -> arc of
    // brighter pixels spans ~7 of 16... extend to a corner shape.
    for (int y = 9; y < 16; ++y)
        for (int x = 0; x < 16; ++x)
            img.at(x, y) = 200;
    EXPECT_TRUE(fastSegmentTest(img, 8, 8, 20));
}

TEST(Fast, ThresholdSweepMonotone)
{
    Rng rng(17);
    Image img = squareImage(96, 30, 30, 30);
    addNoise(img, rng, 8);
    std::size_t prev = SIZE_MAX;
    for (int threshold : {10, 25, 45, 70}) {
        FastParams params;
        params.threshold = threshold;
        params.cellSize = 4;
        const auto kps = detectFast(img, params);
        EXPECT_LE(kps.size(), prev) << "threshold " << threshold;
        prev = kps.size();
    }
}

TEST(Fast, OpCountsAccumulate)
{
    Image img = squareImage(64, 20, 20, 24);
    FastParams params;
    FastOpCounts counts;
    detectFast(img, params, &counts);
    EXPECT_GT(counts.pixelsTested, 0u);
    EXPECT_GE(counts.candidates, counts.keypoints);
    const auto before = counts.pixelsTested;
    detectFast(img, params, &counts);
    EXPECT_EQ(counts.pixelsTested, 2 * before);
}

TEST(Fast, DetectMatchesPerPixelReference)
{
    // cellSize 1 keeps every candidate, so the responses and
    // orientations of all corners are compared, not only the NMS
    // winners'. Widths straddle multiples of the 16-pixel block.
    Rng rng(51);
    const int sizes[][2] = {{64, 48},  {53, 40},  {38, 30},  {39, 33},
                            {37, 25},  {23, 23},  {24, 60},  {100, 37},
                            {131, 29}, {80, 45}};
    for (const auto& size : sizes) {
        Image noise = randomImage(rng, size[0], size[1]);
        const Image smooth = noise.boxFiltered(1);
        Image squares(size[0], size[1], 90);
        for (int i = 0; i < 12; ++i)
            squares.fillRect(ad::BBox(rng.uniform(0, size[0]),
                                      rng.uniform(0, size[1]),
                                      rng.uniform(3, 12), rng.uniform(3, 12)),
                             static_cast<std::uint8_t>(
                                 rng.uniformInt(0, 255)));
        addNoise(squares, rng, 4);
        for (const Image* img :
             std::initializer_list<const Image*>{&noise, &smooth,
                                                 &squares}) {
            for (const int threshold : {0, 1, 20, 60, 254, 255}) {
                FastParams params;
                params.threshold = threshold;
                params.cellSize = 1;
                params.maxKeypoints = 100000;
                EXPECT_TRUE(detectMatchesReference(*img, params))
                    << size[0] << "x" << size[1] << " threshold "
                    << threshold;
            }
            // Default NMS, a top-N cut, and the libm orientation arm.
            FastParams params;
            params.maxKeypoints = 5;
            params.trigMode = TrigMode::Naive;
            EXPECT_TRUE(detectMatchesReference(*img, params));
            params.maxKeypoints = 0;
            EXPECT_TRUE(detectMatchesReference(*img, params));
        }
    }
}

TEST(Fast, ExtremeImagesAndThresholds)
{
    // Flat images have no corners at any threshold; a bright square on
    // black is still found at threshold 254 and never at 255.
    for (const std::uint8_t v : {0, 255}) {
        const Image flat(45, 40, v);
        for (const int threshold : {0, 255}) {
            FastParams params;
            params.threshold = threshold;
            EXPECT_TRUE(detectMatchesReference(flat, params));
            EXPECT_TRUE(detectFast(flat, params).empty());
        }
    }
    Image square(64, 48, 0);
    square.fillRect(ad::BBox(20, 16, 20, 16), 255);
    FastParams params;
    params.cellSize = 1;
    for (const int threshold : {0, 254, 255}) {
        params.threshold = threshold;
        EXPECT_TRUE(detectMatchesReference(square, params));
    }
    params.threshold = 254;
    EXPECT_FALSE(detectFast(square, params).empty());
    params.threshold = 255;
    EXPECT_TRUE(detectFast(square, params).empty());
}

TEST(Fast, RejectsParametersOutsideTheirRange)
{
    const Image img(32, 32, 100);
    FastParams params;
    params.threshold = 256;
    EXPECT_DEATH(detectFast(img, params), "FastParams::threshold.*got 256");
    params.threshold = -1;
    EXPECT_DEATH(detectFast(img, params), "FastParams::threshold.*got -1");
    params.threshold = 20;
    params.maxKeypoints = -1;
    EXPECT_DEATH(detectFast(img, params),
                 "FastParams::maxKeypoints.*got -1");
}

TEST(Harris, CornerBeatsEdgeAndFlat)
{
    Image img = squareImage(64, 24, 24, 16);
    const float corner = harrisResponse(img, 24, 24);
    const float edge = harrisResponse(img, 32, 24);   // on the top edge
    const float flat = harrisResponse(img, 10, 10);
    EXPECT_GT(corner, edge);
    EXPECT_GT(corner, flat);
    EXPECT_NEAR(flat, 0.0f, 1.0f);
}

TEST(Orientation, PointsTowardBrightMass)
{
    // Bright half-plane to the right: centroid points along +x (bin 0).
    Image img(64, 64, 30);
    for (int y = 0; y < 64; ++y)
        for (int x = 32; x < 64; ++x)
            img.at(x, y) = 220;
    const int bin = intensityCentroidBin(img, 32, 32, TrigMode::Lut);
    EXPECT_EQ(bin, 0);
    // Bright below: +y direction.
    Image img2(64, 64, 30);
    for (int y = 32; y < 64; ++y)
        for (int x = 0; x < 64; ++x)
            img2.at(x, y) = 220;
    EXPECT_EQ(intensityCentroidBin(img2, 32, 32, TrigMode::Lut),
              kOrientationBins / 4);
}

TEST(Orientation, LutAndNaiveAgree)
{
    Rng rng(23);
    Image img(64, 64);
    addNoise(img, rng, 120);
    int disagreements = 0;
    for (int i = 0; i < 50; ++i) {
        const int x = rng.uniformInt(16, 48);
        const int y = rng.uniformInt(16, 48);
        const int a = intensityCentroidBin(img, x, y, TrigMode::Lut);
        const int b = intensityCentroidBin(img, x, y, TrigMode::Naive);
        const int diff = std::abs(a - b);
        if (std::min(diff, kOrientationBins - diff) > 1)
            ++disagreements;
    }
    EXPECT_EQ(disagreements, 0);
}

TEST(Orientation, MatchesFloatAccumulationEverywhere)
{
    // Integer moments equal the per-pixel float sums, for discs inside
    // the image and for discs the border clamps.
    Rng rng(24);
    const Image img = randomImage(rng, 37, 29);
    for (const TrigMode mode : {TrigMode::Lut, TrigMode::Naive})
        for (int y = -2; y < img.height() + 2; ++y)
            for (int x = -2; x < img.width() + 2; ++x)
                ASSERT_EQ(intensityCentroidBin(img, x, y, mode),
                          referenceCentroidBin(img, x, y, mode))
                    << x << ", " << y;
    for (const std::uint8_t v : {0, 255}) {
        const Image flat(20, 20, v);
        EXPECT_EQ(intensityCentroidBin(flat, 10, 10, TrigMode::Naive),
                  referenceCentroidBin(flat, 10, 10, TrigMode::Naive));
    }
}

TEST(Brief, DescriptorMatchesClampedReference)
{
    // Keypoints at every position of a small image, so the pattern
    // reaches past each border and also fits inside.
    Rng rng(34);
    const Image img = randomImage(rng, 45, 38);
    for (int y = 0; y < img.height(); ++y)
        for (int x = 0; x < img.width(); ++x) {
            Keypoint kp;
            kp.x = static_cast<float>(x);
            kp.y = static_cast<float>(y);
            kp.orientationBin = (x * 7 + y) % kOrientationBins;
            ASSERT_EQ(describeKeypoint(img, kp), referenceDescribe(img, kp))
                << x << ", " << y;
        }
}

TEST(Brief, HammingMatchesBitLoop)
{
    Rng rng(35);
    const auto bitLoop = [](const Descriptor& a, const Descriptor& b) {
        int dist = 0;
        for (int i = 0; i < 256; ++i)
            dist += ((a.words[i >> 6] >> (i & 63)) & 1) !=
                    ((b.words[i >> 6] >> (i & 63)) & 1);
        return dist;
    };
    std::vector<Descriptor> descs(64);
    for (auto& d : descs)
        for (auto& word : d.words)
            word = rng();
    // Sparse and dense words as well as uniform ones.
    descs[0].words = {0, 0, 0, 0};
    descs[1].words = {~0ULL, ~0ULL, ~0ULL, ~0ULL};
    descs[2].words = {1, 1ULL << 63, 0x8000000000000001ULL, 0};
    for (std::size_t i = 3; i < 16; ++i)
        for (auto& word : descs[i].words)
            word &= rng() & rng();
    for (const auto& a : descs)
        for (const auto& b : descs)
            ASSERT_EQ(a.hamming(b), bitLoop(a, b));
}

TEST(Brief, DescriptorDeterministic)
{
    Rng rng(31);
    Image img(64, 64);
    addNoise(img, rng, 120);
    Keypoint kp;
    kp.x = 32;
    kp.y = 32;
    kp.orientationBin = 3;
    const Descriptor d1 = describeKeypoint(img, kp);
    const Descriptor d2 = describeKeypoint(img, kp);
    EXPECT_EQ(d1, d2);
    EXPECT_EQ(d1.hamming(d2), 0);
}

TEST(Brief, DistinctPatchesDiffer)
{
    Rng rng(32);
    Image img(128, 64);
    addNoise(img, rng, 120);
    Keypoint a;
    a.x = 32;
    a.y = 32;
    Keypoint b;
    b.x = 96;
    b.y = 32;
    const Descriptor da = describeKeypoint(img, a);
    const Descriptor db = describeKeypoint(img, b);
    // Random texture: expect near-50% bit disagreement.
    EXPECT_GT(da.hamming(db), 60);
}

TEST(Brief, HammingProperties)
{
    Descriptor zero;
    Descriptor ones;
    ones.words = {~0ULL, ~0ULL, ~0ULL, ~0ULL};
    EXPECT_EQ(zero.hamming(ones), 256);
    EXPECT_EQ(zero.hamming(zero), 0);
    Descriptor one;
    one.words = {1, 0, 0, 0};
    EXPECT_EQ(zero.hamming(one), 1);
    EXPECT_EQ(one.hamming(zero), 1);
}

TEST(Brief, RotationInvarianceOnRotatedPatch)
{
    // Describe a textured patch, then rotate the image 90 degrees and
    // describe the same physical point with the rotated orientation:
    // descriptors should be much closer than chance (~128 bits).
    Rng rng(33);
    Image img(65, 65);
    addNoise(img, rng, 120);
    img = img.boxFiltered(1); // correlated texture survives rotation

    // Rotate image content by -90 degrees: (x, y) -> (y, w-1-x); the
    // intensity-centroid orientation of the same physical point drops
    // by a quarter turn, i.e.\ bin 0 -> bin 24.
    Image rot(65, 65);
    for (int y = 0; y < 65; ++y)
        for (int x = 0; x < 65; ++x)
            rot.at(y, 64 - x) = img.at(x, y);

    Keypoint kp;
    kp.x = 32;
    kp.y = 32;
    kp.orientationBin = 0;
    const Descriptor d0 = describeKeypoint(img, kp);
    Keypoint kpRot;
    kpRot.x = 32;
    kpRot.y = 32;
    kpRot.orientationBin = 3 * kOrientationBins / 4;
    const Descriptor d90 = describeKeypoint(rot, kpRot);
    EXPECT_LT(d0.hamming(d90), 70);
}

TEST(Orb, ExtractsFeaturesWithLevel0Coordinates)
{
    Rng rng(41);
    Image img = squareImage(256, 100, 100, 60);
    addNoise(img, rng, 6);
    OrbExtractor orb;
    OrbProfile profile;
    const auto features = orb.extract(img, &profile);
    ASSERT_GT(features.size(), 4u);
    for (const auto& f : features) {
        EXPECT_GE(f.kp.x, 0);
        EXPECT_LT(f.kp.x, 256);
        EXPECT_GE(f.kp.y, 0);
        EXPECT_LT(f.kp.y, 256);
    }
    EXPECT_GT(profile.pixelsProcessed, 256u * 256u); // pyramid > level 0
    EXPECT_EQ(profile.brief.descriptors, features.size());
    EXPECT_EQ(profile.brief.binaryTests, features.size() * 256u);
}

TEST(Orb, MatcherFindsIdentityMatches)
{
    Rng rng(42);
    Image img(256, 128);
    addNoise(img, rng, 120);
    img = img.boxFiltered(1);
    OrbExtractor orb;
    const auto features = orb.extract(img);
    ASSERT_GT(features.size(), 10u);
    std::vector<Descriptor> descs;
    for (const auto& f : features)
        descs.push_back(f.desc);
    const auto matches = matchDescriptors(descs, descs, 64, 1.01);
    // Self-matching: every descriptor matches itself at distance 0.
    ASSERT_EQ(matches.size(), descs.size());
    for (const auto& m : matches) {
        EXPECT_EQ(m.indexA, m.indexB);
        EXPECT_EQ(m.distance, 0);
    }
}

TEST(Orb, MatcherRespectsMaxDistance)
{
    std::vector<Descriptor> a(1);
    std::vector<Descriptor> b(1);
    b[0].words = {~0ULL, ~0ULL, 0, 0}; // distance 128
    EXPECT_TRUE(matchDescriptors(a, b, 64, 0.8).empty());
    EXPECT_EQ(matchDescriptors(a, b, 200, 0.8).size(), 1u);
}

TEST(Orb, MatcherEmptyInputs)
{
    std::vector<Descriptor> a(3);
    std::vector<Descriptor> none;
    EXPECT_TRUE(matchDescriptors(a, none).empty());
    EXPECT_TRUE(matchDescriptors(none, a).empty());
}

} // namespace
