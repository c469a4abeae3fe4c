/**
 * @file
 * Tests for the layer zoo: convolution against a direct reference and,
 * bit for bit on every ISA tier, against an order-exact oracle;
 * pooling, activations, fully connected layers, shape propagation and
 * the FLOP/byte profiles the accelerator models rely on.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/random.hh"
#include "nn/isa.hh"
#include "nn/layers.hh"
#include "nn/models.hh"

namespace {

using namespace ad::nn;
using ad::Rng;

Tensor
randomTensor(int c, int h, int w, Rng& rng)
{
    Tensor t(c, h, w);
    for (int ci = 0; ci < c; ++ci)
        for (int y = 0; y < h; ++y)
            for (int x = 0; x < w; ++x)
                t.at(ci, y, x) = static_cast<float>(rng.uniform(-1, 1));
    return t;
}

/** Direct (definition-based) convolution for validation. */
Tensor
convReference(const Conv2D& conv, const Tensor& in)
{
    const Shape outShape =
        conv.outputShape({in.channels(), in.height(), in.width()});
    Tensor out(outShape.c, outShape.h, outShape.w);
    const int k = conv.kernel();
    for (int oc = 0; oc < outShape.c; ++oc) {
        for (int oy = 0; oy < outShape.h; ++oy) {
            for (int ox = 0; ox < outShape.w; ++ox) {
                float acc = conv.bias()[oc];
                for (int ic = 0; ic < in.channels(); ++ic) {
                    for (int ky = 0; ky < k; ++ky) {
                        for (int kx = 0; kx < k; ++kx) {
                            const int iy = oy * conv.stride() - conv.pad() +
                                           ky;
                            const int ix = ox * conv.stride() - conv.pad() +
                                           kx;
                            if (iy < 0 || iy >= in.height() || ix < 0 ||
                                ix >= in.width())
                                continue;
                            const std::size_t wi =
                                ((static_cast<std::size_t>(oc) *
                                  in.channels() + ic) * k + ky) * k + kx;
                            acc += conv.weights()[wi] * in.at(ic, iy, ix);
                        }
                    }
                }
                out.at(oc, oy, ox) = acc;
            }
        }
    }
    return out;
}

struct ConvCase
{
    int inC, outC, k, stride, pad, h, w;
};

class ConvParamTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvParamTest, MatchesDirectConvolution)
{
    const auto p = GetParam();
    Rng rng(p.inC * 131 + p.outC * 17 + p.k);
    Conv2D conv("c", p.inC, p.outC, p.k, p.stride, p.pad);
    for (auto& w : conv.weights())
        w = static_cast<float>(rng.uniform(-0.5, 0.5));
    for (auto& b : conv.bias())
        b = static_cast<float>(rng.uniform(-0.5, 0.5));
    const Tensor in = randomTensor(p.inC, p.h, p.w, rng);
    const Tensor fast = conv.forward(in);
    const Tensor ref = convReference(conv, in);
    ASSERT_EQ(fast.size(), ref.size());
    for (int c = 0; c < ref.channels(); ++c)
        for (int y = 0; y < ref.height(); ++y)
            for (int x = 0; x < ref.width(); ++x)
                ASSERT_NEAR(fast.at(c, y, x), ref.at(c, y, x), 1e-3)
                    << c << "," << y << "," << x;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvParamTest,
    ::testing::Values(ConvCase{1, 1, 1, 1, 0, 5, 5},
                      ConvCase{1, 4, 3, 1, 1, 8, 8},
                      ConvCase{3, 8, 3, 1, 1, 13, 17},
                      ConvCase{4, 2, 5, 1, 2, 11, 9},
                      ConvCase{2, 6, 3, 2, 1, 16, 16},
                      ConvCase{8, 8, 1, 1, 0, 7, 7},
                      ConvCase{1, 2, 11, 4, 0, 23, 23}));  // AlexNet-like

TEST(Conv2D, ParallelForwardBitwiseEqualsSerial)
{
    // The kernel-layer determinism contract at the layer level: a
    // parallel context must not change a single output bit.
    Rng rng(77);
    Conv2D conv("c", 8, 16, 3, 1, 1);
    for (auto& w : conv.weights())
        w = static_cast<float>(rng.uniform(-0.5, 0.5));
    for (auto& b : conv.bias())
        b = static_cast<float>(rng.uniform(-0.5, 0.5));
    const Tensor in = randomTensor(8, 29, 31, rng);
    const Tensor serial = conv.forward(in);
    for (const int threads : {2, 4, 8}) {
        const Tensor parallel = conv.forward(in, kernelContext(threads));
        ASSERT_EQ(serial.size(), parallel.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            ASSERT_EQ(serial.data()[i], parallel.data()[i])
                << "bitwise divergence at " << i << " with " << threads
                << " threads";
    }
}

TEST(FullyConnected, ParallelForwardBitwiseEqualsSerial)
{
    Rng rng(78);
    FullyConnected fc("fc", 257, 131);
    for (auto& w : fc.weights())
        w = static_cast<float>(rng.uniform(-0.5, 0.5));
    for (auto& b : fc.bias())
        b = static_cast<float>(rng.uniform(-0.5, 0.5));
    const Tensor in = randomTensor(257, 1, 1, rng);
    const Tensor serial = fc.forward(in);
    const Tensor parallel = fc.forward(in, kernelContext(4));
    for (std::size_t i = 0; i < serial.size(); ++i)
        ASSERT_EQ(serial.data()[i], parallel.data()[i]) << "at " << i;
}

/**
 * The order-exact oracle: each output starts at +0.0f and adds w * x
 * for every tap in ascending (c, ky, kx) order, a padding tap as
 * w * 0.0f; then a zero bias is skipped and the fused leaky select
 * applied. This is the summation the implicit-GEMM convolution
 * promises, so the comparison is bitwise. (This file is compiled with
 * -ffp-contract=off, so the oracle itself rounds each multiply and
 * add.)
 */
Tensor
convExactReference(const Conv2D& conv, const Tensor& in)
{
    const Shape os =
        conv.outputShape({in.channels(), in.height(), in.width()});
    Tensor out(os.c, os.h, os.w);
    const int k = conv.kernel();
    for (int oc = 0; oc < os.c; ++oc) {
        const float b = conv.bias()[static_cast<std::size_t>(oc)];
        for (int oy = 0; oy < os.h; ++oy) {
            for (int ox = 0; ox < os.w; ++ox) {
                float acc = 0.0f;
                std::size_t wi = static_cast<std::size_t>(oc) *
                                 in.channels() * k * k;
                for (int ic = 0; ic < in.channels(); ++ic) {
                    for (int ky = 0; ky < k; ++ky) {
                        for (int kx = 0; kx < k; ++kx, ++wi) {
                            const int iy =
                                oy * conv.stride() - conv.pad() + ky;
                            const int ix =
                                ox * conv.stride() - conv.pad() + kx;
                            const bool inside = iy >= 0 &&
                                                iy < in.height() &&
                                                ix >= 0 && ix < in.width();
                            const float x =
                                inside ? in.at(ic, iy, ix) : 0.0f;
                            acc += conv.weights()[wi] * x;
                        }
                    }
                }
                float v = acc;
                if (b != 0.0f)
                    v += b;
                if (conv.hasFusedActivation())
                    v = v > 0.0f ? v : conv.fusedSlope() * v;
                out.at(oc, oy, ox) = v;
            }
        }
    }
    return out;
}

struct ExactCase
{
    std::string name;
    int inC, outC, k, stride, pad, h, w;
    bool infinities; ///< put +-inf into the input too.
};

void
PrintTo(const ExactCase& c, std::ostream* os)
{
    *os << c.name;
}

/**
 * DET's 15 conv shapes at 160/0.25, TRA's 11x11/s4 stem at both crop
 * sizes, and the geometries that stress the tile edges.
 */
std::vector<ExactCase>
exactCases()
{
    std::vector<ExactCase> cases;
    const Network det = buildNetwork(detectorSpec(160, 0.25, 4));
    Shape s{1, 160, 160};
    for (std::size_t i = 0; i < det.layerCount(); ++i) {
        const Layer& layer = det.layer(i);
        if (const auto* conv = dynamic_cast<const Conv2D*>(&layer))
            cases.push_back({"det_" + conv->name(), s.c,
                             conv->outChannels(), conv->kernel(),
                             conv->stride(), conv->pad(), s.h, s.w,
                             false});
        s = layer.outputShape(s);
    }
    const std::vector<ExactCase> edges = {
        {"tra_stem_crop32", 1, 10, 11, 4, 0, 32, 32, false},
        {"tra_stem_crop63", 1, 24, 11, 4, 0, 63, 63, false},
        {"k5_s1_p2", 4, 6, 5, 1, 2, 19, 23, false},
        {"k3_s2_p1", 3, 8, 3, 2, 1, 17, 16, false},
        {"k1_s1_p0", 5, 12, 1, 1, 0, 9, 11, false},
        {"k288_in_place", 32, 16, 3, 1, 1, 6, 21, false},
        {"k300_pointwise", 300, 5, 1, 1, 0, 4, 9, false},
        {"m9_n1", 16, 9, 1, 1, 0, 1, 1, false},
        {"m9_n25", 16, 9, 3, 1, 1, 5, 5, false},
        {"one_pixel_wide", 2, 5, 3, 1, 1, 7, 1, false},
        {"inf_in_place", 3, 7, 3, 1, 1, 9, 19, true},
        {"inf_packed", 3, 7, 3, 2, 1, 9, 13, true},
        {"inf_pointwise", 4, 6, 1, 1, 0, 6, 7, true},
    };
    cases.insert(cases.end(), edges.begin(), edges.end());
    return cases;
}

class ImplicitGemmConvTest : public ::testing::TestWithParam<ExactCase>
{
};

/**
 * Bitwise equality with the order-exact oracle for every ISA tier the
 * host runs (pinned through the test hook), at 1 and 3 threads, with
 * and without the fused activation. Weights, biases and inputs hold
 * exact zeros of both signs; inputs also hold subnormals, and some
 * cases +-inf, so a reordered sum, a skipped padding product or a
 * fused multiply-add shows as a differing bit.
 */
TEST_P(ImplicitGemmConvTest, BitwiseEqualsOrderedSumOnEveryTier)
{
    const ExactCase p = GetParam();
    Rng rng(static_cast<std::uint64_t>(p.inC * 131 + p.outC * 17 + p.k +
                                       p.h * 7 + p.w));
    Conv2D plain("c", p.inC, p.outC, p.k, p.stride, p.pad);
    Conv2D fused("c", p.inC, p.outC, p.k, p.stride, p.pad);
    fused.fuseActivation(0.1f);
    for (std::size_t i = 0; i < plain.weights().size(); ++i) {
        float w = static_cast<float>(rng.uniform(-1.0, 1.0));
        if (i % 13 == 0)
            w = 0.0f;
        else if (i % 17 == 0)
            w = -0.0f;
        plain.weights()[i] = w;
        fused.weights()[i] = w;
    }
    for (std::size_t i = 0; i < plain.bias().size(); ++i) {
        float b = static_cast<float>(rng.uniform(-0.5, 0.5));
        if (i % 3 == 0)
            b = i % 2 == 0 ? 0.0f : -0.0f;
        plain.bias()[i] = b;
        fused.bias()[i] = b;
    }
    Tensor in = randomTensor(p.inC, p.h, p.w, rng);
    float* x = in.data();
    for (std::size_t i = 0; i < in.size(); ++i) {
        if (i % 7 == 3)
            x[i] = -0.0f;
        else if (i % 11 == 5)
            x[i] = i % 2 == 0 ? 1.0e-40f : -3.0e-41f;
        else if (p.infinities && i % 23 == 9)
            x[i] = i % 2 == 0 ? std::numeric_limits<float>::infinity()
                              : -std::numeric_limits<float>::infinity();
    }

    const Tensor refPlain = convExactReference(plain, in);
    const Tensor refFused = convExactReference(fused, in);
    for (const std::string& tier : int8KernelIsaTiers()) {
        ASSERT_TRUE(setInt8KernelIsa(tier)) << tier;
        for (const int threads : {1, 3}) {
            const KernelContext ctx = kernelContext(threads);
            for (const Conv2D* conv : {&plain, &fused}) {
                const Tensor& ref =
                    conv == &plain ? refPlain : refFused;
                const Tensor got = conv->forward(in, ctx);
                ASSERT_EQ(got.size(), ref.size());
                EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                                      ref.size() * sizeof(float)),
                          0)
                    << p.name << " tier " << tier << " threads "
                    << threads << (conv == &plain ? " unfused" : " fused");
            }
        }
    }
    ASSERT_TRUE(setInt8KernelIsa(""));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ImplicitGemmConvTest, ::testing::ValuesIn(exactCases()),
    [](const ::testing::TestParamInfo<ExactCase>& info) {
        std::string name = info.param.name;
        for (char& ch : name)
            if (ch == '+' || ch == '-')
                ch = '_';
        return name;
    });

TEST(Conv2D, OutputShapeArithmetic)
{
    Conv2D conv("c", 3, 16, 3, 1, 1);
    const Shape out = conv.outputShape({3, 32, 48});
    EXPECT_EQ(out.c, 16);
    EXPECT_EQ(out.h, 32);
    EXPECT_EQ(out.w, 48);
    Conv2D strided("s", 3, 8, 3, 2, 1);
    const Shape so = strided.outputShape({3, 32, 32});
    EXPECT_EQ(so.h, 16);
}

TEST(Conv2D, ProfileCountsFlops)
{
    Conv2D conv("c", 2, 4, 3, 1, 1);
    const auto p = conv.profile({2, 10, 10});
    // 2 * outC * inC * k*k * outH * outW = 2*4*2*9*100 = 14400.
    EXPECT_EQ(p.flops, 14400u);
    EXPECT_EQ(p.weightBytes, (4 * 2 * 9 + 4) * sizeof(float));
    EXPECT_EQ(p.kind, LayerKind::Conv);
    EXPECT_EQ(p.inputBytes, 2u * 100 * 4);
    EXPECT_EQ(p.outputBytes, 4u * 100 * 4);
}

TEST(MaxPool, SelectsWindowMaximum)
{
    MaxPool pool("p", 2, 2);
    Tensor in(1, 4, 4);
    float v = 0;
    for (int y = 0; y < 4; ++y)
        for (int x = 0; x < 4; ++x)
            in.at(0, y, x) = v++;
    const Tensor out = pool.forward(in);
    EXPECT_EQ(out.height(), 2);
    EXPECT_EQ(out.width(), 2);
    EXPECT_FLOAT_EQ(out.at(0, 0, 0), 5.0f);
    EXPECT_FLOAT_EQ(out.at(0, 0, 1), 7.0f);
    EXPECT_FLOAT_EQ(out.at(0, 1, 0), 13.0f);
    EXPECT_FLOAT_EQ(out.at(0, 1, 1), 15.0f);
}

TEST(MaxPool, HandlesNegativeValues)
{
    MaxPool pool("p", 2, 2);
    Tensor in(1, 2, 2);
    in.at(0, 0, 0) = -5;
    in.at(0, 0, 1) = -2;
    in.at(0, 1, 0) = -9;
    in.at(0, 1, 1) = -3;
    EXPECT_FLOAT_EQ(pool.forward(in).at(0, 0, 0), -2.0f);
}

/** The scalar max-pool loop: std::max(best, tap) in (ky, kx) order. */
Tensor
maxPoolReference(const Tensor& in, int k, int stride)
{
    const int oh = (in.height() - k) / stride + 1;
    const int ow = (in.width() - k) / stride + 1;
    Tensor out(in.channels(), oh, ow);
    for (int c = 0; c < in.channels(); ++c)
        for (int oy = 0; oy < oh; ++oy)
            for (int ox = 0; ox < ow; ++ox) {
                float best = -INFINITY;
                for (int ky = 0; ky < k; ++ky)
                    for (int kx = 0; kx < k; ++kx)
                        best = std::max(
                            best, in.at(c, oy * stride + ky, ox * stride + kx));
                out.at(c, oy, ox) = best;
            }
    return out;
}

/**
 * The vector 2x2/s2 pool rows against the scalar loop, bitwise, on
 * every ISA tier: DET's five pool shapes, odd heights and widths, a
 * 3x3/s2 window (scalar on every tier), and inputs holding NaN, +-0
 * ties in both orders and -inf, where a max with its operands swapped
 * returns different bits.
 */
TEST(MaxPool, VectorRowsBitwiseEqualScalarLoopOnEveryTier)
{
    struct Case
    {
        int c, h, w, k, stride;
    };
    const Case cases[] = {{4, 160, 160, 2, 2}, {8, 80, 80, 2, 2},
                          {16, 40, 40, 2, 2},  {32, 20, 20, 2, 2},
                          {64, 10, 10, 2, 2},  {3, 7, 9, 2, 2},
                          {2, 33, 71, 2, 2},   {1, 5, 67, 2, 2},
                          {2, 2, 2, 2, 2},     {1, 3, 3, 2, 2},
                          {2, 9, 41, 3, 2}};
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    Rng rng(77);
    for (const Case& p : cases) {
        Tensor in = randomTensor(p.c, p.h, p.w, rng);
        float* x = in.data();
        for (std::size_t i = 0; i < in.size(); ++i) {
            if (i % 29 == 3)
                x[i] = nan;
            else if (i % 31 == 7)
                x[i] = -inf;
            else if (i % 37 < 8)
                x[i] = i % 2 == 0 ? 0.0f : -0.0f;
        }
        // Windows of nothing but NaN, and of +-0 ties in each order,
        // at the start of the first rows (inside the vector loops).
        if (p.w >= 8 && p.h >= 2) {
            for (int y = 0; y < 2; ++y) {
                in.at(0, y, 0) = nan;
                in.at(0, y, 1) = nan;
                in.at(0, y, 2) = y == 0 ? -0.0f : 0.0f;
                in.at(0, y, 3) = 0.0f;
                in.at(0, y, 4) = 0.0f;
                in.at(0, y, 5) = -0.0f;
            }
        }
        MaxPool pool("p", p.k, p.stride);
        const Tensor ref = maxPoolReference(in, p.k, p.stride);
        for (const std::string& tier : int8KernelIsaTiers()) {
            ASSERT_TRUE(setInt8KernelIsa(tier)) << tier;
            const Tensor got = pool.forward(in);
            ASSERT_EQ(got.size(), ref.size());
            EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                                  ref.size() * sizeof(float)),
                      0)
                << p.c << "x" << p.h << "x" << p.w << " k" << p.k
                << " tier " << tier;
        }
    }
    ASSERT_TRUE(setInt8KernelIsa(""));
}

TEST(Activation, ReluAndLeaky)
{
    Tensor in(1, 1, 4);
    in.at(0, 0, 0) = -2;
    in.at(0, 0, 1) = 3;
    in.at(0, 0, 2) = 0;
    in.at(0, 0, 3) = -0.5;
    Activation relu("r", 0.0f);
    const Tensor r = relu.forward(in);
    EXPECT_FLOAT_EQ(r.at(0, 0, 0), 0.0f);
    EXPECT_FLOAT_EQ(r.at(0, 0, 1), 3.0f);
    Activation leaky("l", 0.1f);
    const Tensor l = leaky.forward(in);
    EXPECT_FLOAT_EQ(l.at(0, 0, 0), -0.2f);
    EXPECT_FLOAT_EQ(l.at(0, 0, 3), -0.05f);
    EXPECT_FLOAT_EQ(l.at(0, 0, 1), 3.0f);
}

TEST(FullyConnected, ComputesAffineMap)
{
    FullyConnected fc("f", 3, 2);
    // y = W x + b with W = [[1,2,3],[4,5,6]], b = [0.5, -1].
    fc.weights() = {1, 2, 3, 4, 5, 6};
    fc.bias() = {0.5f, -1.0f};
    Tensor in(3, 1, 1);
    in.at(0, 0, 0) = 1;
    in.at(1, 0, 0) = 2;
    in.at(2, 0, 0) = 3;
    const Tensor out = fc.forward(in);
    EXPECT_FLOAT_EQ(out.at(0, 0, 0), 14.5f);
    EXPECT_FLOAT_EQ(out.at(1, 0, 0), 31.0f);
}

TEST(FullyConnected, FlattensSpatialInput)
{
    FullyConnected fc("f", 8, 2);
    Tensor in(2, 2, 2);
    in.fill(1.0f);
    fc.weights().assign(16, 0.25f);
    const Tensor out = fc.forward(in);
    EXPECT_FLOAT_EQ(out.at(0, 0, 0), 2.0f);
    const Shape s = fc.outputShape({2, 2, 2});
    EXPECT_EQ(s.c, 2);
    EXPECT_EQ(s.h, 1);
}

TEST(FullyConnected, ProfileCountsFlopsAndWeights)
{
    FullyConnected fc("f", 100, 50);
    const auto p = fc.profile({100, 1, 1});
    EXPECT_EQ(p.flops, 2u * 100 * 50);
    EXPECT_EQ(p.weightBytes, (100u * 50 + 50) * sizeof(float));
    EXPECT_EQ(p.kind, LayerKind::FullyConnected);
}

TEST(AvgPool, AveragesWindow)
{
    AvgPool pool("p", 2, 2);
    Tensor in(1, 2, 4);
    float v = 0;
    for (int y = 0; y < 2; ++y)
        for (int x = 0; x < 4; ++x)
            in.at(0, y, x) = v++;
    const Tensor out = pool.forward(in);
    EXPECT_EQ(out.width(), 2);
    EXPECT_EQ(out.height(), 1);
    // (0+1+4+5)/4 and (2+3+6+7)/4.
    EXPECT_FLOAT_EQ(out.at(0, 0, 0), 2.5f);
    EXPECT_FLOAT_EQ(out.at(0, 0, 1), 4.5f);
}

TEST(AvgPool, GlobalPoolingReducesToScalar)
{
    AvgPool pool("gap", 4, 4);
    Tensor in(2, 4, 4);
    in.fill(3.0f);
    in.at(1, 0, 0) = 19.0f;
    const Tensor out = pool.forward(in);
    EXPECT_EQ(out.height(), 1);
    EXPECT_EQ(out.width(), 1);
    EXPECT_FLOAT_EQ(out.at(0, 0, 0), 3.0f);
    EXPECT_FLOAT_EQ(out.at(1, 0, 0), 4.0f);
}

TEST(Softmax, NormalizesPerPosition)
{
    Softmax sm("s");
    Tensor in(3, 1, 2);
    in.at(0, 0, 0) = 1.0f;
    in.at(1, 0, 0) = 2.0f;
    in.at(2, 0, 0) = 3.0f;
    in.at(0, 0, 1) = 100.0f; // large values must not overflow
    in.at(1, 0, 1) = 100.0f;
    in.at(2, 0, 1) = 100.0f;
    const Tensor out = sm.forward(in);
    for (int x = 0; x < 2; ++x) {
        float sum = 0;
        for (int c = 0; c < 3; ++c) {
            EXPECT_GT(out.at(c, 0, x), 0.0f);
            sum += out.at(c, 0, x);
        }
        EXPECT_NEAR(sum, 1.0f, 1e-5);
    }
    // Ordering preserved; equal logits -> uniform.
    EXPECT_GT(out.at(2, 0, 0), out.at(1, 0, 0));
    EXPECT_NEAR(out.at(0, 0, 1), 1.0f / 3, 1e-5);
}

TEST(FoldBatchNorm, MatchesExplicitNormalization)
{
    Rng rng(77);
    Conv2D conv("c", 2, 3, 3, 1, 1);
    for (auto& w : conv.weights())
        w = static_cast<float>(rng.uniform(-0.5, 0.5));
    for (auto& b : conv.bias())
        b = static_cast<float>(rng.uniform(-0.5, 0.5));
    const Tensor in = randomTensor(2, 6, 6, rng);
    const Tensor preBn = conv.forward(in);

    BatchNormParams bn;
    for (int c = 0; c < 3; ++c) {
        bn.gamma.push_back(static_cast<float>(rng.uniform(0.5, 2.0)));
        bn.beta.push_back(static_cast<float>(rng.uniform(-1, 1)));
        bn.mean.push_back(static_cast<float>(rng.uniform(-1, 1)));
        bn.variance.push_back(static_cast<float>(rng.uniform(0.1, 2)));
    }

    // Explicit reference: BN applied to the original conv output.
    Tensor expected = preBn;
    for (int c = 0; c < 3; ++c) {
        const float scale =
            bn.gamma[c] / std::sqrt(bn.variance[c] + bn.epsilon);
        for (int y = 0; y < expected.height(); ++y)
            for (int x = 0; x < expected.width(); ++x)
                expected.at(c, y, x) =
                    scale * (preBn.at(c, y, x) - bn.mean[c]) +
                    bn.beta[c];
    }

    foldBatchNorm(conv, bn);
    const Tensor folded = conv.forward(in);
    for (int c = 0; c < 3; ++c)
        for (int y = 0; y < folded.height(); ++y)
            for (int x = 0; x < folded.width(); ++x)
                ASSERT_NEAR(folded.at(c, y, x), expected.at(c, y, x),
                            1e-4);
}

TEST(FoldBatchNorm, RejectsMismatchedSizes)
{
    Conv2D conv("c", 1, 4, 3, 1, 1);
    BatchNormParams bn;
    bn.gamma = {1, 1};
    bn.beta = {0, 0};
    bn.mean = {0, 0};
    bn.variance = {1, 1};
    EXPECT_EXIT(foldBatchNorm(conv, bn), ::testing::ExitedWithCode(1),
                "output channels");
}

TEST(LayerKindNames, AreStable)
{
    EXPECT_STREQ(layerKindName(LayerKind::Conv), "conv");
    EXPECT_STREQ(layerKindName(LayerKind::Pool), "pool");
    EXPECT_STREQ(layerKindName(LayerKind::Activation), "act");
    EXPECT_STREQ(layerKindName(LayerKind::FullyConnected), "fc");
}

} // namespace
