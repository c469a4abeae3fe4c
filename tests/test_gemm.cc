/**
 * @file
 * Property tests for the GEMM/GEMV kernels: the blocked implementation
 * must agree with the naive reference over a sweep of shapes, including
 * degenerate and non-square cases, since all DNN compute lowers to it.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/random.hh"
#include "nn/gemm.hh"
#include "nn/isa.hh"
#include "nn/kernel_context.hh"

namespace {

using ad::Rng;
using ad::nn::gemm;
using ad::nn::gemmBlockedReference;
using ad::nn::gemmNaive;
using ad::nn::gemv;
using ad::nn::int8KernelIsaTiers;
using ad::nn::kernelContext;
using ad::nn::setInt8KernelIsa;

std::vector<float>
randomMatrix(std::size_t n, Rng& rng)
{
    std::vector<float> m(n);
    for (auto& v : m)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    return m;
}

TEST(Gemm, KnownSmallProduct)
{
    // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
    const std::vector<float> a = {1, 2, 3, 4};
    const std::vector<float> b = {5, 6, 7, 8};
    std::vector<float> c(4, 0.0f);
    gemm(2, 2, 2, a.data(), b.data(), c.data());
    EXPECT_FLOAT_EQ(c[0], 19);
    EXPECT_FLOAT_EQ(c[1], 22);
    EXPECT_FLOAT_EQ(c[2], 43);
    EXPECT_FLOAT_EQ(c[3], 50);
}

TEST(Gemm, AccumulatesIntoC)
{
    const std::vector<float> a = {1, 0, 0, 1};
    const std::vector<float> b = {2, 3, 4, 5};
    std::vector<float> c = {10, 10, 10, 10};
    gemm(2, 2, 2, a.data(), b.data(), c.data());
    EXPECT_FLOAT_EQ(c[0], 12);
    EXPECT_FLOAT_EQ(c[3], 15);
}

TEST(Gemm, IdentityLeavesMatrix)
{
    Rng rng(1);
    const std::size_t n = 17;
    std::vector<float> eye(n * n, 0.0f);
    for (std::size_t i = 0; i < n; ++i)
        eye[i * n + i] = 1.0f;
    const auto b = randomMatrix(n * n, rng);
    std::vector<float> c(n * n, 0.0f);
    gemm(n, n, n, eye.data(), b.data(), c.data());
    for (std::size_t i = 0; i < n * n; ++i)
        EXPECT_FLOAT_EQ(c[i], b[i]);
}

/** Shape sweep: blocked GEMM equals the naive reference. */
class GemmShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(GemmShapeTest, MatchesNaive)
{
    const auto [m, n, k] = GetParam();
    Rng rng(static_cast<std::uint64_t>(m * 73 + n * 7 + k));
    const auto a = randomMatrix(static_cast<std::size_t>(m) * k, rng);
    const auto b = randomMatrix(static_cast<std::size_t>(k) * n, rng);
    std::vector<float> c1(static_cast<std::size_t>(m) * n, 0.5f);
    std::vector<float> c2 = c1;
    gemm(m, n, k, a.data(), b.data(), c1.data());
    gemmNaive(m, n, k, a.data(), b.data(), c2.data());
    for (std::size_t i = 0; i < c1.size(); ++i)
        ASSERT_NEAR(c1[i], c2[i], 1e-3) << "at " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 64, 300),
                      std::make_tuple(64, 1, 300), std::make_tuple(3, 5, 7),
                      std::make_tuple(65, 33, 257),  // crosses block edges
                      std::make_tuple(64, 64, 256),  // exactly block-sized
                      std::make_tuple(128, 10, 512),
                      std::make_tuple(16, 169, 144)));  // conv-like

/**
 * The determinism contract of the parallel kernel layer: the packed
 * kernel produces bitwise-identical C for every thread count, and
 * matches the seed serial kernel bit for bit (same per-element
 * ascending-k accumulation order). Ragged shapes exercise partial
 * micro-tiles and K-block edges.
 */
class GemmDeterminismTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(GemmDeterminismTest, ParallelBitwiseEqualsSerial)
{
    const auto [m, n, k] = GetParam();
    Rng rng(static_cast<std::uint64_t>(m * 131 + n * 17 + k));
    std::vector<float> a(static_cast<std::size_t>(m) * k);
    std::vector<float> b(static_cast<std::size_t>(k) * n);
    for (auto& v : a)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (auto& v : b)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));

    std::vector<float> serial(static_cast<std::size_t>(m) * n, 0.25f);
    gemm(m, n, k, a.data(), b.data(), serial.data());

    for (const int threads : {2, 4, 8}) {
        std::vector<float> parallel(static_cast<std::size_t>(m) * n,
                                    0.25f);
        gemm(m, n, k, a.data(), b.data(), parallel.data(),
             kernelContext(threads));
        for (std::size_t i = 0; i < serial.size(); ++i)
            ASSERT_EQ(serial[i], parallel[i])
                << "bitwise divergence at " << i << " with " << threads
                << " threads";
    }
}

TEST_P(GemmDeterminismTest, PackedBitwiseEqualsSeedKernel)
{
    const auto [m, n, k] = GetParam();
    Rng rng(static_cast<std::uint64_t>(m * 131 + n * 17 + k));
    std::vector<float> a(static_cast<std::size_t>(m) * k);
    std::vector<float> b(static_cast<std::size_t>(k) * n);
    for (auto& v : a)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (auto& v : b)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));

    std::vector<float> packed(static_cast<std::size_t>(m) * n, 0.25f);
    std::vector<float> seed = packed;
    gemm(m, n, k, a.data(), b.data(), packed.data(),
         kernelContext(4));
    gemmBlockedReference(m, n, k, a.data(), b.data(), seed.data());
    for (std::size_t i = 0; i < seed.size(); ++i)
        ASSERT_EQ(seed[i], packed[i]) << "bitwise divergence at " << i;
}

/**
 * Every ISA tier the host runs (pinned through the test hook that pins
 * fp32 and int8 together) matches the seed kernel bit for bit at 1 and
 * 3 threads: the tiers differ only in vector width and tile size, never
 * in the per-element operations or their order.
 */
TEST_P(GemmDeterminismTest, EveryTierBitwiseEqualsSeedKernel)
{
    const auto [m, n, k] = GetParam();
    Rng rng(static_cast<std::uint64_t>(m * 37 + n * 5 + k));
    const auto a = randomMatrix(static_cast<std::size_t>(m) * k, rng);
    const auto b = randomMatrix(static_cast<std::size_t>(k) * n, rng);
    const auto c0 = randomMatrix(static_cast<std::size_t>(m) * n, rng);
    std::vector<float> seed = c0;
    gemmBlockedReference(m, n, k, a.data(), b.data(), seed.data());
    for (const std::string& tier : int8KernelIsaTiers()) {
        ASSERT_TRUE(setInt8KernelIsa(tier)) << tier;
        for (const int threads : {1, 3}) {
            std::vector<float> got = c0;
            gemm(m, n, k, a.data(), b.data(), got.data(),
                 kernelContext(threads));
            for (std::size_t i = 0; i < seed.size(); ++i)
                ASSERT_EQ(seed[i], got[i])
                    << "tier " << tier << " threads " << threads
                    << " at " << i;
        }
    }
    ASSERT_TRUE(setInt8KernelIsa(""));
}

INSTANTIATE_TEST_SUITE_P(
    RaggedShapes, GemmDeterminismTest,
    ::testing::Values(std::make_tuple(65, 33, 257),
                      std::make_tuple(7, 130, 700),
                      std::make_tuple(129, 257, 513),
                      std::make_tuple(1, 8, 256),
                      std::make_tuple(16, 169, 144)));

TEST(Gemv, ParallelBitwiseEqualsSerial)
{
    Rng rng(10);
    const std::size_t m = 301;
    const std::size_t k = 517;
    std::vector<float> a(m * k);
    std::vector<float> x(k);
    for (auto& v : a)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (auto& v : x)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    std::vector<float> serial(m, 0.5f);
    gemv(m, k, a.data(), x.data(), serial.data());
    for (const int threads : {2, 8}) {
        std::vector<float> parallel(m, 0.5f);
        gemv(m, k, a.data(), x.data(), parallel.data(),
             kernelContext(threads));
        for (std::size_t i = 0; i < m; ++i)
            ASSERT_EQ(serial[i], parallel[i]) << "at " << i;
    }
}

TEST(Gemv, MatchesGemmColumnCase)
{
    Rng rng(9);
    const std::size_t m = 37;
    const std::size_t k = 61;
    const auto a = randomMatrix(m * k, rng);
    const auto x = randomMatrix(k, rng);
    std::vector<float> y1(m, 1.0f);
    std::vector<float> y2(m, 1.0f);
    gemv(m, k, a.data(), x.data(), y1.data());
    gemm(m, 1, k, a.data(), x.data(), y2.data());
    for (std::size_t i = 0; i < m; ++i)
        EXPECT_NEAR(y1[i], y2[i], 1e-4);
}

} // namespace
