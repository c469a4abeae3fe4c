/**
 * @file
 * Tests for the EIE-style sparse fully connected engine: exactness at
 * zero threshold, monotone compression, bounded pruning error, CSR
 * accounting, and the FPGA-latency consequence of compression (the
 * mechanism behind the paper's TRA ASIC numbers).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "accel/models.hh"
#include "common/random.hh"
#include "nn/network.hh"
#include "nn/sparse.hh"

namespace {

using namespace ad;
using namespace ad::nn;

void
fillDense(FullyConnected& fc, Rng& rng, double zeroFraction = 0.0)
{
    for (auto& w : fc.weights())
        w = rng.bernoulli(zeroFraction)
                ? 0.0f
                : static_cast<float>(rng.normal(0.0, 0.5));
    for (auto& b : fc.bias())
        b = static_cast<float>(rng.normal(0.0, 0.1));
}

Tensor
randomInput(int n, Rng& rng)
{
    Tensor t(n, 1, 1);
    for (int i = 0; i < n; ++i)
        t.data()[i] = static_cast<float>(rng.uniform(-1, 1));
    return t;
}

TEST(SparseFc, ZeroThresholdIsExact)
{
    Rng rng(1);
    FullyConnected dense("dense", 64, 32);
    fillDense(dense, rng);
    const SparseFullyConnected sparse("s", dense, 0.0f);
    const Tensor x = randomInput(64, rng);
    const Tensor a = dense.forward(x);
    const Tensor b = sparse.forward(x);
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_NEAR(a.data()[i], b.data()[i], 1e-5);
    EXPECT_DOUBLE_EQ(sparse.density(), 1.0);
}

TEST(SparseFc, ExplicitZerosAreDropped)
{
    Rng rng(2);
    FullyConnected dense("dense", 100, 50);
    fillDense(dense, rng, 0.7);
    const SparseFullyConnected sparse("s", dense, 0.0f);
    EXPECT_NEAR(sparse.density(), 0.3, 0.05);
    // Still exact: only exact zeros were dropped.
    const Tensor x = randomInput(100, rng);
    const Tensor a = dense.forward(x);
    const Tensor b = sparse.forward(x);
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_NEAR(a.data()[i], b.data()[i], 1e-5);
}

TEST(SparseFc, DensityMonotoneInThreshold)
{
    Rng rng(3);
    FullyConnected dense("dense", 128, 64);
    fillDense(dense, rng);
    double prev = 1.1;
    for (const float t : {0.0f, 0.2f, 0.5f, 1.0f}) {
        const SparseFullyConnected sparse("s", dense, t);
        EXPECT_LT(sparse.density(), prev);
        prev = sparse.density();
    }
}

TEST(SparseFc, PruningErrorGrowsButStaysBoundedForSmallThresholds)
{
    Rng rng(4);
    FullyConnected dense("dense", 256, 128);
    fillDense(dense, rng);
    const Tensor probe = randomInput(256, rng);
    const double e1 = pruningError(dense, 0.05f, probe);
    const double e2 = pruningError(dense, 0.3f, probe);
    EXPECT_LE(e1, e2 + 1e-12);
    EXPECT_LT(e1, 0.05); // tiny weights contribute little
    EXPECT_NEAR(pruningError(dense, 0.0f, probe), 0.0, 1e-5);
}

TEST(SparseFc, ProfileReportsCompressedCosts)
{
    Rng rng(5);
    FullyConnected dense("dense", 100, 40);
    fillDense(dense, rng, 0.8);
    const SparseFullyConnected sparse("s", dense, 0.0f);
    const auto dp = dense.profile({100, 1, 1});
    const auto sp = sparse.profile({100, 1, 1});
    EXPECT_LT(sp.flops, dp.flops / 2);
    EXPECT_LT(sp.weightBytes, dp.weightBytes);
    EXPECT_EQ(sp.flops, 2 * sparse.nonZeros());
    EXPECT_EQ(sp.kind, LayerKind::FullyConnected);
}

TEST(SparseFc, CompressionCutsFpgaTransferLatency)
{
    // The system-level payoff: compressing the tracker's FC stack
    // shrinks its weight footprint, and since FPGA TRA is
    // transfer-bound (Figure 10 analysis), the modeled latency drops
    // nearly proportionally.
    accel::Workload w = accel::standardWorkloadRef();
    const accel::FpgaModel fpga;
    const double before =
        fpga.baseLatencyMs(accel::Component::Tra, w);
    // Emulate 10x FC compression in the workload profile.
    for (auto& layer : w.tra.layers) {
        if (layer.kind == LayerKind::FullyConnected) {
            layer.weightBytes /= 10;
            layer.flops /= 10;
        }
    }
    const double after = fpga.baseLatencyMs(accel::Component::Tra, w);
    EXPECT_LT(after, before * 0.25);
}

TEST(SparseFc, ParallelForwardBitwiseEqualsSerial)
{
    ad::Rng rng(31);
    ad::nn::FullyConnected dense("fc", 300, 170);
    for (auto& w : dense.weights())
        w = static_cast<float>(rng.normal(0.0, 0.1));
    for (auto& b : dense.bias())
        b = static_cast<float>(rng.uniform(-0.5, 0.5));
    const ad::nn::SparseFullyConnected sparse("s", dense, 0.05f);
    ad::nn::Tensor x(300, 1, 1);
    for (std::size_t i = 0; i < x.size(); ++i)
        x.data()[i] = static_cast<float>(rng.uniform(-1, 1));
    const ad::nn::Tensor serial = sparse.forward(x);
    for (const int threads : {2, 8}) {
        const ad::nn::Tensor parallel =
            sparse.forward(x, ad::nn::kernelContext(threads));
        for (std::size_t i = 0; i < serial.size(); ++i)
            ASSERT_EQ(serial.data()[i], parallel.data()[i])
                << "at " << i << " with " << threads << " threads";
    }
}

/**
 * Inside a planned Network the sparse layer runs through forwardInto
 * like every other layer: forwardArena matches the allocating
 * Network::forward bit for bit at any thread count, and steady-state
 * frames allocate nothing.
 */
TEST(SparseFc, PlannedNetworkMatchesForwardAndAllocatesNothing)
{
    Rng rng(41);
    FullyConnected dense("dense", 96, 256);
    fillDense(dense, rng, 0.3);
    Network net("sparse-net");
    fillDense(net.add<FullyConnected>("fc", 64, 96), rng);
    net.add<Activation>("act", 0.1f);
    net.add<SparseFullyConnected>("sparse", dense, 0.05f);
    net.plan({64, 1, 1});

    const Tensor input = randomInput(64, rng);
    const Tensor expected = net.forward(input);
    for (const int threads : {1, 2, 0}) {
        const Tensor& got = net.forwardArena(input, kernelContext(threads));
        ASSERT_EQ(got.size(), expected.size());
        EXPECT_EQ(0, std::memcmp(got.data(), expected.data(),
                                 got.size() * sizeof(float)))
            << threads << " threads";
    }

    const std::uint64_t before = allocEventCount();
    for (int i = 0; i < 5; ++i)
        (void)net.forwardArena(input);
    EXPECT_EQ(allocEventCount() - before, 0u)
        << "planned sparse forward allocated in steady state";
}

TEST(SparseFc, RejectsNegativeThreshold)
{
    Rng rng(6);
    FullyConnected dense("dense", 8, 4);
    fillDense(dense, rng);
    EXPECT_EXIT(SparseFullyConnected("s", dense, -1.0f),
                ::testing::ExitedWithCode(1), "threshold");
}

} // namespace
