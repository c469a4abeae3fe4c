/**
 * @file
 * Tests for the fused-layer lowering pass and the arena memory
 * planner: planArena liveness-overlap properties, chain reuse,
 * fused-vs-unfused bitwise equality for the DET and TRA networks
 * (fp32 and int8, across thread counts), forwardArena-vs-forward
 * equality and the zero-allocation steady state.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "common/random.hh"
#include "nn/fusion.hh"
#include "nn/models.hh"
#include "nn/planner.hh"
#include "nn/quant.hh"

namespace {

using namespace ad;
using namespace ad::nn;

Tensor
randomInput(int c, int h, int w, Rng& rng)
{
    Tensor t(c, h, w);
    float* data = t.data();
    for (std::size_t i = 0; i < t.size(); ++i)
        data[i] = static_cast<float>(rng.uniform());
    return t;
}

void
expectBitwiseEqual(const Tensor& a, const Tensor& b, const char* what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                             a.size() * sizeof(float)))
        << what;
}

// --- planArena properties ----------------------------------------------

TEST(PlanArena, OverlappingValuesNeverShareBytes)
{
    Rng rng(41);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<ValueInterval> values;
        const int n = 1 + static_cast<int>(rng.uniformInt(0, 19));
        for (int i = 0; i < n; ++i) {
            ValueInterval v;
            v.start = static_cast<std::size_t>(rng.uniformInt(0, 30));
            v.end = v.start +
                    static_cast<std::size_t>(rng.uniformInt(0, 10));
            v.bytes = static_cast<std::size_t>(
                rng.uniformInt(0, 4096));
            values.push_back(v);
        }
        const ArenaPlan plan = planArena(values);
        ASSERT_EQ(plan.offset.size(), values.size());
        std::size_t peak = 0;
        for (std::size_t i = 0; i < values.size(); ++i) {
            if (values[i].bytes == 0)
                continue;
            EXPECT_EQ(plan.offset[i] % 64, 0u) << "alignment " << i;
            peak = std::max(peak,
                            plan.offset[i] + values[i].bytes);
            for (std::size_t j = i + 1; j < values.size(); ++j) {
                if (values[j].bytes == 0)
                    continue;
                const bool timeOverlap =
                    values[i].start <= values[j].end &&
                    values[j].start <= values[i].end;
                if (!timeOverlap)
                    continue;
                const bool byteOverlap =
                    plan.offset[i] <
                        plan.offset[j] + values[j].bytes &&
                    plan.offset[j] <
                        plan.offset[i] + values[i].bytes;
                ASSERT_FALSE(byteOverlap)
                    << "trial " << trial << ": values " << i
                    << " and " << j << " overlap in time and bytes";
            }
        }
        EXPECT_GE(plan.totalBytes, peak);
    }
}

TEST(PlanArena, SequentialChainReusesStorage)
{
    // A chain of 8 equal-size intermediates, each live [i, i+1]: only
    // adjacent pairs overlap, so two slots suffice -- the arena must
    // come out far below the sum of all values.
    std::vector<ValueInterval> values;
    const std::size_t bytes = 1024;
    for (std::size_t i = 0; i < 8; ++i)
        values.push_back({i, i + 1, bytes});
    const ArenaPlan plan = planArena(values);
    EXPECT_EQ(plan.totalBytes, 2 * bytes);
}

TEST(PlanArena, DeterministicForIdenticalInput)
{
    Rng rng(43);
    std::vector<ValueInterval> values;
    for (int i = 0; i < 12; ++i) {
        const auto start =
            static_cast<std::size_t>(rng.uniformInt(0, 10));
        values.push_back(
            {start, start + static_cast<std::size_t>(
                                rng.uniformInt(0, 4)),
             static_cast<std::size_t>(rng.uniformInt(1, 2048))});
    }
    const ArenaPlan a = planArena(values);
    const ArenaPlan b = planArena(values);
    EXPECT_EQ(a.offset, b.offset);
    EXPECT_EQ(a.totalBytes, b.totalBytes);
}

// --- Lowering pass -----------------------------------------------------

TEST(Lowering, FusesActivationPairsAndDropsLayers)
{
    Network net = buildNetwork(detectorSpec(64, 0.25, 4));
    Rng rng(7);
    initDetectorWeights(net, rng);
    const std::size_t before = net.layerCount();
    const LoweringReport report =
        lowerNetwork(net, {1, 64, 64});
    EXPECT_GE(report.fusedActivations, 1u);
    EXPECT_EQ(net.layerCount(),
              before - report.fusedActivations);
    // No standalone Activation may survive behind a fusable layer.
    for (std::size_t i = 0; i + 1 < net.layerCount(); ++i) {
        if (net.layer(i).kind() != LayerKind::Conv)
            continue;
        EXPECT_NE(net.layer(i + 1).kind(), LayerKind::Activation)
            << "unfused pair at layer " << i;
    }
}

/**
 * The core lowering contract: a fused+planned network computes
 * bit-identical outputs to the unfused, allocating reference at every
 * thread count, in both numeric modes, for both DNN engines'
 * topologies.
 */
TEST(Lowering, DetNetworkFusedMatchesUnfusedBitwise)
{
    for (const Precision precision :
         {Precision::Fp32, Precision::Int8}) {
        Network ref = buildNetwork(detectorSpec(64, 0.25, 4));
        Network low = buildNetwork(detectorSpec(64, 0.25, 4));
        Rng rngA(7);
        Rng rngB(7);
        initDetectorWeights(ref, rngA);
        initDetectorWeights(low, rngB);
        if (precision == Precision::Int8) {
            Rng calRng(99);
            std::vector<Tensor> samples;
            samples.push_back(randomInput(1, 64, 64, calRng));
            samples.push_back(randomInput(1, 64, 64, calRng));
            quantizeNetwork(ref, samples);
            quantizeNetwork(low, samples);
        }
        lowerNetwork(low, {1, 64, 64});
        low.plan({1, 64, 64});

        Rng inRng(11);
        const Tensor input = randomInput(1, 64, 64, inRng);
        const Tensor expected = ref.forward(input);
        for (const int threads : {1, 2, 0}) {
            const KernelContext ctx = kernelContext(threads);
            expectBitwiseEqual(ref.forward(input, ctx), expected,
                               "unfused across threads");
            expectBitwiseEqual(low.forwardArena(input, ctx),
                               expected, "fused+arena");
        }
    }
}

TEST(Lowering, TraNetworksFusedMatchUnfusedBitwise)
{
    const int crop = 32;
    Network refConv = buildNetwork(trackerConvSpec(crop, 0.1));
    Network lowConv = buildNetwork(trackerConvSpec(crop, 0.1));
    Rng rngA(5);
    Rng rngB(5);
    initTrackerWeights(refConv, rngA);
    initTrackerWeights(lowConv, rngB);
    const Shape featShape = refConv.outputShape({1, crop, crop});

    Network refFc = buildNetwork(trackerFcSpec(
        static_cast<int>(featShape.elements()), 0.1));
    Network lowFc = buildNetwork(trackerFcSpec(
        static_cast<int>(featShape.elements()), 0.1));
    Rng rngC(6);
    Rng rngD(6);
    initTrackerWeights(refFc, rngC);
    initTrackerWeights(lowFc, rngD);

    lowerNetwork(lowConv, {1, crop, crop});
    lowConv.plan({1, crop, crop});
    const Shape fcShape{2 * featShape.c, featShape.h, featShape.w};
    lowerNetwork(lowFc, fcShape);
    lowFc.plan(fcShape);

    Rng inRng(12);
    const Tensor target = randomInput(1, crop, crop, inRng);
    const Tensor search = randomInput(1, crop, crop, inRng);
    const Tensor refBoth = Tensor::concatChannels(
        refConv.forward(target), refConv.forward(search));
    const Tensor expected = refFc.forward(refBoth);

    for (const int threads : {1, 2, 0}) {
        const KernelContext ctx = kernelContext(threads);
        const Tensor tfeat = lowConv.forwardArena(target, ctx);
        const Tensor& sfeat = lowConv.forwardArena(search, ctx);
        Tensor both;
        both.assignConcat(tfeat, sfeat);
        expectBitwiseEqual(lowFc.forwardArena(both, ctx), expected,
                           "tracker fused+arena");
    }
}

// --- Zero-allocation steady state --------------------------------------

TEST(Planner, ForwardArenaAllocatesNothingAfterPlan)
{
    Network net = buildNetwork(detectorSpec(64, 0.25, 4));
    Rng rng(7);
    initDetectorWeights(net, rng);
    lowerNetwork(net, {1, 64, 64});
    net.plan({1, 64, 64});
    EXPECT_TRUE(net.planned());
    EXPECT_GT(net.arenaBytes(), 0u);

    Rng inRng(21);
    const Tensor input = randomInput(1, 64, 64, inRng);
    // One settling pass (first run after plan may still grow pack
    // buffers for this input's exact shapes).
    (void)net.forwardArena(input);
    const std::uint64_t before = allocEventCount();
    for (int i = 0; i < 5; ++i)
        (void)net.forwardArena(input);
    EXPECT_EQ(allocEventCount() - before, 0u)
        << "planned forward allocated in steady state";
}

TEST(Planner, StructuralEditDropsPlan)
{
    Network net = buildNetwork(detectorSpec(64, 0.25, 4));
    Rng rng(7);
    initDetectorWeights(net, rng);
    net.plan({1, 64, 64});
    EXPECT_TRUE(net.planned());
    net.removeLayer(net.layerCount() - 1);
    EXPECT_FALSE(net.planned());
    EXPECT_EQ(net.arenaBytes(), 0u);
}

} // namespace
