/**
 * @file
 * Tests for the fault-injection layer: sensor-corruption primitives,
 * the fixed-draw-count fault schedule (a pure function of seed and
 * frame index), config composition, and the acceptance-criterion
 * determinism test -- a faulted, governed pipeline run is bit-identical
 * across repeats and across nn.threads for a fixed fault seed.
 *
 * The determinism run uses the virtual-spike trick: the governor
 * budget is far above any real stage latency and the injected spikes
 * are far above the budget, so budget misses -- and therefore every
 * governor transition -- are decided purely by the deterministic fault
 * schedule, never by wall-clock noise.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/config.hh"
#include "pipeline/fault_injector.hh"
#include "pipeline/pipeline.hh"
#include "sensors/corruption.hh"
#include "sensors/scenario.hh"
#include "slam/mapping.hh"

namespace {

using namespace ad;
using pipeline::FaultInjector;
using pipeline::FaultInjectorParams;
using pipeline::FaultPlan;

TEST(Corruption, PixelNoiseIsSeedDeterministic)
{
    Image a(32, 24, 128);
    Image b(32, 24, 128);
    Rng rngA(7);
    Rng rngB(7);
    sensors::addPixelNoise(a, rngA, 25.0);
    sensors::addPixelNoise(b, rngB, 25.0);

    bool changed = false;
    for (int y = 0; y < a.height(); ++y) {
        for (int x = 0; x < a.width(); ++x) {
            ASSERT_EQ(a.at(x, y), b.at(x, y));
            changed = changed || a.at(x, y) != 128;
        }
    }
    EXPECT_TRUE(changed);

    // A different seed produces a different noise field.
    Image c(32, 24, 128);
    Rng rngC(8);
    sensors::addPixelNoise(c, rngC, 25.0);
    bool differs = false;
    for (int y = 0; y < a.height() && !differs; ++y)
        for (int x = 0; x < a.width() && !differs; ++x)
            differs = a.at(x, y) != c.at(x, y);
    EXPECT_TRUE(differs);
}

TEST(Corruption, BlackoutAndBand)
{
    Image img(16, 16, 200);
    sensors::blackoutBand(img, 0.25, 0.5, 10);
    for (int y = 0; y < 16; ++y)
        for (int x = 0; x < 16; ++x)
            EXPECT_EQ(img.at(x, y), y >= 4 && y < 12 ? 10 : 200);

    sensors::blackout(img);
    for (int y = 0; y < 16; ++y)
        for (int x = 0; x < 16; ++x)
            EXPECT_EQ(img.at(x, y), 0);
}

TEST(FaultInjectorTest, ScheduleIsPureFunctionOfSeedAndFrame)
{
    const FaultInjectorParams params =
        FaultInjectorParams::scaledMix(0.5, 99);
    FaultInjector a(params);
    FaultInjector b(params);
    for (int i = 0; i < 500; ++i) {
        const FaultPlan pa = a.planFrame();
        const FaultPlan pb = b.planFrame();
        EXPECT_EQ(pa.dropFrame, pb.dropFrame);
        EXPECT_EQ(pa.blackout, pb.blackout);
        EXPECT_DOUBLE_EQ(pa.noiseSigma, pb.noiseSigma);
        EXPECT_EQ(pa.noiseSeed, pb.noiseSeed);
        EXPECT_EQ(pa.detFail, pb.detFail);
        EXPECT_EQ(pa.locFail, pb.locFail);
        EXPECT_EQ(pa.traFail, pb.traFail);
        for (std::size_t s = 0; s < obs::kStageCount; ++s)
            EXPECT_DOUBLE_EQ(pa.spikeMs[s], pb.spikeMs[s]);
    }
    EXPECT_EQ(a.counts().frames, 500u);
    EXPECT_GT(a.counts().spikes, 0u);
}

TEST(FaultInjectorTest, DrawCountIsIndependentOfProbabilities)
{
    // Changing one fault's probability must not shift which frames
    // the *other* faults land on: the per-frame draw count is fixed.
    FaultInjectorParams base = FaultInjectorParams::scaledMix(0.5, 4);
    FaultInjectorParams noNoise = base;
    noNoise.noiseProb = 0;
    FaultInjector a(base);
    FaultInjector b(noNoise);
    for (int i = 0; i < 500; ++i) {
        const FaultPlan pa = a.planFrame();
        const FaultPlan pb = b.planFrame();
        EXPECT_EQ(pa.dropFrame, pb.dropFrame) << "frame " << i;
        EXPECT_EQ(pa.detFail, pb.detFail) << "frame " << i;
        for (std::size_t s = 0; s < obs::kStageCount; ++s)
            EXPECT_DOUBLE_EQ(pa.spikeMs[s], pb.spikeMs[s]);
    }
}

TEST(FaultInjectorTest, DisabledInjectorPlansNothing)
{
    FaultInjector inj(FaultInjectorParams::scaledMix(0.0, 1));
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(inj.planFrame().any());
    EXPECT_EQ(inj.counts().frames, 100u);
    EXPECT_EQ(inj.counts().drops + inj.counts().spikes, 0u);
}

TEST(FaultInjectorTest, FromConfigComposesIntensityAndOverrides)
{
    Config cfg;
    cfg.set("faults", "0.5");
    cfg.set("fault.noise_p", "0");
    cfg.set("fault.spike_ms", "200");
    cfg.set("fault.seed", "11");
    const FaultInjectorParams p = FaultInjectorParams::fromConfig(cfg);
    EXPECT_TRUE(p.enabled);
    EXPECT_EQ(p.seed, 11u);
    EXPECT_DOUBLE_EQ(p.dropProb, 0.05 * 0.5);   // from the mix
    EXPECT_DOUBLE_EQ(p.noiseProb, 0.0);         // overridden
    EXPECT_DOUBLE_EQ(p.spikeMs, 200.0);         // overridden

    Config off;
    EXPECT_FALSE(FaultInjectorParams::fromConfig(off).enabled);

    Config single;
    single.set("fault.drop_p", "0.1");
    EXPECT_TRUE(FaultInjectorParams::fromConfig(single).enabled);
}

/**
 * Acceptance criterion: a faulted, governed run is bit-identical for
 * a fixed fault seed -- across repeats and across nn.threads.
 */
class FaultDeterminismTest : public ::testing::Test
{
  protected:
    static std::vector<double>
    runPipeline(const slam::PriorMap& map, const sensors::Camera& camera,
                const sensors::Scenario& scenario, int nnThreads)
    {
        pipeline::PipelineParams params;
        params.detector.inputSize = 128;
        params.detector.width = 0.25;
        params.trackerPool.tracker.cropSize = 32;
        params.trackerPool.tracker.width = 0.1;
        params.laneCenterY = scenario.world.road().laneCenter(1);
        params.motionPlanner.cruiseSpeed = scenario.ego.speed;
        params.nnThreads = nnThreads;

        // Aggressive fault mix, seeded.
        params.faults.enabled = true;
        params.faults.seed = 5;
        params.faults.dropProb = 0.15;
        params.faults.noiseProb = 0.3;
        params.faults.blackoutProb = 0.1;
        params.faults.detFailProb = 0.2;
        params.faults.locFailProb = 0.1;
        params.faults.traFailProb = 0.1;
        // Virtual-spike trick: the budget dwarfs every real latency
        // and the spikes dwarf the budget, so misses (and therefore
        // mode transitions) depend only on the fault schedule.
        params.faults.spikeProb = 0.5;
        params.faults.spikeMs = 1e5;
        params.governor.enabled = true;
        params.governor.budgetMs = 1e4;
        params.governor.escalateAfterMisses = 1;
        params.governor.recoverAfterFrames = 2;
        params.governor.maxStaleFrames = 3;

        pipeline::Pipeline pipe(&map, &camera, nullptr, params);

        sensors::World world = scenario.world;
        Pose2 ego = scenario.ego.pose;
        pipe.reset(ego, {scenario.ego.speed, 0},
                   {scenario.world.road().length - 10,
                    params.laneCenterY});

        std::vector<double> sig;
        for (int i = 0; i < 12; ++i) {
            world.step(0.1);
            ego.pos.x += scenario.ego.speed * 0.1;
            const sensors::Frame frame = camera.render(world, ego);
            const auto out =
                pipe.submitFrame(frame.image, 0.1, scenario.ego.speed)
                    .front();
            sig.push_back(static_cast<double>(out.mode));
            sig.push_back(out.frameDropped ? 1.0 : 0.0);
            sig.push_back(out.detRan ? 1.0 : 0.0);
            sig.push_back(out.detFellBack ? 1.0 : 0.0);
            sig.push_back(out.locFellBack ? 1.0 : 0.0);
            sig.push_back(out.traCoasted ? 1.0 : 0.0);
            sig.push_back(static_cast<double>(out.detections.size()));
            for (const auto& d : out.detections) {
                sig.insert(sig.end(), {d.box.x, d.box.y, d.box.w,
                                       d.box.h, d.confidence});
            }
            sig.push_back(static_cast<double>(out.tracks.size()));
            for (const auto& t : out.tracks) {
                sig.insert(sig.end(), {t.box.x, t.box.y, t.box.w,
                                       t.box.h});
            }
            sig.push_back(out.localization.ok ? 1.0 : 0.0);
            sig.push_back(out.localization.pose.pos.x);
            sig.push_back(out.localization.pose.pos.y);
            sig.push_back(out.localization.pose.theta);
            sig.push_back(out.command.steering);
            sig.push_back(out.command.acceleration);
        }
        // The run must actually have exercised faults and transitions.
        EXPECT_GT(pipe.faultInjector()->counts().spikes, 0u);
        EXPECT_FALSE(pipe.governor()->transitions().empty());
        return sig;
    }

    static void
    expectIdentical(const std::vector<double>& a,
                    const std::vector<double>& b)
    {
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i)
            ASSERT_DOUBLE_EQ(a[i], b[i]) << "signature index " << i;
    }
};

TEST_F(FaultDeterminismTest, FaultedRunIsBitIdenticalAcrossRepeatsAndThreads)
{
    Rng rng(23);
    sensors::ScenarioParams sp;
    sp.roadLength = 120.0;
    sp.vehicles = 3;
    const sensors::Scenario scenario =
        sensors::makeUrbanScenario(rng, sp);
    const sensors::Camera camera(sensors::Resolution::HHD);
    slam::MappingParams mp;
    mp.orb.fast.maxKeypoints = 400;
    const slam::PriorMap map =
        slam::buildPriorMap(scenario.world, camera, 1, mp);

    const auto first = runPipeline(map, camera, scenario, 1);
    const auto repeat = runPipeline(map, camera, scenario, 1);
    expectIdentical(first, repeat);

    const auto threaded = runPipeline(map, camera, scenario, 4);
    expectIdentical(first, threaded);
}

TEST_F(FaultDeterminismTest, SafeStopBrakesAndRecovers)
{
    // Pure-governor path on the measured pipeline: a burst of huge
    // virtual spikes must drive the mode to SAFE_STOP with a braking
    // command, and a calm stretch must recover toward NOMINAL.
    Rng rng(3);
    sensors::ScenarioParams sp;
    sp.roadLength = 120.0;
    sp.vehicles = 2;
    const sensors::Scenario scenario =
        sensors::makeHighwayScenario(rng, sp);
    const sensors::Camera camera(sensors::Resolution::HHD);
    slam::MappingParams mp;
    mp.orb.fast.maxKeypoints = 400;
    const slam::PriorMap map =
        slam::buildPriorMap(scenario.world, camera, 1, mp);

    pipeline::PipelineParams params;
    params.detector.inputSize = 128;
    params.detector.width = 0.25;
    params.trackerPool.tracker.cropSize = 32;
    params.trackerPool.tracker.width = 0.1;
    params.laneCenterY = scenario.world.road().laneCenter(1);
    params.motionPlanner.cruiseSpeed = scenario.ego.speed;
    params.faults.enabled = true;
    params.faults.seed = 5;
    params.faults.spikeProb = 1.0; // every frame spikes...
    params.faults.spikeMs = 1e5;   // ...far past the budget.
    params.governor.enabled = true;
    params.governor.budgetMs = 1e4;
    params.governor.escalateAfterMisses = 1;
    params.governor.recoverAfterFrames = 2;
    pipeline::Pipeline pipe(&map, &camera, nullptr, params);

    sensors::World world = scenario.world;
    Pose2 ego = scenario.ego.pose;
    pipe.reset(ego, {scenario.ego.speed, 0},
               {scenario.world.road().length - 10, params.laneCenterY});

    const auto step = [&] {
        world.step(0.1);
        ego.pos.x += scenario.ego.speed * 0.1;
        const sensors::Frame frame = camera.render(world, ego);
        return pipe.submitFrame(frame.image, 0.1, scenario.ego.speed)
            .front();
    };

    // Three straight misses walk NOMINAL -> ... -> SAFE_STOP; the
    // fourth frame executes the SAFE_STOP plan.
    for (int i = 0; i < 3; ++i)
        step();
    ASSERT_EQ(pipe.governor()->mode(),
              pipeline::OperatingMode::SafeStop);
    const auto stopped = step();
    EXPECT_EQ(stopped.mode, pipeline::OperatingMode::SafeStop);
    EXPECT_DOUBLE_EQ(stopped.command.steering, 0.0);
    EXPECT_LT(stopped.command.acceleration, 0.0);
    EXPECT_FALSE(stopped.detRan);
    EXPECT_TRUE(stopped.traCoasted);
    EXPECT_EQ(pipe.deadlineMonitor().violations(), 4u);

    // Calm: stop injecting (the injector is already constructed, so
    // rebuild the pipeline-equivalent by just observing recovery off
    // a clean latency stream is not possible here; instead verify the
    // recovery path on the governor directly).
    pipeline::DegradationGovernor calm(params.governor);
    calm.forceSafeStop(0, "test");
    for (int i = 0; i < 6; ++i)
        calm.observe(i + 1, {1, 1, 1, 1, 1});
    EXPECT_EQ(calm.mode(), pipeline::OperatingMode::Nominal);
}

} // namespace
