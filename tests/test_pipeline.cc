/**
 * @file
 * Integration tests for the end-to-end pipeline (measured mode) and
 * the modeled-mode system explorer: full scenario drives exercising
 * every engine, the Figure 1 latency composition, the Figure 11/12
 * configuration machinery and the Section 2.4 constraint checker.
 * Also the frame-graph executor across depths: depth 2-3 outputs
 * bitwise-equal to depth 1 with odometry in the loop, the governor's
 * plan lag, determinism under faults + governor escalation while
 * frames overlap, flight-recorder event conservation, and rejection
 * of a bad pipeline.depth.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "obs/flight.hh"
#include "obs/json.hh"
#include "pipeline/constraints.hh"
#include "pipeline/pipeline.hh"
#include "sensors/odometry.hh"
#include "sensors/scenario.hh"
#include "slam/mapping.hh"

namespace {

using namespace ad;
using namespace ad::pipeline;
using accel::Platform;

PipelineParams
testParams()
{
    PipelineParams p;
    p.detector.inputSize = 160;
    p.detector.width = 0.25;
    p.trackerPool.poolSize = 6;
    p.trackerPool.tracker.cropSize = 32;
    p.trackerPool.tracker.width = 0.1;
    p.motionPlanner.cruiseSpeed = 10.0;
    return p;
}

class PipelineIntegrationTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        rng_ = new Rng(31);
        sensors::ScenarioParams sp;
        sp.roadLength = 150.0;
        sp.vehicles = 3;
        scenario_ = new sensors::Scenario(
            sensors::makeUrbanScenario(*rng_, sp));
        camera_ = new sensors::Camera(sensors::Resolution::HHD);
        slam::MappingParams mp;
        mp.orb.fast.maxKeypoints = 500;
        map_ = new slam::PriorMap(
            slam::buildPriorMap(scenario_->world, *camera_, 1, mp));

        graph_ = new planning::RoadGraph();
        const double y = scenario_->world.road().laneCenter(1);
        int prev = -1;
        for (double x = 0; x <= 150.0; x += 50.0) {
            const int node = graph_->addNode({x, y});
            if (prev >= 0)
                graph_->addBidirectional(prev, node);
            prev = node;
        }
    }

    static void
    TearDownTestSuite()
    {
        delete graph_;
        delete map_;
        delete camera_;
        delete scenario_;
        delete rng_;
        graph_ = nullptr;
        map_ = nullptr;
        camera_ = nullptr;
        scenario_ = nullptr;
        rng_ = nullptr;
    }

    static Rng* rng_;
    static sensors::Scenario* scenario_;
    static sensors::Camera* camera_;
    static slam::PriorMap* map_;
    static planning::RoadGraph* graph_;
};

Rng* PipelineIntegrationTest::rng_ = nullptr;
sensors::Scenario* PipelineIntegrationTest::scenario_ = nullptr;
sensors::Camera* PipelineIntegrationTest::camera_ = nullptr;
slam::PriorMap* PipelineIntegrationTest::map_ = nullptr;
planning::RoadGraph* PipelineIntegrationTest::graph_ = nullptr;

TEST_F(PipelineIntegrationTest, DrivesScenarioEndToEnd)
{
    PipelineParams params = testParams();
    params.laneCenterY = scenario_->world.road().laneCenter(1);
    Pipeline pipeline(map_, camera_, graph_, params);

    sensors::World world = scenario_->world;
    Pose2 ego = scenario_->ego.pose;
    pipeline.reset(ego, {10, 0}, {140, params.laneCenterY});

    int localized = 0;
    int framesWithTracks = 0;
    const int frames = 15;
    for (int i = 0; i < frames; ++i) {
        world.step(0.1);
        ego.pos.x += 1.0;
        const sensors::Frame frame = camera_->render(world, ego);
        // Depth 1 (the default): exactly this frame's output.
        const auto outs = pipeline.submitFrame(frame.image, 0.1, 10.0);
        ASSERT_EQ(outs.size(), 1u);
        const FrameOutput& out = outs.front();
        EXPECT_EQ(out.frameId, i);
        localized += out.localization.ok;
        framesWithTracks += !out.tracks.empty();
        EXPECT_FALSE(out.trajectory.empty());
        EXPECT_GT(out.latencies.endToEndMs(), 0.0);
    }
    EXPECT_GE(localized, frames * 2 / 3);
    EXPECT_GT(framesWithTracks, 0);
    EXPECT_EQ(pipeline.endToEndLatency().count(),
              static_cast<std::size_t>(frames));
}

TEST_F(PipelineIntegrationTest, LatencyComposesParallelBranches)
{
    StageLatencies lat;
    lat.detMs = 10;
    lat.traMs = 5;
    lat.locMs = 8;
    lat.fusionMs = 0.1;
    lat.motPlanMs = 0.5;
    // DET + TRA = 15 > LOC = 8.
    EXPECT_NEAR(lat.endToEndMs(), 15.6, 1e-9);
    lat.locMs = 40;
    EXPECT_NEAR(lat.endToEndMs(), 40.6, 1e-9);
}

TEST_F(PipelineIntegrationTest, CycleBreakdownIsDnnAndFeDominated)
{
    PipelineParams params = testParams();
    params.laneCenterY = scenario_->world.road().laneCenter(1);
    Pipeline pipeline(map_, camera_, nullptr, params);

    sensors::World world = scenario_->world;
    Pose2 ego = scenario_->ego.pose;
    pipeline.reset(ego, {10, 0}, {140, params.laneCenterY});
    for (int i = 0; i < 8; ++i) {
        world.step(0.1);
        ego.pos.x += 1.0;
        const sensors::Frame frame = camera_->render(world, ego);
        pipeline.submitFrame(frame.image, 0.1, 10.0);
    }
    const auto& cycles = pipeline.cycleBreakdown();
    // Figure 7 shape: DNN dominates DET; FE dominates LOC.
    EXPECT_GT(cycles.detDnnMs / (cycles.detDnnMs + cycles.detOtherMs),
              0.7);
    EXPECT_GT(cycles.locFeMs / (cycles.locFeMs + cycles.locOtherMs),
              0.5);
}

TEST_F(PipelineIntegrationTest, DeterministicAcrossRuns)
{
    // Whole-system reproducibility: two pipelines with identical
    // seeds over identical frames produce identical outputs.
    const auto run = [&](std::vector<double>& poses,
                         std::vector<std::size_t>& detCounts) {
        PipelineParams params = testParams();
        params.laneCenterY = scenario_->world.road().laneCenter(1);
        Pipeline pipe(map_, camera_, nullptr, params);
        sensors::World world = scenario_->world;
        Pose2 ego = scenario_->ego.pose;
        pipe.reset(ego, {10, 0}, {140, params.laneCenterY});
        for (int i = 0; i < 5; ++i) {
            world.step(0.1);
            ego.pos.x += 1.0;
            const sensors::Frame frame = camera_->render(world, ego);
            const auto out =
                pipe.submitFrame(frame.image, 0.1, 10.0).front();
            poses.push_back(out.localization.pose.pos.x);
            poses.push_back(out.localization.pose.pos.y);
            detCounts.push_back(out.detections.size());
        }
    };
    std::vector<double> posesA, posesB;
    std::vector<std::size_t> detsA, detsB;
    run(posesA, detsA);
    run(posesB, detsB);
    ASSERT_EQ(posesA.size(), posesB.size());
    for (std::size_t i = 0; i < posesA.size(); ++i)
        EXPECT_DOUBLE_EQ(posesA[i], posesB[i]) << i;
    EXPECT_EQ(detsA, detsB);
}

/**
 * Everything semantically produced by one frame, flattened so two
 * runs can be compared bit for bit (doubles compare equal only when
 * the bits match; no tolerance anywhere).
 */
std::vector<double>
outputSignature(const FrameOutput& out)
{
    std::vector<double> sig;
    sig.push_back(static_cast<double>(out.frameId));
    sig.push_back(static_cast<double>(out.mode));
    sig.push_back(static_cast<double>(out.frameDropped));
    sig.push_back(static_cast<double>(out.detRan));
    sig.push_back(static_cast<double>(out.detFellBack));
    sig.push_back(static_cast<double>(out.locFellBack));
    sig.push_back(static_cast<double>(out.traCoasted));
    sig.push_back(static_cast<double>(out.detections.size()));
    for (const auto& d : out.detections) {
        sig.push_back(d.box.x);
        sig.push_back(d.box.y);
        sig.push_back(d.box.w);
        sig.push_back(d.box.h);
        sig.push_back(d.confidence);
    }
    sig.push_back(static_cast<double>(out.tracks.size()));
    for (const auto& t : out.tracks) {
        sig.push_back(static_cast<double>(t.id));
        sig.push_back(t.box.x);
        sig.push_back(t.box.y);
        sig.push_back(t.velocityPx.x);
        sig.push_back(t.velocityPx.y);
    }
    sig.push_back(static_cast<double>(out.localization.ok));
    sig.push_back(static_cast<double>(out.localization.relocalized));
    sig.push_back(out.localization.pose.pos.x);
    sig.push_back(out.localization.pose.pos.y);
    sig.push_back(out.localization.pose.theta);
    sig.push_back(out.command.steering);
    sig.push_back(out.command.acceleration);
    return sig;
}

/**
 * Drive `frames` frames through one pipeline via the submit/drain
 * interface, feeding a wheel-odometry reading before every frame, and
 * return the per-frame signatures in frame order. @p modes and
 * @p transitions, when given, receive each frame's operating mode and
 * the governor's transition log.
 */
std::vector<std::vector<double>>
driveOutputs(const slam::PriorMap* map, const sensors::Camera* camera,
             const sensors::Scenario& scenario,
             const PipelineParams& params, int frames,
             std::vector<OperatingMode>* modes = nullptr,
             std::vector<ModeTransition>* transitions = nullptr)
{
    Pipeline pipe(map, camera, nullptr, params);
    sensors::World world = scenario.world;
    Pose2 ego = scenario.ego.pose;
    pipe.reset(ego, {10, 0}, {140, params.laneCenterY});
    sensors::WheelOdometry odometry(5);

    std::vector<FrameOutput> outs;
    for (int i = 0; i < frames; ++i) {
        world.step(0.1);
        const Pose2 prev = ego;
        ego.pos.x += 1.0;
        ego.theta += 0.002; // a gentle curve the motion model must see.
        // Buffered until the next frame's LOC stage, at every depth.
        pipe.feedOdometry(odometry.measure(prev, ego, 0.1));
        const sensors::Frame frame = camera->render(world, ego);
        for (auto& out : pipe.submitFrame(frame.image, 0.1, 10.0))
            outs.push_back(std::move(out));
    }
    for (auto& out : pipe.drainAsync())
        outs.push_back(std::move(out));
    std::sort(outs.begin(), outs.end(),
              [](const FrameOutput& a, const FrameOutput& b) {
                  return a.frameId < b.frameId;
              });

    std::vector<std::vector<double>> sigs;
    for (const FrameOutput& out : outs) {
        sigs.push_back(outputSignature(out));
        if (modes)
            modes->push_back(out.mode);
    }
    if (transitions && pipe.governor())
        *transitions = pipe.governor()->transitions();
    return sigs;
}

/**
 * The governor's mode once it has observed every frame up to and
 * including @p frame, replayed from its transition log (NOMINAL
 * before the first transition).
 */
OperatingMode
modeAfter(const std::vector<ModeTransition>& log, std::int64_t frame)
{
    OperatingMode mode = OperatingMode::Nominal;
    for (const ModeTransition& t : log)
        if (t.frame <= frame)
            mode = t.to;
    return mode;
}

/**
 * The plan-lag contract at depth D: frame k runs in the mode the
 * governor reached after observing frame k - D.
 */
void
expectPlanLag(const std::vector<OperatingMode>& modes,
              const std::vector<ModeTransition>& log, int depth)
{
    for (std::size_t k = 0; k < modes.size(); ++k)
        EXPECT_EQ(modes[k],
                  modeAfter(log, static_cast<std::int64_t>(k) - depth))
            << "frame " << k << " depth " << depth;
}

TEST_F(PipelineIntegrationTest, AsyncMatrixMatchesSerialBitwise)
{
    // The tentpole determinism claim: with the governor off, depths 2
    // and 3 overlap frames on the pool yet produce bitwise-identical
    // outputs to depth 1 (one frame at a time on the caller's thread)
    // at every kernel thread count -- engine state, odometry included,
    // advances in frame order regardless of how stage executions
    // interleave on the virtual timeline.
    const int frames = 6;
    PipelineParams params = testParams();
    params.laneCenterY = scenario_->world.road().laneCenter(1);
    params.nnThreads = 1;
    const auto reference =
        driveOutputs(map_, camera_, *scenario_, params, frames);
    ASSERT_EQ(reference.size(), static_cast<std::size_t>(frames));
    for (const int threads : {1, 2, 8}) {
        params.nnThreads = threads;
        for (const int depth : {1, 2, 3}) {
            params.depth = depth;
            EXPECT_EQ(reference, driveOutputs(map_, camera_, *scenario_,
                                              params, frames))
                << "threads " << threads << " depth " << depth;
        }
    }
}

TEST_F(PipelineIntegrationTest, AsyncDepthOneWithGovernorMatchesSerial)
{
    // At depth 1 the commit of frame k precedes the admission of
    // frame k+1, so the governor's plan feedback has zero lag: every
    // frame runs in the mode the governor reached after the frame
    // before it, the serial plan stream. An impossible budget makes
    // every frame miss, so the run escalates deterministically.
    PipelineParams params = testParams();
    params.laneCenterY = scenario_->world.road().laneCenter(1);
    params.faults = FaultInjectorParams::scaledMix(0.5, 7);
    params.governor.enabled = true;
    params.governor.budgetMs = 0.5;

    std::vector<OperatingMode> modes;
    std::vector<ModeTransition> log;
    driveOutputs(map_, camera_, *scenario_, params, 8, &modes, &log);
    ASSERT_EQ(modes.size(), 8u);
    EXPECT_FALSE(log.empty());
    expectPlanLag(modes, log, 1);
}

TEST_F(PipelineIntegrationTest, AsyncEscalationMidOverlapDeterministic)
{
    // Governor escalation while three frames are in flight: an
    // impossible budget forces NOMINAL -> DEGRADED -> ... while the
    // executor overlaps frames. The run must replay identically
    // (plans are staged at commit and consumed at admission, both in
    // frame order) and must actually escalate.
    PipelineParams params = testParams();
    params.laneCenterY = scenario_->world.road().laneCenter(1);
    params.faults = FaultInjectorParams::scaledMix(0.4, 11);
    params.governor.enabled = true;
    params.governor.budgetMs = 0.5; // every frame misses.
    params.depth = 3;

    std::vector<OperatingMode> modesA, modesB;
    std::vector<ModeTransition> log;
    const auto runA = driveOutputs(map_, camera_, *scenario_, params,
                                   10, &modesA, &log);
    const auto runB = driveOutputs(map_, camera_, *scenario_, params,
                                   10, &modesB);
    EXPECT_EQ(runA, runB);
    EXPECT_EQ(modesA, modesB);
    EXPECT_EQ(modesA.front(), OperatingMode::Nominal);
    EXPECT_TRUE(std::find(modesA.begin(), modesA.end(),
                          OperatingMode::Degraded) != modesA.end());
    EXPECT_NE(modesA.back(), OperatingMode::Nominal);
    // Plans lag depth-1 = 2 frames of feedback.
    expectPlanLag(modesA, log, 3);
}

TEST_F(PipelineIntegrationTest, RejectsDepthBelowOne)
{
    // fatal() exits through static destructors, which join the shared
    // worker pool: a forked child of a process whose pool threads
    // were started by earlier tests would hang, so re-execute instead.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    PipelineParams params = testParams();
    params.depth = 0;
    EXPECT_DEATH(Pipeline(map_, camera_, nullptr, params),
                 "pipeline\\.depth.*got 0");
}

/**
 * Per-(kind:name) event counts in one flight dump, plus the number of
 * e2e_ms metrics above @p budgetMs under the key "e2e_ms>budget".
 */
std::map<std::string, int>
flightEventCounts(double budgetMs)
{
    std::string error;
    const auto doc = obs::json::parse(
        obs::flight().dumpJson("test", -1, -1), &error);
    EXPECT_TRUE(doc) << error;
    std::map<std::string, int> counts;
    if (!doc)
        return counts;
    for (const auto& stream :
         doc->find("flight")->find("streams")->asArray())
        for (const auto& ev : stream.find("events")->asArray()) {
            const std::string key = ev.find("kind")->asString() + ":" +
                                    ev.find("name")->asString();
            ++counts[key];
            if (key == "metric:e2e_ms" &&
                ev.find("value")->asNumber() > budgetMs)
                ++counts["e2e_ms>budget"];
        }
    return counts;
}

TEST_F(PipelineIntegrationTest, AsyncFlightEventsConserved)
{
    // Depth 3 places flight spans at overlapped virtual stage times
    // but must emit exactly the same events per frame as depth 1:
    // same six spans, same e2e metric, same fault notes. A deadline
    // miss is the one wall-clock event (measured stage times plus
    // 80 ms virtual spikes straddle the budget), so each run's miss
    // marks must instead match its own over-budget e2e metrics.
    PipelineParams params = testParams();
    params.laneCenterY = scenario_->world.road().laneCenter(1);
    params.faults = FaultInjectorParams::scaledMix(0.5, 13);
    const double budgetMs = params.deadline.budgetMs;

    obs::FlightParams fp;
    fp.capacity = 4096;
    fp.dumpOnMiss = false;
    fp.dumpOnSafeStop = false;
    auto& fl = obs::flight();

    std::map<int, std::map<std::string, int>> counts;
    for (const int depth : {1, 3}) {
        fl.configure(fp); // clears the rings.
        fl.setEnabled(true);
        params.depth = depth;
        driveOutputs(map_, camera_, *scenario_, params, 8);
        auto& c = counts[depth];
        c = flightEventCounts(budgetMs);
        fl.setEnabled(false);
        EXPECT_EQ(c["mark:deadline.miss"], c["e2e_ms>budget"])
            << "depth " << depth;
        c.erase("mark:deadline.miss");
        c.erase("e2e_ms>budget");
    }

    EXPECT_EQ(counts[1]["span:FRAME"], 8);
    EXPECT_EQ(counts[1]["metric:e2e_ms"], 8);
    EXPECT_EQ(counts[1], counts[3]);
}

TEST(SystemConfig, NameIsReadable)
{
    SystemConfig c;
    c.det = Platform::Gpu;
    c.tra = Platform::Asic;
    c.loc = Platform::Cpu;
    EXPECT_EQ(c.name(), "DET:GPU TRA:ASIC LOC:CPU");
}

TEST(SystemModel, AllConfigsEnumerates64)
{
    const auto configs = SystemModel::allConfigs();
    EXPECT_EQ(configs.size(), 64u);
}

TEST(SystemModel, CpuOnlyMissesConstraintsAcceleratedMeets)
{
    SystemModel model;
    Rng rng(5);

    SystemConfig cpuOnly;
    cpuOnly.det = cpuOnly.tra = cpuOnly.loc = Platform::Cpu;
    const auto cpu = model.assess(cpuOnly, 20000, rng);
    EXPECT_FALSE(cpu.meetsLatencyConstraint);
    // The paper's 9.1 s end-to-end CPU tail.
    EXPECT_NEAR(cpu.tailMs, 9100.0, 600.0);

    SystemConfig best; // Figure 11's 16.1 ms design
    best.det = Platform::Gpu;
    best.tra = Platform::Asic;
    best.loc = Platform::Asic;
    const auto accel = model.assess(best, 20000, rng);
    EXPECT_TRUE(accel.meetsLatencyConstraint);
    EXPECT_NEAR(accel.tailMs, 16.1, 2.5);
}

TEST(SystemModel, MeanOnlyConfigsExist)
{
    // Section 5.2: some configurations meet 100 ms on mean latency
    // but fail at the tail -- e.g. LOC on CPU (mean 40.8, tail 294).
    SystemModel model;
    Rng rng(11);
    SystemConfig c;
    c.det = Platform::Gpu;
    c.tra = Platform::Gpu;
    c.loc = Platform::Cpu;
    const auto a = model.assess(c, 50000, rng);
    EXPECT_TRUE(a.meetsLatencyOnMeanOnly);
}

TEST(SystemModel, GpuConfigBurnsMostPower)
{
    SystemModel model;
    SystemConfig gpu;
    gpu.det = gpu.tra = gpu.loc = Platform::Gpu;
    SystemConfig asic;
    asic.det = asic.tra = asic.loc = Platform::Asic;
    EXPECT_GT(model.computePowerW(gpu), 1000.0); // >1 kW (Section 5.3)
    EXPECT_LT(model.computePowerW(asic), 200.0);
}

TEST(SystemModel, RangeReductionShapesMatchFigure12)
{
    SystemModel model;
    Rng rng(13);
    SystemConfig gpu;
    gpu.det = gpu.tra = gpu.loc = Platform::Gpu;
    const auto g = model.assess(gpu, 1000, rng);
    // All-GPU: >10% range loss (the paper reports up to 12%).
    EXPECT_GT(g.rangeReductionPct, 10.0);

    SystemConfig asic;
    asic.det = asic.tra = asic.loc = Platform::Asic;
    const auto a = model.assess(asic, 1000, rng);
    // ASIC designs stay within ~2-3%.
    EXPECT_LT(a.rangeReductionPct, 3.5);
    EXPECT_LT(a.rangeReductionPct, g.rangeReductionPct / 3);
}

TEST(SystemModel, ResolutionSweepMatchesFigure13)
{
    // FHD: the best GPU/ASIC mix still meets 100 ms; QHD: nothing
    // does.
    SystemModel model;
    Rng rng(17);
    const double kittiPx = 1242.0 * 375;
    const double fhd = 1920.0 * 1080 / kittiPx;
    const double qhd = 2560.0 * 1440 / kittiPx;

    bool anyMeetsFhd = false;
    bool anyMeetsQhd = false;
    for (const auto& c : SystemModel::allConfigs(8, fhd)) {
        if (model.assess(c, 4000, rng).meetsLatencyConstraint)
            anyMeetsFhd = true;
    }
    for (const auto& c : SystemModel::allConfigs(8, qhd)) {
        if (model.assess(c, 4000, rng).meetsLatencyConstraint)
            anyMeetsQhd = true;
    }
    EXPECT_TRUE(anyMeetsFhd);
    EXPECT_FALSE(anyMeetsQhd);
}

TEST(ConstraintChecker, ReportsAllFiveClasses)
{
    SystemModel model;
    Rng rng(19);
    SystemConfig c;
    c.det = Platform::Gpu;
    c.tra = Platform::Asic;
    c.loc = Platform::Asic;
    const auto a = model.assess(c, 5000, rng);
    ConstraintChecker checker;
    const auto verdicts = checker.check(a);
    ASSERT_EQ(verdicts.size(), 5u);
    EXPECT_EQ(verdicts[0].constraint, "performance");
    EXPECT_TRUE(verdicts[0].satisfied);
    EXPECT_EQ(verdicts[4].constraint, "power");
    for (const auto& v : verdicts)
        EXPECT_FALSE(v.detail.empty());
}

TEST(ConstraintChecker, CpuSystemFailsPerformance)
{
    SystemModel model;
    Rng rng(23);
    SystemConfig c;
    c.det = c.tra = c.loc = Platform::Cpu;
    const auto a = model.assess(c, 5000, rng);
    ConstraintChecker checker;
    const auto verdicts = checker.check(a);
    EXPECT_FALSE(verdicts[0].satisfied); // performance
    EXPECT_FALSE(checker.allSatisfied(a));
}

TEST(ConstraintChecker, GpuSystemFailsPowerOnly)
{
    SystemModel model;
    Rng rng(29);
    SystemConfig c;
    c.det = c.tra = c.loc = Platform::Gpu;
    const auto a = model.assess(c, 5000, rng);
    ConstraintChecker checker;
    const auto verdicts = checker.check(a);
    EXPECT_TRUE(verdicts[0].satisfied);  // performance OK
    EXPECT_FALSE(verdicts[4].satisfied); // power: >5% range loss
}

TEST(ConstraintChecker, AcceleratedDesignSatisfiesEverything)
{
    SystemModel model;
    Rng rng(31);
    SystemConfig c; // FPGA LOC + ASIC DET/TRA: low power, low latency
    c.det = Platform::Asic;
    c.tra = Platform::Asic;
    c.loc = Platform::Asic;
    const auto a = model.assess(c, 5000, rng);
    ConstraintChecker checker;
    EXPECT_TRUE(checker.allSatisfied(a))
        << "tail=" << a.tailMs << " range=" << a.rangeReductionPct;
}

} // namespace
