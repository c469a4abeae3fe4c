/**
 * @file
 * Tests for the frame-scoped tracing layer: span collection across
 * threads, frame-id tagging, Chrome trace_event JSON export (verified
 * by parsing the emitted document back, not by grepping), the
 * disabled-is-inert contract, and the acceptance-criterion determinism
 * test -- pipeline outputs are bitwise-identical with observability on
 * or off.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "pipeline/pipeline.hh"
#include "sensors/scenario.hh"
#include "slam/mapping.hh"

namespace {

using namespace ad;
using obs::TraceRecorder;
using obs::TraceSpan;

TEST(TraceRecorder, DisabledRecordsNothing)
{
    TraceRecorder rec;
    ASSERT_FALSE(rec.enabled());
    rec.record("manual", "test", 0.0, 1.0);
    {
        TraceSpan span(rec, "span");
    }
    // record() itself honors the master switch, and TraceSpan never
    // even samples the clock.
    EXPECT_EQ(rec.eventCount(), 0u);
    EXPECT_TRUE(rec.snapshot().empty());
}

TEST(TraceRecorder, NestedSpansAndFrameIds)
{
    TraceRecorder rec;
    rec.setEnabled(true);
    rec.setFrame(7);
    {
        TraceSpan outer(rec, "outer", "test");
        {
            TraceSpan inner(rec, "inner", "test");
        }
    }
    rec.record("tagged", "test", 1e9, 2.0, 99);

    const auto events = rec.snapshot();
    ASSERT_EQ(events.size(), 3u);
    const auto byName = [&events](const char* name) {
        for (const auto& e : events)
            if (e.name == name)
                return e;
        ADD_FAILURE() << "span '" << name << "' missing";
        return obs::TraceEvent{};
    };
    const auto outer = byName("outer");
    const auto inner = byName("inner");
    // The inner span nests inside the outer one.
    EXPECT_LE(outer.startUs, inner.startUs);
    EXPECT_GE(outer.startUs + outer.durUs,
              inner.startUs + inner.durUs);
    // Both inherited the recorder's current frame.
    EXPECT_EQ(outer.frame, 7);
    EXPECT_EQ(inner.frame, 7);
    // An explicit frame id overrides the current frame; the manual
    // event's far-future start also sorts it last in the snapshot.
    EXPECT_EQ(byName("tagged").frame, 99);
    EXPECT_EQ(events.back().name, "tagged");

    rec.clear();
    EXPECT_EQ(rec.eventCount(), 0u);
}

TEST(TraceRecorder, SpansFromWorkerThreadsGetDistinctTids)
{
    TraceRecorder rec;
    rec.setEnabled(true);
    constexpr int kThreads = 4;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&rec, t] {
            TraceSpan span(rec, "worker" + std::to_string(t), "test");
        });
    }
    for (auto& w : workers)
        w.join();
    {
        TraceSpan span(rec, "main", "test");
    }

    const auto events = rec.snapshot();
    ASSERT_EQ(events.size(), kThreads + 1u);
    std::set<std::uint32_t> tids;
    for (const auto& e : events)
        tids.insert(e.tid);
    // Each OS thread owns its own buffer and small sequential tid.
    EXPECT_EQ(tids.size(), kThreads + 1u);
}

TEST(TraceRecorder, NnLayerSpansRequireBothSwitches)
{
    TraceRecorder rec;
    rec.setNnLayerSpans(true);
    EXPECT_FALSE(rec.nnLayerSpans()); // master switch still off.
    rec.setEnabled(true);
    EXPECT_TRUE(rec.nnLayerSpans());
    rec.setEnabled(false);
    EXPECT_FALSE(rec.nnLayerSpans());
}

TEST(TraceRecorder, ChromeTraceJsonParsesBack)
{
    TraceRecorder rec;
    rec.setEnabled(true);
    rec.setFrame(3);
    {
        TraceSpan span(rec, "DET", "stage");
    }
    // Exercise the JSON string escaper with hostile span names.
    rec.record("quote\"back\\slash", "test", 5.0, 1.5);
    rec.record("newline\ntab\t", "test", 8.0, 0.5);

    const std::string path = ::testing::TempDir() + "trace_test.json";
    ASSERT_TRUE(rec.writeChromeTrace(path));

    std::string error;
    const auto doc = obs::json::parseFile(path, &error);
    ASSERT_TRUE(doc) << error;
    std::remove(path.c_str());

    ASSERT_TRUE(doc->isObject());
    const auto* unit = doc->find("displayTimeUnit");
    ASSERT_NE(unit, nullptr);
    EXPECT_EQ(unit->asString(), "ms");

    const auto* events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    const auto& arr = events->asArray();
    ASSERT_EQ(arr.size(), rec.eventCount());

    std::set<std::string> names;
    for (const auto& e : arr) {
        ASSERT_TRUE(e.isObject());
        EXPECT_EQ(e.find("ph")->asString(), "X");
        EXPECT_TRUE(e.find("ts")->isNumber());
        EXPECT_TRUE(e.find("dur")->isNumber());
        const auto* args = e.find("args");
        ASSERT_NE(args, nullptr);
        ASSERT_NE(args->find("frame"), nullptr);
        EXPECT_DOUBLE_EQ(args->find("frame")->asNumber(), 3.0);
        names.insert(e.find("name")->asString());
    }
    // The escaper round-trips through the parser losslessly.
    EXPECT_TRUE(names.count("DET"));
    EXPECT_TRUE(names.count("quote\"back\\slash"));
    EXPECT_TRUE(names.count("newline\ntab\t"));
}

/**
 * Acceptance criterion: enabling tracing + metrics must not perturb a
 * single pipeline output bit. Runs the same scenario through two
 * identically constructed pipelines, one fully instrumented and one
 * dark, and compares every algorithmic output exactly.
 */
class TraceDeterminismTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        // Never leak observability state into other tests.
        obs::tracer().setEnabled(false);
        obs::tracer().setNnLayerSpans(false);
        obs::tracer().clear();
        obs::metrics().setEnabled(false);
        obs::metrics().reset();
    }

    static std::vector<double>
    runPipeline(const slam::PriorMap& map, const sensors::Camera& camera,
                const sensors::Scenario& scenario)
    {
        pipeline::PipelineParams params;
        params.detector.inputSize = 128;
        params.detector.width = 0.25;
        params.trackerPool.tracker.cropSize = 32;
        params.trackerPool.tracker.width = 0.1;
        params.laneCenterY = scenario.world.road().laneCenter(1);
        params.motionPlanner.cruiseSpeed = scenario.ego.speed;
        pipeline::Pipeline pipe(&map, &camera, nullptr, params);

        sensors::World world = scenario.world;
        Pose2 ego = scenario.ego.pose;
        pipe.reset(ego, {scenario.ego.speed, 0},
                   {scenario.world.road().length - 10,
                    params.laneCenterY});

        std::vector<double> sig;
        for (int i = 0; i < 8; ++i) {
            world.step(0.1);
            ego.pos.x += scenario.ego.speed * 0.1;
            const sensors::Frame frame = camera.render(world, ego);
            const auto out =
                pipe.submitFrame(frame.image, 0.1, scenario.ego.speed)
                    .front();
            sig.push_back(static_cast<double>(out.detections.size()));
            for (const auto& d : out.detections) {
                sig.insert(sig.end(), {d.box.x, d.box.y, d.box.w,
                                       d.box.h, d.confidence});
            }
            sig.push_back(static_cast<double>(out.tracks.size()));
            sig.push_back(out.localization.ok ? 1.0 : 0.0);
            sig.push_back(out.localization.pose.pos.x);
            sig.push_back(out.localization.pose.pos.y);
            sig.push_back(out.localization.pose.theta);
            sig.push_back(
                static_cast<double>(out.trajectory.points.size()));
            for (const auto& p : out.trajectory.points) {
                sig.insert(sig.end(),
                           {p.pos.x, p.pos.y, p.heading, p.speed});
            }
        }
        return sig;
    }
};

TEST_F(TraceDeterminismTest, OutputsBitwiseIdenticalWithObsOnOrOff)
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

    obs::tracer().setEnabled(false);
    obs::metrics().setEnabled(false);
    const auto dark = runPipeline(map, camera, scenario);

    obs::tracer().setEnabled(true);
    obs::tracer().setNnLayerSpans(true);
    obs::metrics().setEnabled(true);
    const auto traced = runPipeline(map, camera, scenario);

    // Instrumentation actually fired...
    EXPECT_GT(obs::tracer().eventCount(), 0u);
    // ...and perturbed nothing: every output double is bit-identical.
    ASSERT_EQ(dark.size(), traced.size());
    for (std::size_t i = 0; i < dark.size(); ++i)
        ASSERT_DOUBLE_EQ(dark[i], traced[i]) << "signature index " << i;
}

} // namespace
