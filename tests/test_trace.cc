/**
 * @file
 * Tests for the frame-scoped tracing layer: span collection across
 * threads, frame-id tagging, Chrome trace_event JSON export (verified
 * by parsing the emitted document back, not by grepping), the JSON
 * writer's exact round trip, the disabled-is-inert contract, and the
 * acceptance-criterion determinism test -- pipeline outputs are
 * bitwise-identical with observability on or off.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
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
using obs::ScopedTraceFrame;
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
    {
        ScopedTraceFrame frame(7);
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
    // Both inherited the scoped frame.
    EXPECT_EQ(outer.frame, 7);
    EXPECT_EQ(inner.frame, 7);
    // An explicit frame id overrides the scoped frame; the manual
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
    {
        ScopedTraceFrame frame(3);
        {
            TraceSpan span(rec, "DET", "stage");
        }
        // Exercise the JSON string escaper with hostile span names.
        rec.record("quote\"back\\slash", "test", 5.0, 1.5);
        rec.record("newline\ntab\t", "test", 8.0, 0.5);
    }

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

TEST(Json, DumpRoundTripsEveryValue)
{
    using obs::json::Array;
    using obs::json::Object;
    using obs::json::Value;
    const Value doc = Object{
        {"int", 9007199254740992LL}, // 2^53: largest exact integer.
        {"neg", -3}, {"frac", 0.1}, {"tiny", 4.9e-324},
        {"huge", 1.7976931348623157e308},
        {"text", "quote\"back\\slash\nnewline\ttab\x01"},
        {"flag", true}, {"none", nullptr},
        {"list", Array{1, "two", Array{}, Object{}}},
        {"nested", Object{{"b", 2.5}, {"a", false}}}};
    const std::string text = obs::json::dump(doc);
    std::string error;
    const auto back = obs::json::parse(text, &error);
    ASSERT_TRUE(back) << error;
    // Equal values dump to equal bytes, so a round trip is a fixed
    // point -- and every number came back exactly.
    EXPECT_EQ(obs::json::dump(*back), text);
    EXPECT_EQ(back->find("int")->asNumber(), 9007199254740992.0);
    EXPECT_EQ(back->find("frac")->asNumber(), 0.1);
    EXPECT_EQ(back->find("tiny")->asNumber(), 4.9e-324);
    EXPECT_EQ(back->find("huge")->asNumber(), 1.7976931348623157e308);
    EXPECT_EQ(back->find("text")->asString(),
              "quote\"back\\slash\nnewline\ttab\x01");
    EXPECT_TRUE(back->find("none")->isNull());
    EXPECT_EQ(back->find("list")->asArray().size(), 4u);
    EXPECT_EQ(back->find("nested")->find("b")->asNumber(), 2.5);
    // Members come out in key order.
    EXPECT_LT(text.find("\"a\""), text.find("\"b\""));
    // JSON has no infinity or NaN.
    EXPECT_EQ(obs::json::dump(obs::json::Array{
                  std::numeric_limits<double>::infinity(),
                  std::numeric_limits<double>::quiet_NaN()}),
              "[\n  null,\n  null\n]\n");
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

/**
 * The ORB extractor's per-level spans (loc.fe.pyramid, .fast, .smooth
 * and .brief) lie inside their frame's loc.fe span and add up to no
 * more than it. Uses the fixture for its pipeline run and teardown.
 */
TEST_F(TraceDeterminismTest, FeSubSpansNestInsideLocFe)
{
    Rng rng(29);
    sensors::ScenarioParams sp;
    sp.roadLength = 120.0;
    sp.vehicles = 2;
    const sensors::Scenario scenario =
        sensors::makeUrbanScenario(rng, sp);
    const sensors::Camera camera(sensors::Resolution::HHD);
    slam::MappingParams mp;
    mp.orb.fast.maxKeypoints = 400;
    obs::tracer().setEnabled(false); // survey spans have no loc.fe
    const slam::PriorMap map =
        slam::buildPriorMap(scenario.world, camera, 1, mp);

    obs::tracer().setEnabled(true);
    runPipeline(map, camera, scenario);
    const auto events = obs::tracer().snapshot();

    std::vector<obs::TraceEvent> parents;
    for (const auto& e : events)
        if (e.name == "loc.fe")
            parents.push_back(e);
    ASSERT_EQ(parents.size(), 8u); // one per frame
    std::vector<double> childSum(parents.size(), 0.0);
    std::set<std::string> childNames;
    constexpr double slackUs = 1e-3; // start + dur rounding
    for (const auto& e : events) {
        if (e.name.rfind("loc.fe.", 0) != 0)
            continue;
        childNames.insert(e.name);
        bool nested = false;
        for (std::size_t i = 0; i < parents.size() && !nested; ++i) {
            const auto& p = parents[i];
            if (e.frame == p.frame && e.tid == p.tid &&
                e.startUs >= p.startUs &&
                e.startUs + e.durUs <= p.startUs + p.durUs + slackUs) {
                childSum[i] += e.durUs;
                nested = true;
            }
        }
        EXPECT_TRUE(nested) << e.name << " at " << e.startUs
                            << " us (frame " << e.frame
                            << ") lies outside every loc.fe";
    }
    EXPECT_EQ(childNames,
              (std::set<std::string>{"loc.fe.brief", "loc.fe.fast",
                                     "loc.fe.pyramid", "loc.fe.smooth"}));
    for (std::size_t i = 0; i < parents.size(); ++i)
        EXPECT_LE(childSum[i], parents[i].durUs + slackUs)
            << "frame " << parents[i].frame;
}

/**
 * Every loc.fe* span has a root: the FRAME of its pipeline frame or
 * the prior-map survey's slam.survey, on the same thread and
 * enclosing it in time. Uses the fixture for its pipeline run and
 * teardown.
 */
TEST_F(TraceDeterminismTest, EveryFeSpanLiesInsideAFrameOrTheSurvey)
{
    Rng rng(31);
    sensors::ScenarioParams sp;
    sp.roadLength = 120.0;
    sp.vehicles = 2;
    const sensors::Scenario scenario =
        sensors::makeUrbanScenario(rng, sp);
    const sensors::Camera camera(sensors::Resolution::HHD);
    slam::MappingParams mp;
    mp.orb.fast.maxKeypoints = 400;
    obs::tracer().clear();
    obs::tracer().setEnabled(true);
    const slam::PriorMap map =
        slam::buildPriorMap(scenario.world, camera, 1, mp);
    runPipeline(map, camera, scenario);
    const auto events = obs::tracer().snapshot();

    std::vector<obs::TraceEvent> roots;
    for (const auto& e : events)
        if (e.name == "FRAME" || e.name == "slam.survey")
            roots.push_back(e);
    EXPECT_EQ(std::count_if(roots.begin(), roots.end(),
                            [](const obs::TraceEvent& r) {
                                return r.name == "slam.survey";
                            }),
              1);
    constexpr double slackUs = 1e-3; // start + dur rounding
    std::size_t feSpans = 0;
    std::size_t surveyFeSpans = 0;
    for (const auto& e : events) {
        if (e.name.rfind("loc.fe", 0) != 0)
            continue;
        ++feSpans;
        const auto root = std::find_if(
            roots.begin(), roots.end(), [&](const obs::TraceEvent& r) {
                return r.tid == e.tid && e.startUs >= r.startUs &&
                       e.startUs + e.durUs <=
                           r.startUs + r.durUs + slackUs;
            });
        ASSERT_NE(root, roots.end())
            << e.name << " at " << e.startUs << " us (frame " << e.frame
            << ") lies outside every FRAME and slam.survey";
        if (root->name == "slam.survey")
            ++surveyFeSpans;
    }
    // Both kinds of root are exercised: the survey's extractions and
    // the frames' own.
    EXPECT_GT(surveyFeSpans, 0u);
    EXPECT_GT(feSpans, surveyFeSpans);
}

} // namespace
