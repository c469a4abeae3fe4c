/**
 * @file
 * Tests for the flight recorder and the perf-counter sampler: ring
 * bounding and eviction accounting, the disabled no-op contract, the
 * dump JSON schema (parsed back, time-sorted, conservation
 * invariant), trigger policies and the auto-dump budget, name
 * truncation, perf sampling sanity and the per-thread publish/latest
 * table -- plus the ISSUE 7 acceptance test that arming the recorder
 * perturbs no pipeline output bit.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/random.hh"
#include "obs/flight.hh"
#include "obs/json.hh"
#include "obs/obs.hh"
#include "pipeline/pipeline.hh"
#include "sensors/scenario.hh"
#include "slam/mapping.hh"

namespace {

using namespace ad;
using obs::FlightParams;
using obs::FlightRecorder;
using obs::PerfDelta;
using obs::PerfSampler;

/** A recorder configured for unit tests (no dump file). */
FlightParams
testParams(std::size_t capacity = 8, int streams = 1)
{
    FlightParams params;
    params.streams = streams;
    params.capacity = capacity;
    return params;
}

TEST(FlightRecorder, RingIsBoundedAndCountsEvictions)
{
    FlightRecorder rec;
    rec.configure(testParams(4));
    rec.setEnabled(true);
    for (int i = 0; i < 10; ++i)
        rec.recordSpan(0, "S", i, i * 10.0, 1.0);
    EXPECT_EQ(rec.eventCount(), 4u);
    EXPECT_EQ(rec.droppedEvents(0), 6u);

    // The survivors are the four newest events, oldest first.
    std::string error;
    const auto doc = obs::json::parse(
        rec.dumpJson("test", -1, -1), &error);
    ASSERT_TRUE(doc) << error;
    const auto& events = *doc->find("flight")
                              ->find("streams")
                              ->asArray()[0]
                              .find("events");
    ASSERT_EQ(events.asArray().size(), 4u);
    EXPECT_DOUBLE_EQ(
        events.asArray()[0].find("frame")->asNumber(), 6.0);
    EXPECT_DOUBLE_EQ(
        events.asArray()[3].find("frame")->asNumber(), 9.0);
}

TEST(FlightRecorder, DisabledRecordsNothing)
{
    FlightRecorder rec;
    rec.configure(testParams());
    rec.setEnabled(false);
    rec.recordSpan(0, "S", 0, 0.0, 1.0);
    rec.recordMetric(0, "m", 0, 0.0, 1.0);
    rec.recordMark(0, "mark", 0, 0.0);
    rec.noteDeadlineMiss(0, 0, 0.0, 120.0, 20.0);
    EXPECT_EQ(rec.eventCount(), 0u);
    EXPECT_EQ(rec.triggersSeen(), 0u);
}

TEST(FlightRecorder, DumpSchemaSortsAndConserves)
{
    FlightRecorder rec;
    rec.configure(testParams(16, 2));
    rec.setEnabled(true);
    // Deliberately out of time order; the dump must sort.
    rec.recordSpan(0, "FRAME", 1, 100.0, 30.0);
    rec.recordSpan(0, "DET", 1, 100.0, 10.0, 1);
    rec.recordMetric(0, "e2e_ms", 1, 130.0, 30.0);
    rec.recordMark(0, "late", 1, 90.0);
    rec.recordTransition(1, "overrun", 1, 95.0, 0, 1, "NOMINAL",
                         "DEGRADED");
    rec.recordAdmission(1, "shed", 2, 96.0, 1.5, true);

    std::string error;
    const auto doc = obs::json::parse(
        rec.dumpJson("unit-test", 1, 0), &error);
    ASSERT_TRUE(doc) << error;
    const auto* flight = doc->find("flight");
    ASSERT_TRUE(flight);
    EXPECT_DOUBLE_EQ(flight->find("version")->asNumber(), 1.0);
    EXPECT_EQ(flight->find("reason")->asString(), "unit-test");
    EXPECT_DOUBLE_EQ(flight->find("trigger_frame")->asNumber(), 1.0);
    const auto& streams = flight->find("streams")->asArray();
    ASSERT_EQ(streams.size(), 2u);

    // Stream 0: sorted by t_ms with the longer span first at ties.
    const auto& s0 = streams[0].find("events")->asArray();
    ASSERT_EQ(s0.size(), 4u);
    EXPECT_EQ(s0[0].find("name")->asString(), "late");
    EXPECT_EQ(s0[1].find("name")->asString(), "FRAME");
    EXPECT_EQ(s0[2].find("name")->asString(), "DET");
    EXPECT_EQ(s0[3].find("name")->asString(), "e2e_ms");
    EXPECT_DOUBLE_EQ(s0[2].find("track")->asNumber(), 1.0);

    // Stream 1: the transition and admission payloads round-trip.
    const auto& s1 = streams[1].find("events")->asArray();
    ASSERT_EQ(s1.size(), 2u);
    EXPECT_EQ(s1[0].find("transition")->asString(),
              "NOMINAL>DEGRADED");
    EXPECT_EQ(s1[1].find("name")->asString(), "shed");
    EXPECT_DOUBLE_EQ(s1[1].find("cost_scale")->asNumber(), 1.5);
    EXPECT_DOUBLE_EQ(s1[1].find("degraded")->asNumber(), 1.0);

    // Conservation: recorded == dropped + retained, per stream.
    for (const auto& s : streams)
        EXPECT_DOUBLE_EQ(s.find("recorded")->asNumber(),
                         s.find("dropped")->asNumber() +
                             static_cast<double>(
                                 s.find("events")->asArray().size()));
}

TEST(FlightRecorder, LongNamesAreTruncatedNotCorrupted)
{
    FlightRecorder rec;
    rec.configure(testParams());
    rec.setEnabled(true);
    const std::string longName(60, 'x');
    rec.recordSpan(0, longName.c_str(), 0, 0.0, 1.0);

    std::string error;
    const auto doc =
        obs::json::parse(rec.dumpJson("t", -1, -1), &error);
    ASSERT_TRUE(doc) << error;
    const std::string name = doc->find("flight")
                                 ->find("streams")
                                 ->asArray()[0]
                                 .find("events")
                                 ->asArray()[0]
                                 .find("name")
                                 ->asString();
    EXPECT_LT(name.size(), longName.size());
    EXPECT_EQ(name, longName.substr(0, name.size()));
}

TEST(FlightRecorder, DeadlineMissTriggersWithinDumpBudget)
{
    const std::string path = "test_flight_auto_dump.json";
    std::remove(path.c_str());
    FlightRecorder rec;
    FlightParams params = testParams(32);
    params.dumpPath = path;
    params.maxAutoDumps = 1;
    rec.configure(params);
    rec.setEnabled(true);

    rec.recordSpan(0, "FRAME", 0, 0.0, 120.0);
    rec.noteDeadlineMiss(0, 0, 120.0, 120.0, 20.0);
    rec.noteDeadlineMiss(0, 1, 240.0, 130.0, 30.0);
    // Both misses recorded, only the first spent the dump budget.
    EXPECT_EQ(rec.triggersSeen(), 2u);
    EXPECT_EQ(rec.dumpsWritten(), 1);
    EXPECT_EQ(rec.lastDumpPath(), path);

    std::string error;
    const auto doc = obs::json::parseFile(path, &error);
    ASSERT_TRUE(doc) << error;
    EXPECT_EQ(doc->find("flight")->find("reason")->asString(),
              "deadline-miss");
    // The miss mark carries the latency and the overrun.
    const auto& events = doc->find("flight")
                             ->find("streams")
                             ->asArray()[0]
                             .find("events")
                             ->asArray();
    const auto& miss = events[events.size() - 1];
    EXPECT_EQ(miss.find("name")->asString(), "deadline.miss");
    EXPECT_DOUBLE_EQ(miss.find("value")->asNumber(), 120.0);
    EXPECT_DOUBLE_EQ(miss.find("overrun_ms")->asNumber(), 20.0);
    // Atomic publication left no temp file behind.
    std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "r");
    EXPECT_EQ(tmp, nullptr);
    if (tmp)
        std::fclose(tmp);
    std::remove(path.c_str());
}

TEST(FlightRecorder, FaultsRecordButOnlyDumpWhenArmed)
{
    const std::string path = "test_flight_fault_dump.json";
    std::remove(path.c_str());
    FlightRecorder rec;
    FlightParams params = testParams(32);
    params.dumpPath = path;
    rec.configure(params); // dumpOnFault defaults to false.
    rec.setEnabled(true);

    rec.noteFault(0, "drop_frame", 3, 300.0);
    EXPECT_EQ(rec.eventCount(), 1u);
    EXPECT_EQ(rec.dumpsWritten(), 0);

    params.dumpOnFault = true;
    rec.configure(params);
    rec.setEnabled(true);
    rec.noteFault(0, "drop_frame", 3, 300.0);
    EXPECT_EQ(rec.dumpsWritten(), 1);
    std::remove(path.c_str());
}

TEST(FlightRecorder, EnsureStreamsGrowsWithoutDroppingEvents)
{
    FlightRecorder rec;
    rec.configure(testParams(8, 1));
    rec.setEnabled(true);
    rec.recordSpan(0, "S", 0, 0.0, 1.0);
    rec.ensureStreams(4);
    rec.recordSpan(3, "S", 0, 0.0, 1.0);
    EXPECT_EQ(rec.eventCount(), 2u);
    // Shrinking never happens; re-ensuring fewer is a no-op.
    rec.ensureStreams(2);
    rec.recordSpan(3, "S", 1, 1.0, 1.0);
    EXPECT_EQ(rec.eventCount(), 3u);
}

TEST(FlightRecorder, OutOfRangeStreamsLandInTheFirstRing)
{
    FlightRecorder rec;
    rec.configure(testParams(8, 2));
    rec.setEnabled(true);
    rec.recordSpan(7, "S", 0, 0.0, 1.0);
    rec.recordSpan(-1, "S", 0, 1.0, 1.0);
    EXPECT_EQ(rec.eventCount(), 2u);
    std::string error;
    const auto doc =
        obs::json::parse(rec.dumpJson("t", -1, -1), &error);
    ASSERT_TRUE(doc) << error;
    const auto& streams =
        doc->find("flight")->find("streams")->asArray();
    EXPECT_EQ(streams[0].find("events")->asArray().size(), 2u);
    EXPECT_EQ(streams[1].find("events")->asArray().size(), 0u);
}

TEST(PerfSampler, DeltasAreSaneEitherWorld)
{
    const PerfSampler::Reading start = PerfSampler::read();
    // Burn a little CPU so the task clock must advance.
    volatile double sink = 0.0;
    for (int i = 0; i < 2000000; ++i)
        sink += static_cast<double>(i) * 1e-9;
    const PerfSampler::Reading end = PerfSampler::read();
    const PerfDelta d = PerfSampler::delta(start, end);

    EXPECT_GT(d.taskClockMs, 0.0);
    EXPECT_EQ(d.hardware, PerfSampler::threadHasHardware());
    if (d.hardware) {
        // Live counters: the loop retired real instructions.
        EXPECT_GT(d.cycles, 0.0);
        EXPECT_GT(d.instructions, 0.0);
        EXPECT_GT(d.ipc(), 0.0);
    } else {
        // Portable fallback: hardware columns read exactly zero.
        EXPECT_DOUBLE_EQ(d.cycles, 0.0);
        EXPECT_DOUBLE_EQ(d.instructions, 0.0);
        EXPECT_DOUBLE_EQ(d.ipc(), 0.0);
    }
    if (PerfSampler::forcedOff())
        EXPECT_FALSE(d.hardware);
}

TEST(PerfSampler, PublishLatestRoundTripsPerName)
{
    EXPECT_EQ(obs::latestPerfDelta("never-published"), nullptr);
    PerfDelta d;
    d.taskClockMs = 1.25;
    d.cycles = 1000.0;
    d.instructions = 2000.0;
    d.hardware = true;
    obs::publishPerfDelta("test.span", d);
    const PerfDelta* got = obs::latestPerfDelta("test.span");
    ASSERT_NE(got, nullptr);
    EXPECT_DOUBLE_EQ(got->taskClockMs, 1.25);
    EXPECT_DOUBLE_EQ(got->ipc(), 2.0);

    // Re-publishing overwrites in place (same slot, new values).
    d.taskClockMs = 2.5;
    obs::publishPerfDelta("test.span", d);
    EXPECT_EQ(obs::latestPerfDelta("test.span"), got);
    EXPECT_DOUBLE_EQ(got->taskClockMs, 2.5);
}

/**
 * ISSUE 7 acceptance: arming the flight recorder (with a deadline
 * budget tight enough that every frame records a miss mark) must not
 * perturb a single pipeline output bit.
 */
class FlightDeterminismTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        obs::flight().setEnabled(false);
        obs::flight().configure(FlightParams{});
        obs::metrics().setEnabled(false);
        obs::metrics().reset();
    }

    static std::vector<double>
    runPipeline(const slam::PriorMap& map,
                const sensors::Camera& camera,
                const sensors::Scenario& scenario)
    {
        pipeline::PipelineParams params;
        params.detector.inputSize = 128;
        params.detector.width = 0.25;
        params.trackerPool.tracker.cropSize = 32;
        params.trackerPool.tracker.width = 0.1;
        params.laneCenterY = scenario.world.road().laneCenter(1);
        params.motionPlanner.cruiseSpeed = scenario.ego.speed;
        // Impossible budget: every frame trips the miss trigger.
        params.deadline.budgetMs = 1e-6;
        pipeline::Pipeline pipe(&map, &camera, nullptr, params);

        sensors::World world = scenario.world;
        Pose2 ego = scenario.ego.pose;
        pipe.reset(ego, {scenario.ego.speed, 0},
                   {scenario.world.road().length - 10,
                    params.laneCenterY});

        std::vector<double> sig;
        for (int i = 0; i < 6; ++i) {
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

TEST_F(FlightDeterminismTest, OutputsBitwiseIdenticalRecorderOnOrOff)
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

    obs::flight().setEnabled(false);
    const auto dark = runPipeline(map, camera, scenario);

    FlightParams params;
    params.capacity = 256; // no dumpPath: triggers never hit disk.
    obs::flight().configure(params);
    obs::flight().setEnabled(true);
    const auto armed = runPipeline(map, camera, scenario);

    // The recorder actually captured the run (spans + miss marks)...
    EXPECT_GT(obs::flight().eventCount(), 0u);
    EXPECT_GT(obs::flight().triggersSeen(), 0u);
    // ...and perturbed nothing.
    ASSERT_EQ(dark.size(), armed.size());
    for (std::size_t i = 0; i < dark.size(); ++i)
        ASSERT_DOUBLE_EQ(dark[i], armed[i]) << "signature index " << i;
}

} // namespace
