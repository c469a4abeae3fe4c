/**
 * @file
 * Tests for the multi-stream serving layer: freshest-frame ingestion
 * queues, batch-scheduler dispatch triggers (size, window, slack),
 * deadline-aware admission decisions, most-slack-first pressure
 * degradation, and the MultiStreamServer end to end -- conservation
 * invariants, bit-reproducibility, the overload acceptance property
 * (admission + batching holds the admitted tail where the serial
 * baseline cannot), real-NN batched inference, per-stream labeled
 * metrics, and the report's invariant check and JSON form.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/random.hh"
#include "nn/kernel_context.hh"
#include "nn/models.hh"
#include "report_checks.hh"
#include "serve/serve.hh"

namespace {

using namespace ad;
using namespace ad::serve;
using pipeline::OperatingMode;

FrameTicket
ticket(int stream, std::int64_t seq, double arrivalMs)
{
    return FrameTicket{stream, seq, arrivalMs};
}

TEST(FrameQueue, FreshestFrameDropPolicy)
{
    FrameQueue q(2);
    EXPECT_FALSE(q.push(ticket(0, 0, 0.0)).has_value());
    EXPECT_FALSE(q.push(ticket(0, 1, 100.0)).has_value());
    EXPECT_EQ(q.size(), 2u);

    // Full: the *oldest* waiter is evicted, the new frame kept.
    const auto evicted = q.push(ticket(0, 2, 200.0));
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->seq, 0);
    EXPECT_EQ(q.size(), 2u);

    const auto a = q.pop();
    const auto b = q.pop();
    ASSERT_TRUE(a && b);
    EXPECT_EQ(a->seq, 1);
    EXPECT_EQ(b->seq, 2);
    EXPECT_FALSE(q.pop().has_value());
}

TEST(FrameQueue, ZeroDepthNeverQueues)
{
    FrameQueue q(0);
    const auto back = q.push(ticket(3, 7, 50.0));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->stream, 3);
    EXPECT_EQ(back->seq, 7);
    EXPECT_TRUE(q.empty());
}

InferenceRequest
request(int stream, std::int64_t seq, double enqueueMs,
        double deadlineMs, double costScale = 1.0)
{
    InferenceRequest r;
    r.ticket = ticket(stream, seq, enqueueMs);
    r.enqueueMs = enqueueMs;
    r.deadlineMs = deadlineMs;
    r.costScale = costScale;
    return r;
}

TEST(BatchScheduler, FullBatchDispatchesImmediately)
{
    BatchPolicy policy;
    policy.maxBatch = 2;
    policy.maxWaitMs = 50.0;
    BatchScheduler sched(policy);
    sched.enqueue(request(0, 0, 0.0, 1000.0));
    sched.enqueue(request(1, 0, 1.0, 1000.0));

    const auto at = sched.nextDispatchMs(1.0);
    ASSERT_TRUE(at.has_value());
    EXPECT_DOUBLE_EQ(*at, 1.0); // full: no waiting.
    const auto batch = sched.tryDispatch(1.0);
    ASSERT_TRUE(batch.has_value());
    EXPECT_EQ(batch->size(), 2u);
    // FIFO order across streams.
    EXPECT_EQ(batch->items[0].ticket.stream, 0);
    EXPECT_EQ(batch->items[1].ticket.stream, 1);
    EXPECT_EQ(sched.pending(), 0u);
}

TEST(BatchScheduler, WindowBoundsTheWaitOnTheOldestRequest)
{
    BatchPolicy policy;
    policy.maxBatch = 8;
    policy.maxWaitMs = 6.0;
    policy.latestStartSlackMs = 25.0;
    BatchScheduler sched(policy);
    sched.enqueue(request(0, 0, 10.0, 1000.0));

    // Not due before the window expires...
    EXPECT_FALSE(sched.tryDispatch(12.0).has_value());
    const auto at = sched.nextDispatchMs(12.0);
    ASSERT_TRUE(at.has_value());
    EXPECT_DOUBLE_EQ(*at, 16.0); // enqueue + window.
    // ...and due exactly at it.
    const auto batch = sched.tryDispatch(16.0);
    ASSERT_TRUE(batch.has_value());
    EXPECT_EQ(batch->size(), 1u);
}

TEST(BatchScheduler, DeadlineSlackDispatchesEarly)
{
    BatchPolicy policy;
    policy.maxBatch = 8;
    policy.maxWaitMs = 50.0;
    policy.latestStartSlackMs = 30.0;
    BatchScheduler sched(policy);
    sched.enqueue(request(0, 0, 0.0, 1000.0));
    // A tight-deadline request pulls the whole batch forward: it must
    // start by deadline - slack = 40 - 30 = 10, well before the
    // window bound at 50.
    sched.enqueue(request(1, 0, 2.0, 40.0));

    const auto at = sched.nextDispatchMs(5.0);
    ASSERT_TRUE(at.has_value());
    EXPECT_DOUBLE_EQ(*at, 10.0);
    EXPECT_FALSE(sched.tryDispatch(9.0).has_value());
    const auto batch = sched.tryDispatch(10.0);
    ASSERT_TRUE(batch.has_value());
    EXPECT_EQ(batch->size(), 2u);
    EXPECT_DOUBLE_EQ(sched.meanBatchSize(), 2.0);
    // Waits: 10-0 and 10-2, mean 9.
    EXPECT_DOUBLE_EQ(sched.meanWaitMs(), 9.0);
}

TEST(Admission, AdmitsWithSlackShedsUnderBacklog)
{
    StreamRegistry registry;
    registry.addStream(StreamParams{}, pipeline::GovernorParams{});
    AdmissionParams params; // initialCost 15, risk 2.2, headroom 5.
    AdmissionController ctl(params, registry);

    // predicted = 0 + 6 + 15 x 2.2 + 5 = 44 <= 100: admit full-scale.
    const auto ok = ctl.decide(ticket(0, 0, 0.0), 0.0, 0.0, 6.0);
    EXPECT_EQ(ok.action, AdmitAction::Admit);
    EXPECT_DOUBLE_EQ(ok.costScale, 1.0);
    EXPECT_FALSE(ok.degraded);

    // 60 ms of engine backlog pushes the prediction past the budget.
    const auto no = ctl.decide(ticket(0, 1, 0.0), 0.0, 60.0, 6.0);
    EXPECT_EQ(no.action, AdmitAction::Shed);

    // Admission off admits the same frame regardless.
    AdmissionParams off;
    off.enabled = false;
    AdmissionController openCtl(off, registry);
    EXPECT_EQ(openCtl.decide(ticket(0, 2, 0.0), 0.0, 60.0, 6.0).action,
              AdmitAction::Admit);
}

TEST(Admission, RiskFactorInflatesTheCostTest)
{
    StreamRegistry registry;
    registry.addStream(StreamParams{}, pipeline::GovernorParams{});
    // Backlog 60 + window 6 + headroom 5 leaves 29 ms for inference:
    // the mean (15 ms) fits, the risk-inflated worst case does not.
    AdmissionParams meanOnly;
    meanOnly.riskFactor = 1.0;
    AdmissionController meanCtl(meanOnly, registry);
    EXPECT_EQ(meanCtl.decide(ticket(0, 0, 0.0), 0.0, 60.0, 6.0).action,
              AdmitAction::Admit);

    AdmissionParams risky;
    risky.riskFactor = 2.2;
    AdmissionController riskCtl(risky, registry);
    EXPECT_EQ(riskCtl.decide(ticket(0, 0, 0.0), 0.0, 60.0, 6.0).action,
              AdmitAction::Shed);
}

TEST(Admission, GovernorModeMapsToDegradedAndCoast)
{
    StreamRegistry registry;
    registry.addStream(StreamParams{}, pipeline::GovernorParams{});
    StreamState& s = registry.stream(0);
    AdmissionController ctl(AdmissionParams{}, registry);

    s.governor.requestEscalation(0, OperatingMode::Degraded, "test");
    // DEGRADED, detection interval 2: even frames run the half-scale
    // detector (quarter cost), odd frames coast on tracking.
    const auto even = ctl.decide(ticket(0, 0, 0.0), 0.0, 0.0, 0.0);
    EXPECT_EQ(even.action, AdmitAction::Admit);
    EXPECT_TRUE(even.degraded);
    EXPECT_DOUBLE_EQ(even.costScale, 0.25);
    const auto odd = ctl.decide(ticket(0, 1, 0.0), 0.0, 0.0, 0.0);
    EXPECT_EQ(odd.action, AdmitAction::Coast);

    s.governor.requestEscalation(2, OperatingMode::TrackingOnly,
                                 "test");
    // TRACKING_ONLY with the default reseed interval 0: never runs
    // the detector.
    EXPECT_EQ(ctl.decide(ticket(0, 2, 0.0), 0.0, 0.0, 0.0).action,
              AdmitAction::Coast);
}

TEST(Admission, CostEstimateFollowsExecutedBatches)
{
    StreamRegistry registry;
    registry.addStream(StreamParams{}, pipeline::GovernorParams{});
    AdmissionController ctl(AdmissionParams{}, registry);
    EXPECT_DOUBLE_EQ(ctl.expectedCostMs(), 15.0);
    // 20 ms over 2 work units = 10 ms/unit; EWMA alpha 0.2.
    ctl.onBatchExecuted(20.0, 2.0);
    EXPECT_DOUBLE_EQ(ctl.expectedCostMs(), 14.0);
}

TEST(Admission, PressureDegradesTheMostSlackStreamFirst)
{
    StreamRegistry registry;
    registry.addStream(StreamParams{}, pipeline::GovernorParams{});
    registry.addStream(StreamParams{}, pipeline::GovernorParams{});
    AdmissionParams params;
    params.evalPeriodFrames = 1; // evaluate on every arrival.
    AdmissionController ctl(params, registry);

    // Stream 0 skirts its deadline (tail 95 of 100); stream 1 has
    // plenty of slack (tail 10).
    ctl.onCompletion(ticket(0, 0, 0.0), 95.0);
    ctl.onCompletion(ticket(1, 0, 0.0), 10.0);
    EXPECT_EQ(registry.mostSlackStream(OperatingMode::TrackingOnly),
              1);

    // Backlog pressure 0.9 > 0.8: the slack-rich stream pays first.
    ctl.evaluatePressure(0, 90.0);
    EXPECT_EQ(registry.stream(1).governor.mode(),
              OperatingMode::Degraded);
    EXPECT_EQ(registry.stream(0).governor.mode(),
              OperatingMode::Nominal);

    // Sustained pressure walks it to the cap, then turns to the
    // tight stream; at the cap everywhere, no further escalation.
    ctl.evaluatePressure(1, 90.0);
    EXPECT_EQ(registry.stream(1).governor.mode(),
              OperatingMode::TrackingOnly);
    ctl.evaluatePressure(2, 90.0);
    EXPECT_EQ(registry.stream(0).governor.mode(),
              OperatingMode::Degraded);
    ctl.evaluatePressure(3, 90.0);
    EXPECT_EQ(registry.stream(0).governor.mode(),
              OperatingMode::TrackingOnly);
    EXPECT_EQ(ctl.pressureEscalations(), 4);
    ctl.evaluatePressure(4, 90.0);
    EXPECT_EQ(ctl.pressureEscalations(), 4);
    // SAFE_STOP is never admission's to request.
    EXPECT_EQ(registry.stream(0).governor.mode(),
              OperatingMode::TrackingOnly);
    EXPECT_EQ(registry.stream(1).governor.mode(),
              OperatingMode::TrackingOnly);
}

TEST(Admission, BelowPressureThresholdLeavesStreamsAlone)
{
    StreamRegistry registry;
    registry.addStream(StreamParams{}, pipeline::GovernorParams{});
    AdmissionParams params;
    params.evalPeriodFrames = 1;
    AdmissionController ctl(params, registry);
    ctl.evaluatePressure(0, 50.0); // pressure 0.5 <= 0.8.
    EXPECT_EQ(registry.stream(0).governor.mode(),
              OperatingMode::Nominal);
    EXPECT_EQ(ctl.pressureEscalations(), 0);
}

TEST(StreamState, TailEstimatePeaksAndDecays)
{
    StreamRegistry registry;
    registry.addStream(StreamParams{}, pipeline::GovernorParams{});
    StreamState& s = registry.stream(0);
    s.observeCompletion(0, 80.0, 0.9, true);
    EXPECT_DOUBLE_EQ(s.tailEstimateMs, 80.0); // jumps to the peak.
    s.observeCompletion(1, 10.0, 0.9, true);
    EXPECT_DOUBLE_EQ(s.tailEstimateMs, 72.0); // decays geometrically.
    EXPECT_DOUBLE_EQ(s.slackMs(), 28.0);
    EXPECT_EQ(s.servedLatency.count(), 2u);
    // Coasted frames feed the control loop but not the served record.
    s.observeCompletion(2, 2.0, 0.9, false);
    EXPECT_EQ(s.servedLatency.count(), 2u);
}

ServeParams
modeledParams(int streams, bool admission)
{
    ServeParams sp;
    sp.streams = streams;
    sp.governor.enabled = true;
    if (!admission) {
        sp.batch.maxBatch = 1;
        sp.batch.maxWaitMs = 0.0;
        sp.admission.enabled = false;
    }
    return sp;
}

ServeReport
runModeled(const ServeParams& sp, std::int64_t frames)
{
    ModeledBatchEngine engine(ModeledEngineParams{});
    MultiStreamServer server(sp, engine);
    return server.run(frames);
}

TEST(MultiStreamServer, ConservationInvariant)
{
    const ServeParams sp = modeledParams(6, true);
    ModeledBatchEngine engine(ModeledEngineParams{});
    MultiStreamServer server(sp, engine);
    const ServeReport r = server.run(200);

    // Every arrival is exactly one of engine-served, coasted or
    // shed, and every stream saw all 200 frames.
    EXPECT_EQ(r.violations(), std::vector<std::string>{});
    EXPECT_EQ(server.registry().totalArrived(), 6 * 200);
    // Every admitted frame completed (the run drains fully).
    std::int64_t completed = 0;
    for (int i = 0; i < sp.streams; ++i)
        completed += server.registry().stream(i).stats.completed;
    EXPECT_EQ(completed, r.framesAdmitted);
    EXPECT_EQ(r.admittedLatency.count,
              static_cast<std::size_t>(r.framesAdmitted));
}

TEST(MultiStreamServer, SameSeedIsBitReproducible)
{
    // The report JSON carries every field, to the last bit.
    const ServeParams sp = modeledParams(8, true);
    EXPECT_EQ(obs::json::dump(runModeled(sp, 250).toJson()),
              obs::json::dump(runModeled(sp, 250).toJson()));
}

TEST(MultiStreamServer, OverloadAcceptanceProperty)
{
    // ISSUE 4 acceptance at 8 streams: the offered load (80 fps)
    // exceeds the engine's serial capacity (~59 fps), so the
    // unbatched, unshedded baseline blows the p99.99 budget -- while
    // batching + admission holds every admitted frame inside it at
    // strictly higher goodput.
    const double budgetMs = 100.0;
    const ServeReport baseline =
        runModeled(modeledParams(8, false), 400);
    const ServeReport served = runModeled(modeledParams(8, true), 400);

    EXPECT_GT(baseline.admittedLatency.p9999, budgetMs);
    EXPECT_GT(baseline.deadlineMisses, 0);

    EXPECT_LE(served.admittedLatency.p9999, budgetMs);
    EXPECT_EQ(served.deadlineMisses, 0);
    EXPECT_GT(served.goodputFps, baseline.goodputFps);
    EXPECT_GT(served.meanBatchSize, 1.0);
}

TEST(MultiStreamServer, SingleStreamIsUnderloadedAndClean)
{
    const ServeReport r = runModeled(modeledParams(1, true), 300);
    EXPECT_EQ(r.framesArrived, 300);
    EXPECT_EQ(r.framesShed, 0);
    EXPECT_EQ(r.deadlineMisses, 0);
    EXPECT_DOUBLE_EQ(r.meanBatchSize, 1.0);
}

TEST(MultiStreamServer, PublishesPerStreamLabeledMetrics)
{
    const ServeParams sp = modeledParams(3, true);
    ModeledBatchEngine engine(ModeledEngineParams{});
    MultiStreamServer server(sp, engine);
    (void)server.run(50);
    const std::string dump = server.localMetrics().textDump();
    for (int i = 0; i < 3; ++i) {
        const std::string id = std::to_string(i);
        EXPECT_NE(dump.find("serve.frames_arrived{stream=" + id + "}"),
                  std::string::npos);
        EXPECT_NE(dump.find("serve.latency_ms{stream=" + id + "}"),
                  std::string::npos);
    }
    EXPECT_NE(dump.find("serve.slack_ms{stream=0}"),
              std::string::npos);
}

TEST(MultiStreamServer, ReportToStringNamesTheHeadlines)
{
    const ServeReport r = runModeled(modeledParams(2, true), 50);
    const std::string s = r.toString();
    EXPECT_NE(s.find("frames arrived"), std::string::npos);
    EXPECT_NE(s.find("goodput"), std::string::npos);
    EXPECT_NE(s.find("NOMINAL"), std::string::npos);
}

TEST(ServeParams, FromConfigReadsTheSharedServeKnobs)
{
    Config cfg;
    cfg.set("deadline-ms", "80");
    cfg.set("batch-max", "4");
    cfg.set("admission", "0");
    cfg.set("engine.fixed-ms", "2");
    const ServeParams sp = ServeParams::fromConfig(cfg);
    EXPECT_EQ(sp.stream.deadlineMs, 80.0);
    EXPECT_EQ(sp.batch.maxBatch, 4);
    EXPECT_FALSE(sp.admission.enabled);
    // The governors are the admission controller's actuators: always
    // on, with the stream deadline as their budget.
    EXPECT_TRUE(sp.governor.enabled);
    EXPECT_EQ(sp.governor.budgetMs, 80.0);
    EXPECT_EQ(ModeledEngineParams::fromConfig(cfg).fixedMs, 2.0);
    // Stream count, period and stagger stay the caller's: adfleet
    // takes them from its load generator and must not accept them.
    for (const char* own : {"streams", "period-ms", "stagger"})
        EXPECT_EQ(cfg.readKeys().count(own), 0u) << own;
}

TEST(ServeParams, GovernorSwitchAndBudgetAreLeftUnread)
{
    // The serving governors are always on with the stream deadline as
    // their budget, so `--governor` and `gov.budget_ms` are not
    // serving knobs: fromConfig leaves them unread and the warning
    // names them. The other `gov.*` keys tune every stream's governor.
    Config cfg;
    cfg.set("deadline-ms", "80");
    cfg.set("governor", "0");
    cfg.set("gov.budget_ms", "5");
    cfg.set("gov.escalate_misses", "7");
    const ServeParams sp = ServeParams::fromConfig(cfg);
    EXPECT_TRUE(sp.governor.enabled);
    EXPECT_EQ(sp.governor.budgetMs, 80.0);
    EXPECT_EQ(sp.governor.escalateAfterMisses, 7);

    testing::internal::CaptureStderr();
    EXPECT_EQ(cfg.warnUnreadKeys(), 2);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("'--governor'"), std::string::npos) << err;
    EXPECT_NE(err.find("'--gov.budget_ms'"), std::string::npos) << err;
}

/** One out-of-range value for one serving knob. */
struct BadKnob
{
    const char* key;
    const char* value;
};

/** Print as `key=value`: ctest names each case by it. */
void
PrintTo(const BadKnob& bad, std::ostream* os)
{
    *os << bad.key << "=" << bad.value;
}

class ServeKnobDeathTest : public ::testing::TestWithParam<BadKnob>
{
};

TEST_P(ServeKnobDeathTest, FromConfigFailsNamingTheKnob)
{
    const BadKnob& bad = GetParam();
    Config cfg;
    cfg.set(bad.key, bad.value);
    EXPECT_DEATH(
        {
            (void)ServeParams::fromConfig(cfg);
            (void)ModeledEngineParams::fromConfig(cfg);
        },
        std::string("config key '") + bad.key + "': must be .*, got " +
            bad.value);
}

INSTANTIATE_TEST_SUITE_P(
    EveryKnob, ServeKnobDeathTest,
    ::testing::Values(BadKnob{"deadline-ms", "-1"},
                      BadKnob{"queue-depth", "-1"},
                      BadKnob{"batch-max", "0"},
                      BadKnob{"window-ms", "-5"},
                      BadKnob{"slo.window", "0"},
                      BadKnob{"slo.target-miss-rate", "0"},
                      BadKnob{"engine.fixed-ms", "-1"},
                      BadKnob{"engine.marginal-ms", "0"},
                      BadKnob{"engine.jitter", "-0.5"},
                      BadKnob{"engine.spike-p", "1.5"}));

TEST(ServeReport, TamperedCopiesNameTheBrokenInvariant)
{
    const ServeReport real = runModeled(modeledParams(4, true), 100);
    test::expectTampersNamed<ServeReport>(
        real,
        {{"frame conservation", [](ServeReport& r) { ++r.framesCoasted; }},
         {"slo[2]",
          [](ServeReport& r) {
              r.streamSlo[2].misses = r.streamSlo[2].total + 1;
          }},
         {"arrivals", [](ServeReport& r) { ++r.framesPerStream; }},
         {"slo entries", [](ServeReport& r) { r.streamSlo.pop_back(); }}});
    // A fleet shard's report has no run() inputs to hold it to.
    ServeReport shard = real;
    shard.framesPerStream = 0;
    shard.streamSlo.pop_back();
    EXPECT_EQ(shard.violations(), std::vector<std::string>{});
}

TEST(ServeReport, JsonRoundTripsEveryReportField)
{
    const ServeReport r = runModeled(modeledParams(4, true), 100);
    const obs::json::Value doc = test::roundTrip(r.toJson());
    test::expectFields(
        doc, {{"streams", 4}, {"frames_per_stream", 100},
              {"arrived", r.framesArrived}, {"admitted", r.framesAdmitted},
              {"coasted", r.framesCoasted}, {"shed", r.framesShed},
              {"p9999_ms", r.admittedLatency.p9999},
              {"goodput_fps", r.goodputFps}, {"shed_rate", r.shedRate}});
    ASSERT_TRUE(doc.find("slo") && doc.find("frames_in_mode"));
    test::expectFields(*doc.find("frames_in_mode"),
                       {{"NOMINAL", r.framesInMode[0]}});
    const obs::json::Array& slo = doc.find("slo")->asArray();
    ASSERT_EQ(slo.size(), r.streamSlo.size());
    for (std::size_t i = 0; i < slo.size(); ++i) {
        const SloSnapshot& s = r.streamSlo[i];
        test::expectFields(
            slo[i], {{"stream", i}, {"window", s.window},
                     {"p50_ms", s.p50Ms}, {"p99_ms", s.p99Ms},
                     {"p999_ms", s.p999Ms}, {"miss_rate", s.missRate},
                     {"burn_rate", s.burnRate},
                     {"goodput_ratio", s.goodputRatio},
                     {"misses", s.misses}, {"total", s.total}});
    }
}

TEST(NnBatchEngine, BatchedInferenceMatchesSerialChecksum)
{
    // The measured engine end to end: four streams, one frame each,
    // arriving together and coalescing into one NN batch. The
    // engine's order-independent checksum must equal the one
    // computed from plain serial forward() calls -- batching is
    // bitwise invisible (determinism contract).
    const nn::ModelSpec spec = nn::detectorSpec(32, 0.05);
    nn::Network net = nn::buildNetwork(spec);
    Rng weightRng(7);
    nn::initDetectorWeights(net, weightRng);

    std::vector<nn::Tensor> inputs;
    Rng inputRng(21);
    for (int s = 0; s < 4; ++s) {
        nn::Tensor t(1, 32, 32);
        for (std::size_t i = 0; i < t.size(); ++i)
            t.data()[i] =
                static_cast<float>(inputRng.uniform(0.0, 1.0));
        inputs.push_back(t);
    }

    std::uint64_t expected = 0;
    for (const auto& in : inputs) {
        const nn::Tensor out =
            net.forward(in, nn::KernelContext::serial());
        double sum = 0.0;
        for (std::size_t i = 0; i < out.size(); ++i)
            sum += out.data()[i];
        std::uint64_t bits = 0;
        std::memcpy(&bits, &sum, sizeof(double));
        expected ^= bits;
    }

    ServeParams sp;
    sp.streams = 4;
    sp.stagger = false;           // all four arrive together...
    sp.batch.maxWaitMs = 5.0;     // ...and coalesce in one window.
    sp.stream.deadlineMs = 1e6;   // generous: everything admitted.
    sp.governor.budgetMs = 1e6;
    sp.governor.enabled = true;
    NnBatchEngine engine(net, inputs, 3);
    MultiStreamServer server(sp, engine);
    const ServeReport r = server.run(1);

    EXPECT_EQ(r.framesArrived, 4);
    EXPECT_EQ(r.framesAdmitted, 4);
    EXPECT_EQ(r.framesShed, 0);
    EXPECT_EQ(r.batches, 1);
    EXPECT_DOUBLE_EQ(r.meanBatchSize, 4.0);

    std::uint64_t got = 0;
    const double checksum = engine.outputChecksum();
    std::memcpy(&got, &checksum, sizeof(double));
    EXPECT_EQ(got, expected);
}

TEST(StreamSlo, BurnRateAndGoodputFromSyntheticCompletions)
{
    SloParams params;
    params.windowFrames = 100;
    params.targetMissRate = 0.01; // 1% allowed misses.
    params.refreshEvery = 1;
    StreamSlo slo(params, 100.0); // budget = deadline = 100 ms.

    for (int i = 0; i < 95; ++i)
        slo.observe(50.0, true);
    for (int i = 0; i < 5; ++i)
        slo.observe(150.0, false); // late, not goodput.

    const SloSnapshot& s = slo.snapshot();
    EXPECT_EQ(s.total, 100u);
    EXPECT_EQ(s.misses, 5u);
    EXPECT_DOUBLE_EQ(s.missRate, 0.05);
    // Window miss rate 0.05 against a 0.01 target: burning 5x.
    EXPECT_DOUBLE_EQ(s.burnRate, 5.0);
    EXPECT_DOUBLE_EQ(s.goodputRatio, 0.95);
    // 100 samples resolve p50 and p99 but not p99.9.
    EXPECT_DOUBLE_EQ(s.p50Ms, 50.0);
    EXPECT_DOUBLE_EQ(s.p99Ms, 150.0);
    EXPECT_DOUBLE_EQ(
        s.p999Ms, WindowedLatencyRecorder::kInsufficientSamples);
}

TEST(StreamSlo, PercentilesGatedOnResolvability)
{
    SloParams params;
    params.windowFrames = 2048;
    params.refreshEvery = 1;
    StreamSlo slo(params, 100.0);

    slo.observe(10.0, true);
    EXPECT_DOUBLE_EQ(
        slo.snapshot().p50Ms,
        WindowedLatencyRecorder::kInsufficientSamples);
    slo.observe(20.0, true);
    // Two samples resolve the median, still no p99.
    EXPECT_DOUBLE_EQ(slo.snapshot().p50Ms, 10.0);
    EXPECT_DOUBLE_EQ(
        slo.snapshot().p99Ms,
        WindowedLatencyRecorder::kInsufficientSamples);
    EXPECT_DOUBLE_EQ(slo.tailMs(),
                     WindowedLatencyRecorder::kInsufficientSamples);
}

TEST(StreamSlo, BudgetDefaultsToDeadlineUnlessOverridden)
{
    SloParams params;
    EXPECT_DOUBLE_EQ(StreamSlo(params, 80.0).budgetMs(), 80.0);
    params.budgetMs = 50.0;
    EXPECT_DOUBLE_EQ(StreamSlo(params, 80.0).budgetMs(), 50.0);
}

TEST(StreamSlo, RefreshCadenceKeepsSnapshotOffTheHotPath)
{
    SloParams params;
    params.refreshEvery = 32;
    StreamSlo slo(params, 100.0);
    for (int i = 0; i < 31; ++i)
        slo.observe(10.0, true);
    // 31 completions: the cached snapshot has not refreshed yet.
    EXPECT_EQ(slo.snapshot().total, 0u);
    slo.observe(10.0, true);
    EXPECT_EQ(slo.snapshot().total, 32u);
    // refresh() recomputes on demand regardless of cadence.
    slo.observe(10.0, true);
    slo.refresh();
    EXPECT_EQ(slo.snapshot().total, 33u);
}

TEST(StreamState, ResolvedSloTailTightensSlack)
{
    StreamRegistry registry;
    registry.addStream(StreamParams{}, pipeline::GovernorParams{});
    StreamState& s = registry.stream(0);
    // A high early peak decayed away: the peak-decay estimate alone
    // would report generous slack...
    s.observeCompletion(0, 90.0, 0.5, true);
    for (int i = 1; i <= 100; ++i)
        s.observeCompletion(i, 85.0, 0.5, true);
    // ...but the window p99 keeps slack honest. Refresh on demand:
    // the default cadence (every 32) last fired at 96 samples, one
    // short of p99 resolvability.
    s.slo.refresh();
    ASSERT_GE(s.slo.snapshot().p99Ms, 85.0);
    EXPECT_LE(s.slackMs(), 100.0 - s.slo.snapshot().p99Ms + 1e-9);
}

TEST(MultiStreamServer, ReportCarriesPerStreamSloSnapshots)
{
    ServeParams sp = modeledParams(4, true);
    sp.slo.refreshEvery = 8;
    ModeledBatchEngine engine(ModeledEngineParams{});
    MultiStreamServer server(sp, engine);
    const ServeReport r = server.run(300);

    ASSERT_EQ(r.streamSlo.size(), 4u);
    for (const auto& s : r.streamSlo) {
        EXPECT_GT(s.total, 0u);
        EXPECT_GE(s.goodputRatio, 0.0);
        EXPECT_LE(s.goodputRatio, 1.0);
        EXPECT_GE(s.burnRate, 0.0);
        EXPECT_LE(s.misses, s.total);
        // 300 completions resolve p50 and p99 (window default 2048).
        EXPECT_GT(s.p50Ms, 0.0);
        EXPECT_GE(s.p99Ms, s.p50Ms);
    }
    // The SLO gauges land in the server-local registry per stream.
    const std::string dump = server.localMetrics().textDump();
    EXPECT_NE(dump.find("serve.slo.p99_ms{stream=0}"),
              std::string::npos);
    EXPECT_NE(dump.find("serve.slo.burn_rate{stream=3}"),
              std::string::npos);
    EXPECT_NE(dump.find("serve.slo.goodput_ratio{stream=1}"),
              std::string::npos);
}

TEST(MultiStreamServer, SloSnapshotsAreBitReproducible)
{
    ServeParams sp = modeledParams(3, true);
    ModeledBatchEngine e1(ModeledEngineParams{});
    ModeledBatchEngine e2(ModeledEngineParams{});
    MultiStreamServer s1(sp, e1);
    MultiStreamServer s2(sp, e2);
    const ServeReport a = s1.run(200);
    const ServeReport b = s2.run(200);
    ASSERT_EQ(a.streamSlo.size(), 3u);
    EXPECT_EQ(obs::json::dump(*a.toJson().find("slo")),
              obs::json::dump(*b.toJson().find("slo")));
}

} // namespace
