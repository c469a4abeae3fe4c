/**
 * @file
 * Tests for the fleet layer: the scenario-replay load generator
 * (determinism, partition invariance, the bit-exact plain-mode
 * arrival arithmetic), the stream-handoff ownership protocol (the
 * double-dispatch races the token turns into crashes), and the
 * ShardedServer end to end -- conservation, triple-run bitwise
 * determinism of the fleet report JSON (migration log included), the
 * shards=1 == MultiStreamServer equivalence, hot-shard rebalancing,
 * global admission, fleet degradation arbitration, parallel==serial
 * stepping, the report's invariant check and JSON form, and a
 * measured-engine (NnBatchEngine) fleet (the TSan target).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"
#include "fleet/fleet.hh"
#include "nn/kernel_context.hh"
#include "nn/models.hh"
#include "report_checks.hh"
#include "serve/serve.hh"

namespace {

using namespace ad;
using namespace ad::fleet;
using namespace ad::serve;

// ------------------------------------------------------------ loadgen

LoadGenParams
plainLoad(int streams, double horizonMs)
{
    LoadGenParams lp;
    lp.streams = streams;
    lp.horizonMs = horizonMs;
    return lp;
}

TEST(ScenarioLoadGen, PlainModeReproducesServeArithmetic)
{
    // With every scenario ingredient off, the tape is exactly the
    // serving layer's arrival pattern: phase = period * i / N, then
    // repeated addition of the period -- bit-identical doubles, which
    // is what the shards=1 equivalence leans on.
    LoadGenParams lp = plainLoad(5, 0.0);
    lp.framesPerStream = 40;
    const ScenarioLoadGen load(lp);

    EXPECT_EQ(load.totalArrivals(), 5 * 40);
    for (int i = 0; i < lp.streams; ++i) {
        EXPECT_EQ(load.framesForStream(i), 40);
        EXPECT_EQ(load.phaseMs(i), lp.periodMs * i / lp.streams);
    }
    std::vector<double> next(5);
    for (int i = 0; i < 5; ++i)
        next[static_cast<std::size_t>(i)] = load.phaseMs(i);
    for (const ArrivalEvent& a : load.schedule()) {
        EXPECT_EQ(a.tMs,
                  next[static_cast<std::size_t>(a.stream)]);
        next[static_cast<std::size_t>(a.stream)] += lp.periodMs;
    }
}

TEST(ScenarioLoadGen, TapeIsSortedAndDeterministic)
{
    LoadGenParams lp = plainLoad(16, 4000.0);
    lp.burstP = 0.1;
    lp.stragglerFraction = 0.25;
    lp.rampAmplitude = 0.3;
    lp.hotModulus = 4;
    lp.hotResidue = 1;
    lp.hotStartMs = 1000.0;
    lp.hotEndMs = 3000.0;
    const ScenarioLoadGen a(lp);
    const ScenarioLoadGen b(lp);

    ASSERT_EQ(a.totalArrivals(), b.totalArrivals());
    for (std::int64_t i = 0; i < a.totalArrivals(); ++i) {
        const auto& ea = a.schedule()[static_cast<std::size_t>(i)];
        const auto& eb = b.schedule()[static_cast<std::size_t>(i)];
        EXPECT_EQ(ea.tMs, eb.tMs);
        EXPECT_EQ(ea.stream, eb.stream);
        EXPECT_EQ(ea.seq, eb.seq);
        if (i > 0) {
            const auto& prev =
                a.schedule()[static_cast<std::size_t>(i - 1)];
            EXPECT_LE(prev.tMs, ea.tMs);
        }
    }
}

TEST(ScenarioLoadGen, StreamsAreIndependentOfPopulationMix)
{
    // Stream i's arrivals depend only on (seed, i): scenario
    // ingredients on *other* streams never perturb it, which is what
    // makes the tape partition-invariant across shard counts.
    LoadGenParams lp = plainLoad(8, 3000.0);
    lp.burstP = 0.2;
    const ScenarioLoadGen small(lp);
    lp.streams = 32; // same seed, larger fleet.
    const ScenarioLoadGen big(lp);

    std::vector<double> a, b;
    for (const auto& e : small.schedule())
        if (e.stream == 3)
            a.push_back(e.tMs);
    for (const auto& e : big.schedule())
        if (e.stream == 3)
            b.push_back(e.tMs);
    // Phases differ (stagger divides by N); compare with stagger's
    // phase removed.
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_DOUBLE_EQ(a[i] - small.phaseMs(3),
                         b[i] - big.phaseMs(3));
}

TEST(ScenarioLoadGen, CriticalityIsStableAcrossIngredients)
{
    // Criticality draws from its own RNG: enabling bursts must not
    // reshuffle which vehicles are critical.
    LoadGenParams lp = plainLoad(24, 2000.0);
    const ScenarioLoadGen plain(lp);
    lp.burstP = 0.3;
    lp.stragglerFraction = 0.5;
    const ScenarioLoadGen noisy(lp);
    for (int i = 0; i < lp.streams; ++i) {
        EXPECT_EQ(plain.criticality(i), noisy.criticality(i));
        EXPECT_GE(plain.criticality(i), 0);
        EXPECT_LT(plain.criticality(i), lp.criticalityClasses);
    }
}

TEST(ScenarioLoadGen, HotBlockRaisesArrivalRateInWindow)
{
    LoadGenParams lp = plainLoad(8, 4000.0);
    lp.hotModulus = 4;
    lp.hotResidue = 2;
    lp.hotFactor = 4.0;
    lp.hotStartMs = 1000.0;
    lp.hotEndMs = 3000.0;
    const ScenarioLoadGen load(lp);

    std::int64_t hotInWindow = 0, coldInWindow = 0;
    for (const auto& e : load.schedule()) {
        if (e.tMs < lp.hotStartMs || e.tMs >= lp.hotEndMs)
            continue;
        if (e.stream % 4 == 2)
            ++hotInWindow;
        else
            ++coldInWindow;
    }
    // 2 hot streams at 4x the rate of 6 cold ones: per-stream rate
    // ratio ~4 shows up as 2*4 vs 6*1 arrivals in the window.
    EXPECT_GT(hotInWindow, coldInWindow);
}

// ------------------------------------------------- ownership handoff

StreamState
makeStream(int id)
{
    StreamParams sp;
    pipeline::GovernorParams gp;
    return StreamState(id, sp, gp);
}

TEST(OwnershipToken, HandoffBumpsEpochAndTransfersRights)
{
    StreamState s = makeStream(7);
    EXPECT_EQ(s.owner(), -1);

    const OwnershipToken a = s.acquireOwnership(0);
    EXPECT_TRUE(s.ownershipCurrent(a));
    EXPECT_EQ(s.owner(), 0);

    s.releaseOwnership(a);
    EXPECT_EQ(s.owner(), -1);
    EXPECT_FALSE(s.ownershipCurrent(a)); // released => stale.

    const OwnershipToken b = s.acquireOwnership(3);
    EXPECT_TRUE(s.ownershipCurrent(b));
    EXPECT_FALSE(s.ownershipCurrent(a)); // old copy stays stale.
    EXPECT_EQ(s.owner(), 3);
    EXPECT_GT(b.epoch, a.epoch);
}

TEST(OwnershipTokenDeathTest, AcquireWhileOwnedIsTheft)
{
    StreamState s = makeStream(1);
    (void)s.acquireOwnership(0);
    // A shard may never steal a stream another shard still owns:
    // this is the single-owner assumption made explicit.
    EXPECT_DEATH((void)s.acquireOwnership(1), "already owned");
}

TEST(OwnershipTokenDeathTest, StaleTokenCannotDispatch)
{
    // The double-dispatch race: shard A hands the stream off, but a
    // buggy path keeps its old token and touches the stream again.
    // Without the epoch the touch would silently double-serve the
    // vehicle; with it, the stale token is fatal.
    StreamState s = makeStream(2);
    const OwnershipToken stale = s.acquireOwnership(0);
    s.releaseOwnership(stale);            // handoff...
    (void)s.acquireOwnership(1);          // ...new owner adopted.
    EXPECT_DEATH(s.assertOwnership(stale, "dispatch"), "stale");
}

TEST(OwnershipTokenDeathTest, ReleaseWithForeignTokenDies)
{
    StreamState s = makeStream(3);
    const OwnershipToken t = s.acquireOwnership(0);
    s.releaseOwnership(t);
    EXPECT_DEATH(s.releaseOwnership(t), "stale");
}

TEST(StreamRegistry, AdoptReusesLowestVacantSlot)
{
    StreamRegistry reg;
    StreamParams sp;
    pipeline::GovernorParams gp;
    EXPECT_EQ(reg.addStream(sp, gp), 0);
    EXPECT_EQ(reg.addStream(sp, gp), 1);
    EXPECT_EQ(reg.addStream(sp, gp), 2);

    std::unique_ptr<StreamState> out = reg.extract(1);
    ASSERT_TRUE(out);
    EXPECT_EQ(reg.active(), 2u);
    EXPECT_EQ(reg.size(), 3u); // the hole remains a slot.
    EXPECT_EQ(reg.find(1), nullptr);

    auto incoming = std::make_unique<StreamState>(41, sp, gp);
    EXPECT_EQ(reg.adopt(std::move(incoming)), 1); // lowest hole.
    EXPECT_EQ(reg.find(1)->id, 41);
    auto another = std::make_unique<StreamState>(42, sp, gp);
    EXPECT_EQ(reg.adopt(std::move(another)), 3); // append when full.
    EXPECT_EQ(reg.active(), 4u);
}

// ------------------------------------------------------ fleet helpers

ServeParams
fleetServeParams()
{
    ServeParams sp;
    sp.governor.enabled = true;
    return sp;
}

FleetParams
fleetParams(int shards)
{
    FleetParams fp;
    fp.shards = shards;
    fp.serve = fleetServeParams();
    return fp;
}

// -------------------------------------------- shards=1 equivalence

TEST(ShardedServer, SingleShardReproducesMultiStreamServer)
{
    // A 1-shard fleet is MultiStreamServer::run wearing a fleet
    // coat: same arrival tape, same event order, same RNG draws.
    // Every report field must match bit for bit.
    const int streams = 8;
    const std::int64_t frames = 250;

    ServeParams sp = fleetServeParams();
    sp.streams = streams;
    ModeledBatchEngine engine(ModeledEngineParams{});
    MultiStreamServer server(sp, engine);
    const ServeReport plain = server.run(frames);

    LoadGenParams lp;
    lp.streams = streams;
    lp.framesPerStream = frames;
    lp.periodMs = sp.stream.framePeriodMs;
    const ScenarioLoadGen load(lp);

    FleetParams fp = fleetParams(1);
    ShardedServer fleetServer(fp, load);
    const FleetReport fr = fleetServer.run();

    ASSERT_EQ(fr.shardReports.size(), 1u);
    // Only run()'s record of its inputs tells the two apart.
    ServeReport shard = fr.shardReports[0];
    shard.streams = plain.streams;
    shard.framesPerStream = plain.framesPerStream;
    EXPECT_EQ(obs::json::dump(shard.toJson()),
              obs::json::dump(plain.toJson()));

    // Fleet-level aggregates reduce to the single shard's numbers.
    EXPECT_EQ(fr.framesArrived, plain.framesArrived);
    EXPECT_EQ(fr.goodputFps, plain.goodputFps);
    EXPECT_EQ(fr.migrations, 0);
    EXPECT_EQ(fr.fleetEscalations, 0);
}

// ------------------------------------------------------ conservation

LoadGenParams
scenarioLoad(int streams, int shards)
{
    LoadGenParams lp;
    lp.streams = streams;
    lp.horizonMs = 6000.0;
    lp.burstP = 0.05;
    lp.rampAmplitude = 0.2;
    lp.rampPeriodMs = 6000.0;
    lp.stragglerFraction = 0.1;
    lp.hotModulus = shards;
    lp.hotResidue = shards > 1 ? 1 : 0;
    lp.hotFactor = 6.0;
    lp.hotStartMs = 1000.0;
    lp.hotEndMs = 5000.0;
    return lp;
}

TEST(ShardedServer, ConservationAcrossShards)
{
    const LoadGenParams lp = scenarioLoad(24, 3);
    const ScenarioLoadGen load(lp);
    FleetParams fp = fleetParams(3);
    ShardedServer fleetServer(fp, load);
    const FleetReport r = fleetServer.run();

    EXPECT_EQ(r.framesArrived, load.totalArrivals());
    EXPECT_EQ(r.streamsAdmitted, lp.streams);
    EXPECT_EQ(r.admittedLatency.count,
              static_cast<std::size_t>(r.framesAdmitted));
    // Frame conservation, fleet and per shard; shard sums of injected
    // arrivals and resident streams equal the fleet's.
    EXPECT_EQ(r.violations(), std::vector<std::string>{});
}

// ---------------------------------------------------- determinism

TEST(ShardedServer, TripleRunBitwiseDeterminism)
{
    const LoadGenParams lp = scenarioLoad(32, 4);
    const ScenarioLoadGen load(lp);
    FleetParams fp = fleetParams(4);
    fp.rebalance.periodMs = 500.0;

    std::vector<std::string> reports;
    std::int64_t migrations = -1;
    for (int run = 0; run < 3; ++run) {
        ShardedServer fleetServer(fp, load);
        const FleetReport r = fleetServer.run();
        reports.push_back(obs::json::dump(r.toJson()));
        migrations = r.migrations;
    }
    // The report JSON carries the migration log, burn rates included.
    EXPECT_EQ(reports[0], reports[1]);
    EXPECT_EQ(reports[1], reports[2]);
    // The scenario is built to actually migrate: a determinism check
    // over an empty log would prove nothing.
    EXPECT_GT(migrations, 0);
}

TEST(ShardedServer, ParallelSteppingMatchesSerial)
{
    const LoadGenParams lp = scenarioLoad(24, 3);
    const ScenarioLoadGen load(lp);
    FleetParams fp = fleetParams(3);
    fp.rebalance.periodMs = 500.0;

    ShardedServer serial(fp, load);
    const FleetReport a = serial.run();
    fp.parallel = true;
    ShardedServer parallel(fp, load);
    const FleetReport b = parallel.run();

    EXPECT_EQ(obs::json::dump(a.toJson()), obs::json::dump(b.toJson()));
}

// ----------------------------------------------------- rebalancing

TEST(ShardedServer, HotShardShedsStreamsToColdShards)
{
    // hotModulus == shard count aims the whole hot block at shard 1
    // under round-robin placement; the rebalancer must detect the
    // burn divergence and drain streams out of it.
    const int shards = 4;
    const LoadGenParams lp = scenarioLoad(32, shards);
    const ScenarioLoadGen load(lp);
    FleetParams fp = fleetParams(shards);
    fp.rebalance.periodMs = 500.0;
    ShardedServer fleetServer(fp, load);
    const FleetReport r = fleetServer.run();

    ASSERT_GT(r.migrations, 0);
    EXPECT_EQ(static_cast<std::int64_t>(r.migrationLog.size()),
              r.migrations);
    std::int64_t outOfHot = 0;
    for (const auto& m : r.migrationLog) {
        EXPECT_NE(m.fromShard, m.toShard);
        EXPECT_GT(m.burnFrom, m.burnTo);
        if (m.fromShard == 1)
            ++outOfHot;
    }
    EXPECT_GT(outOfHot, 0);
    EXPECT_GT(r.shardRows[1].migrationsOut, 0);
    // Registry placements reflect the final homes.
    const FleetRegistry& reg = fleetServer.registry();
    int placed = 0;
    for (int k = 0; k < shards; ++k)
        placed += static_cast<int>(reg.streamsOf(k).size());
    EXPECT_EQ(placed, lp.streams);
}

TEST(ShardedServer, RebalanceDisabledMeansNoMigrations)
{
    const LoadGenParams lp = scenarioLoad(32, 4);
    const ScenarioLoadGen load(lp);
    FleetParams fp = fleetParams(4);
    fp.rebalance.enabled = false;
    ShardedServer fleetServer(fp, load);
    const FleetReport r = fleetServer.run();
    EXPECT_EQ(r.migrations, 0);
    EXPECT_TRUE(r.migrationLog.empty());
}

// ----------------------------------------------- report invariants

/** A 4-shard hot-block run that migrates streams. */
FleetReport
migratingRun()
{
    const ScenarioLoadGen load(scenarioLoad(32, 4));
    FleetParams fp = fleetParams(4);
    fp.rebalance.periodMs = 500.0;
    return ShardedServer(fp, load).run();
}

TEST(FleetReport, TamperedCopiesNameTheBrokenInvariant)
{
    const FleetReport real = migratingRun();
    ASSERT_GT(real.migrations, 0);
    test::expectTampersNamed<FleetReport>(
        real,
        {{"frame conservation", [](FleetReport& r) { ++r.framesShed; }},
         {"fleet shape",
          [](FleetReport& r) { r.streamsAdmitted = r.streamsRequested + 1; }},
         {"shard rows", [](FleetReport& r) { r.shardRows.pop_back(); }},
         {"shard 1 conservation",
          [](FleetReport& r) { ++r.shardRows[1].sheds; }},
         {"injected total",
          [](FleetReport& r) {
              ++r.shardRows[0].arrivalsInjected;
              ++r.shardRows[0].completions;
          }},
         {"resident streams",
          [](FleetReport& r) { ++r.shardRows[2].streamsFinal; }},
         {"migration log", [](FleetReport& r) { ++r.migrations; }},
         {"migration_log[0]",
          [](FleetReport& r) {
              r.migrationLog[0].toShard = r.migrationLog[0].fromShard;
          }},
         {"migration_log[0]",
          [](FleetReport& r) {
              r.migrationLog[0].stream = r.streamsRequested;
          }},
         {"shard 3 frame conservation",
          [](FleetReport& r) { ++r.shardReports[3].framesShed; }}});
}

TEST(FleetReport, JsonRoundTripsEveryReportField)
{
    const FleetReport r = migratingRun();
    const obs::json::Value doc = test::roundTrip(r.toJson());
    test::expectFields(
        doc, {{"shards", r.shards}, {"streams", r.streamsRequested},
              {"streams_admitted", r.streamsAdmitted},
              {"arrived", r.framesArrived}, {"admitted", r.framesAdmitted},
              {"coasted", r.framesCoasted}, {"shed", r.framesShed},
              {"migrations", r.migrations},
              {"p9999_ms", r.admittedLatency.p9999},
              {"goodput_fps", r.goodputFps}, {"epochs", r.epochs},
              {"fleet_escalations", r.fleetEscalations}});
    ASSERT_TRUE(doc.find("shard_rows") && doc.find("migration_log"));
    const obs::json::Array& rows = doc.find("shard_rows")->asArray();
    ASSERT_EQ(rows.size(), r.shardRows.size());
    for (std::size_t k = 0; k < rows.size(); ++k) {
        const ShardSummary& s = r.shardRows[k];
        test::expectFields(rows[k], {{"injected", s.arrivalsInjected},
                                     {"completions", s.completions},
                                     {"sheds", s.sheds},
                                     {"burn_rate", s.burnRate},
                                     {"streams_final", s.streamsFinal}});
        // The shard's own serve report is nested, not re-listed.
        ASSERT_NE(rows[k].find("serve"), nullptr);
        test::expectFields(*rows[k].find("serve"),
                           {{"p9999_ms", s.admittedLatency.p9999},
                            {"batches", r.shardReports[k].batches}});
    }
    const obs::json::Array& log = doc.find("migration_log")->asArray();
    ASSERT_EQ(log.size(), r.migrationLog.size());
    for (std::size_t i = 0; i < log.size(); ++i) {
        const Migration& m = r.migrationLog[i];
        test::expectFields(log[i], {{"from", m.fromShard},
                                    {"to", m.toShard},
                                    {"stream", m.stream},
                                    {"burn_from", m.burnFrom}});
    }
}

// ------------------------------------------- admission + arbitration

TEST(FleetCoordinator, GlobalAdmissionRejectsLowestCriticalityFirst)
{
    LoadGenParams lp = plainLoad(12, 2000.0);
    const ScenarioLoadGen load(lp);
    FleetParams fp = fleetParams(2);
    fp.maxStreamsPerShard = 3; // cap = 6 of 12.
    const FleetCoordinator coord(fp, load);

    EXPECT_EQ(coord.streamsAdmitted(), 6);
    EXPECT_EQ(coord.streamsRejected(), 6);
    const auto& admitted = coord.admitted();
    for (int r = 0; r < lp.streams; ++r) {
        if (admitted[static_cast<std::size_t>(r)])
            continue;
        for (int a = 0; a < lp.streams; ++a) {
            if (!admitted[static_cast<std::size_t>(a)])
                continue;
            // Every rejected stream must lose to every admitted one
            // under the shed order (criticality asc, id desc).
            const bool loses =
                load.criticality(r) < load.criticality(a) ||
                (load.criticality(r) == load.criticality(a) && r > a);
            EXPECT_TRUE(loses) << "rejected " << r << " vs admitted "
                               << a;
        }
    }
}

TEST(ShardedServer, RejectedStreamsAreNeverServed)
{
    LoadGenParams lp = plainLoad(12, 3000.0);
    const ScenarioLoadGen load(lp);
    FleetParams fp = fleetParams(2);
    fp.maxStreamsPerShard = 3;
    ShardedServer fleetServer(fp, load);
    const FleetReport r = fleetServer.run();

    EXPECT_EQ(r.streamsAdmitted, 6);
    std::int64_t admittedTape = 0;
    for (const auto& e : load.schedule())
        if (fleetServer.coordinator()
                .admitted()[static_cast<std::size_t>(e.stream)])
            ++admittedTape;
    EXPECT_EQ(r.framesArrived, admittedTape);
    for (int g = 0; g < lp.streams; ++g) {
        const bool adm = fleetServer.coordinator()
                             .admitted()[static_cast<std::size_t>(g)];
        EXPECT_EQ(fleetServer.registry().placed(g), adm);
        if (!adm) {
            EXPECT_EQ(r.streamSlo[static_cast<std::size_t>(g)].total,
                      0u);
        }
    }
}

TEST(ShardedServer, FleetArbitrationReplacesPerShardPressure)
{
    // Overload every shard: per-server pressure escalation is
    // disabled on multi-shard fleets, so any governor escalation
    // above must come from the fleet coordinator.
    LoadGenParams lp = plainLoad(32, 5000.0);
    lp.periodMs = 30.0; // ~33 fps per stream: far past capacity.
    const ScenarioLoadGen load(lp);
    FleetParams fp = fleetParams(2);
    fp.rebalance.periodMs = 250.0;
    // Admission keeps the backlog near (but under) the deadline;
    // trigger arbitration well below that equilibrium.
    fp.rebalance.shedPressure = 0.2;
    ShardedServer fleetServer(fp, load);
    const FleetReport r = fleetServer.run();

    for (const auto& shard : r.shardReports)
        EXPECT_EQ(shard.pressureEscalations, 0);
    EXPECT_GT(r.fleetEscalations, 0);
}

TEST(FleetCoordinator, PickVictimsOrdersByCriticalityThenSlack)
{
    LoadGenParams lp = plainLoad(4, 1000.0);
    const ScenarioLoadGen load(lp);
    FleetParams fp = fleetParams(2);
    fp.rebalance.maxEscalationsPerEpoch = 2;
    const FleetCoordinator coord(fp, load);

    std::vector<FleetCoordinator::Candidate> cands;
    cands.push_back({10, 0, 0, 2, 90.0});
    cands.push_back({11, 0, 1, 0, 10.0});
    cands.push_back({12, 1, 0, 0, 50.0});
    cands.push_back({13, 1, 1, 1, 99.0});
    const auto victims = coord.pickVictims(std::move(cands));
    ASSERT_EQ(victims.size(), 2u); // capped per epoch.
    EXPECT_EQ(victims[0].stream, 12); // crit 0, most slack.
    EXPECT_EQ(victims[1].stream, 11); // crit 0, less slack.
}

// ------------------------------------------------- measured engines

TEST(ShardedServer, MeasuredEngineFleetServesAcrossShards)
{
    // Two NnBatchEngine replicas stepped in parallel: the policy
    // layers run against real multithreaded kernels sharing the
    // process ThreadPool. This is the fleet TSan target.
    const nn::ModelSpec spec = nn::detectorSpec(32, 0.05);
    nn::Network net = nn::buildNetwork(spec);
    Rng weightRng(7);
    nn::initDetectorWeights(net, weightRng);

    const int streams = 4;
    std::vector<nn::Tensor> inputs;
    Rng inputRng(21);
    for (int s = 0; s < streams; ++s) {
        nn::Tensor t(1, 32, 32);
        for (std::size_t i = 0; i < t.size(); ++i)
            t.data()[i] =
                static_cast<float>(inputRng.uniform(0.0, 1.0));
        inputs.push_back(t);
    }

    LoadGenParams lp;
    lp.streams = streams;
    lp.framesPerStream = 3;
    const ScenarioLoadGen load(lp);

    FleetParams fp = fleetParams(2);
    fp.serve.stream.deadlineMs = 1e6; // generous: everything admitted.
    fp.serve.governor.budgetMs = 1e6;
    fp.parallel = true;
    NnBatchEngine e0(net, inputs, 2);
    NnBatchEngine e1(net, inputs, 2);
    ShardedServer fleetServer(fp, load, {&e0, &e1});
    const FleetReport r = fleetServer.run();

    EXPECT_EQ(r.framesArrived, streams * 3);
    EXPECT_EQ(r.framesAdmitted, streams * 3);
    EXPECT_EQ(r.framesShed, 0);
}

// ----------------------------------------------------- fatal paths

TEST(ShardedServerDeathTest, InjectIntoVacatedSlotDies)
{
    // The race the handoff protocol prevents, end to end: a stale
    // router keeps sending a migrated-away stream's arrivals to its
    // old shard. The vacated slot (and the released token behind
    // it) turns that into a crash instead of a double-dispatch.
    ServeParams sp = fleetServeParams();
    ModeledBatchEngine engine(ModeledEngineParams{});
    MultiStreamServer server(sp, engine,
                             MultiStreamServer::ShardTag{}, 0);
    StreamParams stp;
    auto stream = std::make_unique<StreamState>(
        0, stp, sp.governor, sp.slo);
    const int slot = server.importStream(std::move(stream));
    ASSERT_TRUE(server.migratable(slot));
    std::unique_ptr<StreamState> out = server.exportStream(slot);
    ASSERT_TRUE(out);
    EXPECT_FALSE(server.migratable(slot));
    EXPECT_DEATH(server.injectArrival(slot, 0, 0.0), "vacant");
}

TEST(ShardedServerDeathTest, ExportingABusyStreamDies)
{
    ServeParams sp = fleetServeParams();
    ModeledBatchEngine engine(ModeledEngineParams{});
    MultiStreamServer server(sp, engine,
                             MultiStreamServer::ShardTag{}, 0);
    StreamParams stp;
    auto stream = std::make_unique<StreamState>(
        0, stp, sp.governor, sp.slo);
    const int slot = server.importStream(std::move(stream));
    server.injectArrival(slot, 0, 0.0);
    server.stepUntil(0.0); // admit the frame: it is now in flight.
    // The migration protocol refuses to move a stream mid-frame.
    EXPECT_FALSE(server.migratable(slot));
    EXPECT_DEATH((void)server.exportStream(slot), "not quiescent");
}

} // namespace
