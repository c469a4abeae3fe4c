/**
 * @file
 * adrun -- end-to-end pipeline runner with per-frame CSV logging.
 * Drives a scenario through the measured-mode pipeline and emits one
 * CSV row per frame (stage latencies, localization status, track and
 * detection counts), the raw material for offline latency analysis
 * exactly like the paper's Figure 6/7 characterization.
 *
 * Usage:
 *   adrun [--scenario=highway|urban] [--frames=100]
 *         [--resolution=HHD|KITTI|HD] [--seed=1] [--csv=out.csv]
 *         [--det-input=160] [--summary] [--nn.threads=N]
 *         [--nn.precision=fp32|int8] [--nn.fuse=1] [--nn.arena=1]
 *         [--pipeline.depth=1] [--pipeline.seed=0]
 *         [--trace <file>] [--metrics] [--obs.trace_nn]
 *         [--obs.budget_ms=100] [--obs.perf] [--flight-dump[=file]]
 *         [--metrics-json=live.json]
 *         [--faults=0.1] [--fault.*=...] [--governor] [--gov.*=...]
 *
 * The flight recorder is always on: the last --obs.flight_capacity
 * events per stream are retained in bounded rings, auto-dumped as
 * JSON on deadline miss or SAFE_STOP entry, and dumped at exit with
 * --flight-dump. --obs.perf samples hardware counters over every
 * stage span (portable fallback when perf_event_open is
 * unavailable); --metrics-json exports live snapshots adtop renders.
 *
 * --nn.threads drives the parallel NN kernel layer in every engine:
 * 0 (the default) resolves to hardware concurrency, 1 restores the
 * exact serial behavior. Outputs are bitwise-identical either way.
 *
 * --nn.precision=int8 lowers the DET and TRA networks to the
 * quantized int8 kernel path (per-channel weights, calibrated
 * activations; see DESIGN.md "Quantized inference"). Deterministic at
 * any thread count, accuracy-checked by bench_ext_quant_accuracy.
 *
 * --nn.fuse / --nn.arena (both default 1) control the graph-lowering
 * pass (fused conv+activation epilogues, direct convolutions) and the
 * static arena memory planner for the DET/TRA networks. Both are pure
 * optimizations with bitwise-identical outputs; turn one off to A/B
 * the unfused or allocating reference path (DESIGN.md "Fused lowering
 * and the arena planner").
 *
 * --pipeline.depth sets how many frames the frame-graph executor
 * (src/pipeline/frame_graph.hh) keeps in flight: 1 (the default) runs
 * each frame on this thread; D >= 2 overlaps stages of D consecutive
 * frames on the shared worker pool, raising throughput toward
 * 1/max(stage) while per-frame outputs stay deterministic at every
 * depth (--pipeline.seed perturbs only dispatch order; see DESIGN.md
 * "Frame-graph execution").
 *
 * --trace writes a Chrome trace_event JSON (chrome://tracing /
 * Perfetto) with per-stage spans carrying frame ids; --metrics dumps
 * the metric registry (per-stage latency summaries, NN per-layer
 * FLOPs/bytes, thread-pool counters, deadline-violation attribution)
 * to stderr at exit. Both are zero-cost when off and perturb no
 * outputs when on (see tests/test_trace.cc determinism test).
 *
 * --faults=<intensity in [0,1]> injects a seeded, reproducible mix of
 * frame drops, sensor corruption, virtual latency spikes and transient
 * stage failures; individual `fault.*` keys override the mix.
 * --governor enables the graceful-degradation state machine
 * (NOMINAL -> DEGRADED -> TRACKING_ONLY -> SAFE_STOP); `gov.*` keys
 * tune it. The contract both sides implement is documented in
 * docs/OPERATING_MODES.md.
 */

#include <cstdio>
#include <fstream>
#include <ostream>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/time.hh"
#include "nn/kernel_context.hh"
#include "nn/network.hh"
#include "obs/obs.hh"
#include "pipeline/pipeline.hh"
#include "sensors/scenario.hh"
#include "slam/mapping.hh"

namespace {

using namespace ad;

sensors::Resolution
parseResolution(const std::string& name)
{
    if (name == "HHD")
        return sensors::Resolution::HHD;
    if (name == "KITTI")
        return sensors::Resolution::Kitti;
    if (name == "HD")
        return sensors::Resolution::HD;
    fatal("unknown --resolution '", name, "'");
}

/** Every key adrun itself reads, plus the obs/fault/governor sets. */
std::vector<std::string>
knownKeys()
{
    std::vector<std::string> keys = {
        "scenario", "frames",    "resolution", "seed",      "csv",
        "det-input", "det-width", "summary",    "length",
        "nn.threads", "nn.precision", "nn.fuse", "nn.arena",
        "pipeline.depth", "pipeline.seed"};
    for (const auto& k : obs::knownConfigKeys())
        keys.push_back(k);
    for (const auto& k : pipeline::FaultInjectorParams::knownConfigKeys())
        keys.push_back(k);
    for (const auto& k : pipeline::GovernorParams::knownConfigKeys())
        keys.push_back(k);
    return keys;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace ad;
    const Config cfg = Config::fromArgs(argc, argv);
    cfg.warnUnknownKeys(knownKeys());
    const obs::ObsOptions obsOpt = obs::setupFromConfig(cfg);
    const int frames = cfg.getInt("frames", 100);
    Rng rng(cfg.getInt("seed", 1));

    sensors::ScenarioParams sp;
    sp.roadLength = cfg.getDouble("length", 300.0);
    const std::string name = cfg.getString("scenario", "highway");
    sensors::Scenario scenario =
        name == "urban" ? sensors::makeUrbanScenario(rng, sp)
                        : sensors::makeHighwayScenario(rng, sp);
    sensors::Camera camera(
        parseResolution(cfg.getString("resolution", "HHD")));

    std::fprintf(stderr, "surveying prior map...\n");
    const slam::PriorMap map =
        slam::buildPriorMap(scenario.world, camera, 1);

    pipeline::PipelineParams params;
    params.detector.inputSize = cfg.getInt("det-input", 160);
    params.detector.width = cfg.getDouble("det-width", 0.25);
    params.trackerPool.tracker.cropSize = 32;
    params.trackerPool.tracker.width = 0.1;
    params.laneCenterY = scenario.world.road().laneCenter(1);
    params.motionPlanner.cruiseSpeed = scenario.ego.speed;
    // 0 = hardware concurrency (PipelineParams uses 0 as "no
    // override", so resolve the knob before handing it down).
    params.nnThreads =
        nn::resolveKernelThreads(cfg.getInt("nn.threads", 0));
    params.nnPrecision =
        nn::parsePrecision(cfg.getString("nn.precision", "fp32"));
    params.nnFuse = cfg.getBool("nn.fuse", true);
    params.nnArena = cfg.getBool("nn.arena", true);
    params.depth = cfg.getInt("pipeline.depth", 1);
    params.scheduleSeed = static_cast<std::uint64_t>(
        cfg.getInt("pipeline.seed", 0));
    params.deadline.budgetMs = obsOpt.budgetMs;
    params.deadline.logViolations = obsOpt.any();
    params.faults = pipeline::FaultInjectorParams::fromConfig(cfg);
    params.governor =
        pipeline::GovernorParams::fromConfig(cfg, obsOpt.budgetMs);
    pipeline::Pipeline pipe(&map, &camera, nullptr, params);

    Pose2 ego = scenario.ego.pose;
    pipe.reset(ego, {scenario.ego.speed, 0},
               {sp.roadLength - 10, params.laneCenterY});

    std::ofstream csvFile;
    std::ostream* csv = nullptr;
    const std::string csvPath = cfg.getString("csv");
    if (!csvPath.empty()) {
        csvFile.open(csvPath);
        if (!csvFile)
            fatal("cannot write '", csvPath, "'");
        csv = &csvFile;
    } else if (!cfg.getBool("summary", false)) {
        csv = &std::cout;
    }
    if (csv)
        *csv << "frame,det_ms,tra_ms,loc_ms,fusion_ms,motplan_ms,"
                "e2e_ms,localized,relocalized,detections,tracks,"
                "mode,dropped\n";

    obs::MetricsSnapshotter snapshotter(
        obs::metrics(), obs::SnapshotOptions{
                            obsOpt.metricsJsonPath,
                            obsOpt.metricsJsonIntervalMs});
    Stopwatch runClock;

    // One CSV row per committed frame. At depth D outputs trail
    // their submissions by up to D-1 frames, so rows are keyed by
    // the output's own frame id, not the loop index.
    const auto writeRow = [&](const pipeline::FrameOutput& out) {
        if (!csv)
            return;
        const auto& l = out.latencies;
        *csv << out.frameId << ',' << l.detMs << ',' << l.traMs << ','
             << l.locMs << ',' << l.fusionMs << ',' << l.motPlanMs
             << ',' << l.endToEndMs() << ',' << out.localization.ok
             << ',' << out.localization.relocalized << ','
             << out.detections.size() << ',' << out.tracks.size()
             << ',' << pipeline::modeName(out.mode) << ','
             << out.frameDropped << '\n';
    };

    sensors::World world = scenario.world;
    for (int i = 0; i < frames; ++i) {
        world.step(0.1);
        ego.pos.x += scenario.ego.speed * 0.1;
        if (ego.pos.x > world.road().length - 20)
            ego.pos.x = 20;
        const sensors::Frame frame = camera.render(world, ego);
        for (const auto& out :
             pipe.submitFrame(frame.image, 0.1, scenario.ego.speed))
            writeRow(out);
        snapshotter.maybeWrite(runClock.elapsedMs());
    }
    for (const auto& out : pipe.drainAsync())
        writeRow(out);

    std::fprintf(stderr, "\n%d frames processed\n", frames);
    std::fprintf(stderr, "DET     %s\n",
                 pipe.detLatency().summary().toString().c_str());
    std::fprintf(stderr, "TRA     %s\n",
                 pipe.traLatency().summary().toString().c_str());
    std::fprintf(stderr, "LOC     %s\n",
                 pipe.locLatency().summary().toString().c_str());
    std::fprintf(stderr, "E2E     %s\n",
                 pipe.endToEndLatency().summary().toString().c_str());
    std::fprintf(stderr, "PIPELINED %s\n",
                 pipe.pipelinedLatency().summary().toString().c_str());

    const auto& watchdog = pipe.deadlineMonitor();
    std::fprintf(stderr, "%s", watchdog.report().c_str());
    if (const auto* injector = pipe.faultInjector())
        std::fprintf(stderr, "%s", injector->report().c_str());
    if (const auto* governor = pipe.governor())
        std::fprintf(stderr, "%s", governor->report().c_str());

    if (obsOpt.metricsDump) {
        auto& reg = obs::metrics();
        // The NN compute inventory next to the measured latencies.
        nn::profileToMetrics(pipe.detector().profile(), reg);
        reg.counter("deadline.frames").add(watchdog.framesObserved());
        reg.counter("deadline.violations").add(watchdog.violations());
        const auto& byStage = watchdog.violationsByStage();
        for (std::size_t i = 0; i < obs::kStageCount; ++i)
            reg.counter(std::string("deadline.violations.") +
                        obs::stageName(static_cast<obs::Stage>(i)))
                .add(byStage[i]);
        reg.gauge("deadline.budget_ms").set(watchdog.params().budgetMs);
        reg.gauge("deadline.worst_overrun_ms")
            .set(watchdog.worstOverrunMs());
        if (const auto* injector = pipe.faultInjector()) {
            const auto& c = injector->counts();
            reg.counter("faults.drops").add(c.drops);
            reg.counter("faults.noise").add(c.noisy);
            reg.counter("faults.blackouts").add(c.blackouts);
            reg.counter("faults.spikes").add(c.spikes);
            reg.counter("faults.det_fails").add(c.detFails);
            reg.counter("faults.loc_fails").add(c.locFails);
            reg.counter("faults.tra_fails").add(c.traFails);
        }
    }
    if (!obsOpt.metricsJsonPath.empty() &&
        snapshotter.writeNow(runClock.elapsedMs()))
        std::fprintf(stderr, "metrics-json: wrote %d snapshots to %s\n",
                     snapshotter.snapshotsWritten(),
                     snapshotter.path().c_str());
    obs::finish(obsOpt);
    return 0;
}
