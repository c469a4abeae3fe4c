/**
 * @file
 * drive_urban: one vehicle's serial stack on the urban scenario,
 * closed loop. Each frame is rendered outside its timed call, then
 * Pipeline::submitFrame is timed from outside. Configuration matches
 * adrun's defaults (HHD camera, DET input 160 at width 0.25, fp32,
 * fused + arena-planned networks, serial path) with nn.threads pinned
 * to 1, which also pins LOC's RANSAC workers.
 *
 * The yardstick is sampled once after every frame and around every
 * set-up. The end-to-end times are host-normalized: each frame is
 * scaled by the host factor of the nine samples centred on it, each
 * set-up by that of the samples bracketing it.
 */

#include "workloads.hh"
#include "yardstick.hh"

#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <utility>

#include "nn/fusion.hh"
#include "nn/kernel_context.hh"
#include "nn/models.hh"
#include "pipeline/pipeline.hh"
#include "sensors/scenario.hh"
#include "slam/mapping.hh"

namespace adbench {

namespace {

using namespace ad;

constexpr double kDtS = 0.1;          ///< camera period (10 fps).
constexpr int kChunk = 25;            ///< frames per digest checkpoint.
constexpr int kMaxFrames = 8000;      ///< frames with recorded digests.
constexpr std::size_t kSetupReps = 4; ///< setups per run (median).
constexpr int kVariants = 8;          ///< seed-selected start phases.
constexpr int kPhaseFrames = 13;      ///< frames between phases.
constexpr double kBudgetMs = 100.0;   ///< the paper's reaction budget.
constexpr std::size_t kBracket = 9;   ///< yardstick samples each side of a set-up.

/** The program objects one setup constructs. */
struct Rig
{
    slam::PriorMap map;
    std::unique_ptr<pipeline::Pipeline> pipe;
};

pipeline::PipelineParams
driveParams(const sensors::Scenario& sc)
{
    pipeline::PipelineParams p;
    p.detector.inputSize = 160;
    p.detector.width = 0.25;
    p.trackerPool.tracker.cropSize = 32;
    p.trackerPool.tracker.width = 0.1;
    p.laneCenterY = sc.world.road().laneCenter(1);
    p.motionPlanner.cruiseSpeed = sc.ego.speed;
    p.nnThreads = 1;
    return p;
}

/** Advance the world and ego by one camera period (adrun's loop). */
void
advance(sensors::World& world, Pose2& ego, double speed)
{
    world.step(kDtS);
    ego.pos.x += speed * kDtS;
    if (ego.pos.x > world.road().length - 20)
        ego.pos.x = 20;
}

/** Bitwise digest of one frame's functional outputs. */
std::uint64_t
frameDigest(const pipeline::FrameOutput& out)
{
    Digest d;
    const auto& loc = out.localization;
    d.add(loc.pose.pos.x);
    d.add(loc.pose.pos.y);
    d.add(loc.pose.theta);
    d.add(loc.ok);
    for (const auto& det : out.detections) {
        d.add(det.box.x);
        d.add(det.box.y);
        d.add(det.box.w);
        d.add(det.box.h);
        d.add(det.cls);
        d.add(det.confidence);
    }
    d.add(out.detections.size());
    for (const auto& t : out.tracks) {
        d.add(t.id);
        d.add(t.cls);
        d.add(t.box.x);
        d.add(t.box.y);
        d.add(t.box.w);
        d.add(t.box.h);
        d.add(t.velocityPx.x);
        d.add(t.velocityPx.y);
        d.add(t.confidence);
    }
    d.add(out.tracks.size());
    d.add(out.command.steering);
    d.add(out.command.acceleration);
    return d.value();
}

/**
 * The traced run's direct calls: the localizer's ORB extractor and a
 * twin of the pipeline's fp32 DET network (same spec, weights,
 * lowering and arena plan), driven on the same frame.
 */
struct Probes
{
    vision::OrbExtractor orb;
    nn::Network det;
    nn::Tensor input;
    int inputSize;

    explicit Probes(const pipeline::PipelineParams& p)
        : orb(p.localizer.orb),
          det(nn::buildNetwork(nn::detectorSpec(
              p.detector.inputSize, p.detector.width,
              sensors::kNumObjectClasses))),
          inputSize(p.detector.inputSize)
    {
        Rng rng(p.detector.seed);
        nn::initDetectorWeights(det, rng);
        const nn::Shape shape{1, inputSize, inputSize};
        nn::lowerNetwork(det, shape);
        det.plan(shape);
    }
};

/** Per-frame record of what one submitFrame call returned. */
struct FrameRecord
{
    double frameMs = 0;
    bool traced = false;
    std::size_t yardIdx = 0; ///< the yardstick sample taken after it.
};

/**
 * Record one traced frame: the root span around submitFrame, children
 * laid out in serial stage order from the stage times the call
 * returned, the direct probe calls, and the per-frame counts.
 */
void
traceFrame(Tracer& tr, Probes& probes, const Image& image,
           const pipeline::FrameOutput& out, double t0, double t1,
           double dnnMs, double decodeMs, std::int64_t op)
{
    const auto& lat = out.latencies;
    const auto& lt = out.localization.timings;
    const int root = tr.span("pipeline.frame", t0, t1, -1, op);
    // Lays children end to end from `at` under `parent`; returns the end.
    const auto lay =
        [&](double at, int parent,
            std::initializer_list<std::pair<const char*, double>> kids) {
            for (const auto& [name, ms] : kids) {
                tr.span(name, at, at + ms, parent, op);
                at += ms;
            }
            return at;
        };
    const int det = tr.span("detect.det", t0, t0 + lat.detMs, root, op);
    lay(t0, det, {{"detect.dnn", dnnMs}, {"detect.decode", decodeMs}});
    const double locStart = t0 + lat.detMs;
    const int loc =
        tr.span("slam.loc", locStart, locStart + lat.locMs, root, op);
    lay(locStart, loc,
        {{"vision.fe", lt.feMs},
         {"slam.match", lt.matchMs},
         {"slam.solve", lt.solveMs},
         {"slam.reloc", lt.relocMs},
         {"slam.loop", lt.loopMs}});
    const double staged = lay(locStart + lat.locMs, root,
                              {{"track.tra", lat.traMs},
                               {"fusion.fusion", lat.fusionMs},
                               {"planning.motplan", lat.motPlanMs}});
    tr.span("pipeline.unattributed", staged, t1, root, op);

    const auto& prof = out.localization.orbProfile;
    tr.count("frames", 1);
    tr.count("vision.pixels_tested", prof.fast.pixelsTested);
    tr.count("vision.candidates", prof.fast.candidates);
    tr.count("vision.keypoints", prof.fast.keypoints);
    tr.count("vision.descriptors", prof.brief.descriptors);
    tr.count("slam.relocalized", out.localization.relocalized);
    tr.count("slam.lost", !out.localization.ok);
    tr.count("slam.matches", out.localization.matches);
    tr.count("slam.inliers", out.localization.inliers);
    tr.count("detect.detections", out.detections.size());
    tr.count("track.tracks", out.tracks.size());
    tr.count("loc.children_over_total",
             lt.feMs + lt.matchMs + lt.solveMs + lt.relocMs + lt.loopMs >
                     lt.totalMs + 1e-6
                 ? 1
                 : 0);
    tr.count("pipeline.negative_unattributed", t1 < staged - 1e-6 ? 1 : 0);

    // Direct calls into the layers, outside the frame span.
    vision::OrbProfile direct;
    const double f0 = nowMs();
    probes.orb.extract(image, &direct);
    const double f1 = nowMs();
    tr.span("vision.orb", f0, f1, -1, op);
    tr.count("vision.orb_profile_mismatch",
             direct.fast.keypoints != prof.fast.keypoints ||
                     direct.brief.descriptors != prof.brief.descriptors
                 ? 1
                 : 0);
    probes.input.assignFromImage(
        image.resized(probes.inputSize, probes.inputSize));
    const double n0 = nowMs();
    probes.det.forwardArena(probes.input, nn::KernelContext::serial());
    const double n1 = nowMs();
    tr.span("nn.forward", n0, n1, -1, op);
}

} // namespace

RunResult
runDrive(const RunOptions& opt, Tracer& tr)
{
    const int variant = static_cast<int>(opt.seed % kVariants);
    Rng scenarioRng(1);
    sensors::ScenarioParams sp;
    sp.roadLength = 300.0;
    const sensors::Scenario sc = sensors::makeUrbanScenario(scenarioRng, sp);
    const sensors::Camera camera(sensors::Resolution::HHD);
    const pipeline::PipelineParams params = driveParams(sc);
    const double speed = sc.ego.speed;

    // The seed picks the start phase: the world and ego are rolled
    // forward before the pipeline is reset at the ego's pose.
    sensors::World world = sc.world;
    Pose2 ego = sc.ego.pose;
    for (int i = 0; i < variant * kPhaseFrames; ++i)
        advance(world, ego, speed);

    // --- Set-up: survey + Pipeline construction + reset. ---
    // Half the set-ups run before the timed phase and half after it,
    // so their median brackets the timed phase's host conditions. The
    // last one before drives the run. Only one rig is alive at a time,
    // so peak RSS is that of one stack.
    Yardstick yard;
    std::vector<double> setupS, rawSetupS;
    const auto setUp = [&] {
        auto next = std::make_unique<Rig>();
        const std::size_t y0 = yard.count();
        yard.sampleMany(kBracket);
        const double s0 = nowMs();
        next->map = slam::buildPriorMap(sc.world, camera, 1);
        const double s1 = nowMs();
        next->pipe = std::make_unique<pipeline::Pipeline>(
            &next->map, &camera, nullptr, params);
        next->pipe->reset(ego, {speed, 0},
                          {sp.roadLength - 10, params.laneCenterY});
        const double s2 = nowMs();
        yard.sampleMany(kBracket);
        tr.span("slam.survey", s0, s1, -1,
                -1 - static_cast<std::int64_t>(setupS.size()));
        rawSetupS.push_back((s2 - s0) / 1000.0);
        setupS.push_back(rawSetupS.back() *
                         yard.factor(y0, yard.count()));
        return next;
    };
    std::unique_ptr<Rig> rig;
    while (setupS.size() < kSetupReps / 2) {
        rig.reset();
        rig = setUp();
    }
    pipeline::Pipeline& pipe = *rig->pipe;

    std::unique_ptr<Probes> probes;
    if (tr.enabled())
        probes = std::make_unique<Probes>(params);
    std::unique_ptr<DigestTable> table;
    if (!opt.record)
        table = std::make_unique<DigestTable>(opt.digestFile);

    RunResult res;
    const char* name = "drive_urban";
    std::vector<FrameRecord> frames;
    frames.reserve(kMaxFrames);
    Digest run;
    double timedMs = 0.0;
    std::int64_t badFrom = -1; ///< first frame of a mismatching chunk.
    const std::size_t minFrames = samplesForTail(kTailPct);
    const CpuTicks ticks0 = readCpuTicks();
    const double wall0 = nowMs();
    const std::size_t yardFirst = yard.count();

    while (static_cast<int>(frames.size()) < kMaxFrames) {
        for (int k = 0; k < kChunk; ++k) {
            // Traced runs trace every other frame, so the tracing
            // overhead is measured under the same host conditions and
            // at the same places along the road.
            const bool tracedFrame = tr.enabled() && frames.size() % 2;
            advance(world, ego, speed);
            const sensors::Frame frame = camera.render(world, ego);
            const auto cycles0 = pipe.cycleBreakdown();
            const double t0 = nowMs();
            auto outs = pipe.submitFrame(frame.image, kDtS, speed);
            const double t1 = nowMs();
            if (outs.size() != 1)
                die("serial submitFrame returned no single output");
            const auto& out = outs.front();
            const std::int64_t op =
                static_cast<std::int64_t>(frames.size());
            yard.sample();
            frames.push_back({t1 - t0, tracedFrame, yard.count() - 1});
            timedMs += t1 - t0;
            run.add(frameDigest(out));
            if (tracedFrame) {
                const auto& c1 = pipe.cycleBreakdown();
                traceFrame(tr, *probes, frame.image, out, t0, t1,
                           c1.detDnnMs - cycles0.detDnnMs,
                           c1.detOtherMs - cycles0.detOtherMs, op);
            }
        }
        const int checkpoint = static_cast<int>(frames.size()) / kChunk;
        if (opt.record) {
            res.recorded.push_back(std::string(name) + ' ' +
                                   std::to_string(variant) + ' ' +
                                   std::to_string(checkpoint) + ' ' +
                                   hex(run.value()));
            continue;
        }
        if (badFrom < 0 &&
            table->find(name, variant, checkpoint) != hex(run.value()))
            badFrom = static_cast<std::int64_t>(frames.size()) - kChunk;
        if (timedMs >= opt.seconds * 1000.0 && frames.size() >= minFrames)
            break;
    }
    const double wallS = (nowMs() - wall0) / 1000.0;
    const double steal = stealShare(ticks0, readCpuTicks());
    const std::size_t yardLast = yard.count();
    const bool capped = !opt.record && timedMs < opt.seconds * 1000.0;

    res.attempted = static_cast<std::int64_t>(frames.size());
    res.failed = badFrom < 0 ? 0 : res.attempted - badFrom;
    res.correct = res.failed == 0;
    std::printf("digest: %s (variant %d, %zu frames, %zu checkpoints)\n",
                opt.record ? "recorded"
                           : (res.correct ? "OK" : "MISMATCH"),
                variant, frames.size(), frames.size() / kChunk);
    if (opt.record)
        return res;
    rig.reset();
    while (setupS.size() < kSetupReps)
        setUp();

    // Host-normalized frame times: each frame scaled by the host factor
    // of the yardstick samples around it.
    std::vector<double> untraced, traced, raw, all, factors;
    std::int64_t onTime = 0;
    double normMs = 0.0;
    for (std::size_t i = 0; i < frames.size(); ++i) {
        const FrameRecord& f = frames[i];
        (f.traced ? traced : untraced).push_back(f.frameMs);
        factors.push_back(yard.factorAround(f.yardIdx, yardFirst, yardLast));
        raw.push_back(f.frameMs);
        all.push_back(f.frameMs * factors.back());
        normMs += all.back();
        const bool ok = badFrom < 0 ||
                        static_cast<std::int64_t>(i) < badFrom;
        onTime += ok && all.back() <= kBudgetMs;
    }
    const Tail tail = tailOf(all, kTailPct);
    std::printf("tail: p%g over n=%zu frames (%zu beyond) %s\n", tail.pct,
                tail.n, tail.beyond,
                tail.supported ? "supported" : "UNSUPPORTED");
    std::printf("timed: %.3f s in submitFrame, %.3f s wall incl. "
                "rendering and yardstick, steal share %.4f\n",
                timedMs / 1000.0, wallS, steal);
    printHostSpeed(yard, factors);
    std::printf("raw: latency_p50_ms %.4f latency_tail_ms %.4f "
                "throughput_per_s %.4f setup_s %.4f (not host-normalized)\n",
                median(raw), tailOf(raw, kTailPct).value,
                static_cast<double>(frames.size()) / (timedMs / 1000.0),
                median(rawSetupS));
    if (capped)
        std::printf("warning: the %d-frame digest cap, not --seconds, "
                    "ended the timed phase (%.3f of %g s)\n",
                    kMaxFrames, timedMs / 1000.0, opt.seconds);
    if (!tail.supported)
        res.correct = false;

    if (!tr.enabled()) {
        res.metrics = endToEnd(all, tail, res.attempted, normMs, onTime,
                               res.attempted, setupS);
        return res;
    }

    // --- Traced run: per-layer metrics from the traced frames. ---
    const double n = tr.counter("frames");
    const auto per = [&](const char* c) { return tr.counter(c) / n; };
    const double frameMs = tr.meanMs("pipeline.frame");
    const double stageSum = tr.meanMs("detect.det") +
                            tr.meanMs("track.tra") +
                            tr.meanMs("slam.loc") +
                            tr.meanMs("fusion.fusion") +
                            tr.meanMs("planning.motplan");
    const double unattributed = tr.meanMs("pipeline.unattributed");
    const bool reconciles =
        std::abs(stageSum + unattributed - frameMs) <= 1e-6 * frameMs &&
        tr.counter("pipeline.negative_unattributed") == 0 &&
        tr.counter("loc.children_over_total") == 0;
    std::printf("reconcile: frame %.4f ms = stages %.4f + unattributed "
                "%.4f ms (%s)\n",
                frameMs, stageSum, unattributed,
                reconciles ? "OK" : "FAILED");
    const double overhead = median(traced) / median(untraced) - 1.0;
    std::printf("tracing overhead: traced median frame %.4f ms vs "
                "untraced %.4f ms (%+.2f%%, %zu vs %zu frames)\n",
                median(traced), median(untraced), 100.0 * overhead,
                traced.size(), untraced.size());
    std::printf("cross-check: vision.orb %.4f ms direct vs LOC feMs "
                "%.4f ms; ORB profile mismatches %.0f\n",
                tr.meanMs("vision.orb"), tr.meanMs("vision.fe"),
                tr.counter("vision.orb_profile_mismatch"));
    if (!reconciles || tr.counter("vision.orb_profile_mismatch") > 0)
        res.correct = false;

    const auto netProfile = nn::specProfile(nn::detectorSpec(
        params.detector.inputSize, params.detector.width,
        sensors::kNumObjectClasses));
    res.metrics = {
        {"pipeline.frame_ms", frameMs, "ms"},
        {"pipeline.unattributed_ms", unattributed, "ms"},
        {"vision.orb_ms", tr.meanMs("vision.orb"), "ms"},
        {"vision.pixels_tested", per("vision.pixels_tested"), "count"},
        {"vision.keypoints", per("vision.keypoints"), "count"},
        {"vision.descriptors", per("vision.descriptors"), "count"},
        {"vision.keypoint_yield",
         tr.counter("vision.keypoints") / tr.counter("vision.candidates"),
         "share"},
        {"slam.loc_ms", tr.meanMs("slam.loc"), "ms"},
        {"slam.match_ms", tr.meanMs("slam.match"), "ms"},
        {"slam.solve_ms", tr.meanMs("slam.solve"), "ms"},
        {"slam.reloc_ms", tr.meanMs("slam.reloc"), "ms"},
        {"slam.reloc_share", per("slam.relocalized"), "share"},
        {"slam.inlier_ratio",
         tr.counter("slam.inliers") / tr.counter("slam.matches"), "share"},
        {"slam.lost_share", per("slam.lost"), "share"},
        {"slam.survey_s", tr.medianMs("slam.survey") / 1000.0, "s"},
        {"detect.det_ms", tr.meanMs("detect.det"), "ms"},
        {"detect.dnn_ms", tr.meanMs("detect.dnn"), "ms"},
        {"detect.detections_per_frame", per("detect.detections"), "count"},
        {"nn.forward_ms", tr.meanMs("nn.forward"), "ms"},
        {"track.tra_ms", tr.meanMs("track.tra"), "ms"},
        {"track.tracks_per_frame", per("track.tracks"), "count"},
        {"fusion.fusion_ms", tr.meanMs("fusion.fusion"), "ms"},
        {"planning.motplan_ms", tr.meanMs("planning.motplan"), "ms"},
        {"nn.macs_per_item",
         static_cast<double>(
             netProfile.flopsOfKind(nn::LayerKind::Conv) +
             netProfile.flopsOfKind(nn::LayerKind::FullyConnected)) /
             2.0,
         "count"},
        {"nn.bytes_per_item",
         static_cast<double>(netProfile.totalWeightBytes() +
                             netProfile.totalActivationBytes()),
         "bytes"},
    };
    return res;
}

} // namespace adbench
