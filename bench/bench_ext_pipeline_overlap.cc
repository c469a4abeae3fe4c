/**
 * @file
 * Extension bench: inter-frame stage pipelining on the frame-graph
 * executor. The Figure 1 DAG gives LOC its own branch next to
 * DET->TRA, and at depth >= 2 the executor additionally overlaps
 * *frames*: DET on frame k runs while TRA/FUSION/MOTPLAN finish frame
 * k-1, so steady-state throughput approaches 1/max(stage) instead of
 * 1/sum(stages).
 *
 * The machine this repo targets is allowed to have a single core, so
 * the bench never claims wall-clock overlap. Everything is accounted
 * on the executor's virtual timeline (docs/DESIGN.md): stage
 * durations are measured per stage as they run, and the recurrence
 *
 *   start(k, s) = max(admit(k), free(s), inputs-of-s done on k)
 *
 * yields the makespan a pipelined machine would see. The serial
 * reference is the depth-1 run's measured durations summed end to
 * end.
 *
 * Two phases per depth in {1, 2, 3}, governor active throughout:
 *
 *  - paced (dt = 100 ms, the camera period): frames never queue, so
 *    the pipelined latency (commit - arrival) is the per-frame
 *    latency; its p99.99 must hold the paper's 100 ms budget.
 *  - saturated (dt = 5 ms): arrivals outrun the pipeline, the
 *    executor is bottleneck-bound, and throughput = frames /
 *    virtual makespan approaches 1/max(stage).
 *
 * Determinism is part of the acceptance: every depth must produce
 * identical outputs across schedule seeds (the virtual timeline is
 * schedule-independent), and depth 1 must also reproduce the serial
 * reference run (seed 0) bit for bit. `bitwise_identical` in the JSON
 * is the AND of both checks for the row's depth.
 *
 * The detector is sized (input 256, width 0.35) so DET and LOC carry
 * comparable cost: the DAG's two branches are balanced and the ideal
 * pipelined speedup sum/max is ~2x, giving the 1.3x acceptance bar
 * real headroom rather than grazing it.
 *
 * Emits BENCH_pipeline.json (override with --pipeline-json=PATH).
 *
 * Usage:
 *   bench_ext_pipeline_overlap [--frames-paced=120]
 *       [--frames-saturated=100] [--budget-ms=100] [--seed=31]
 *       [--pipeline-json=PATH]
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/config.hh"
#include "pipeline/pipeline.hh"
#include "sensors/scenario.hh"
#include "slam/mapping.hh"

namespace {

using namespace ad;
using namespace ad::pipeline;

/** Everything shared by every run: world, map, pre-rendered frames. */
struct Course
{
    explicit Course(sensors::Scenario s) : scenario(std::move(s)) {}

    sensors::Scenario scenario;
    sensors::Camera camera{sensors::Resolution::HHD};
    slam::PriorMap map;
    planning::RoadGraph graph;
    double laneY = 0.0;
    std::vector<Image> pacedFrames;     ///< stepped at 100 ms.
    std::vector<Image> saturatedFrames; ///< stepped at 5 ms.
};

std::vector<Image>
renderFrames(const Course& course, int frames, double dt)
{
    std::vector<Image> out;
    out.reserve(static_cast<std::size_t>(frames));
    sensors::World world = course.scenario.world;
    Pose2 ego = course.scenario.ego.pose;
    for (int i = 0; i < frames; ++i) {
        world.step(dt);
        ego.pos.x += 10.0 * dt;
        out.push_back(course.camera.render(world, ego).image);
    }
    return out;
}

Course*
buildCourse(int framesPaced, int framesSaturated, std::uint64_t seed)
{
    Rng rng(seed);
    sensors::ScenarioParams sp;
    sp.roadLength = 150.0;
    sp.vehicles = 3;
    Course* c = new Course(sensors::makeUrbanScenario(rng, sp));
    c->laneY = c->scenario.world.road().laneCenter(1);

    slam::MappingParams mp;
    mp.orb.fast.maxKeypoints = 500;
    c->map = slam::buildPriorMap(c->scenario.world, c->camera, 1, mp);

    int prev = -1;
    for (double x = 0; x <= 150.0; x += 50.0) {
        const int node = c->graph.addNode({x, c->laneY});
        if (prev >= 0)
            c->graph.addBidirectional(prev, node);
        prev = node;
    }
    c->pacedFrames = renderFrames(*c, framesPaced, 0.1);
    c->saturatedFrames = renderFrames(*c, framesSaturated, 0.005);
    return c;
}

/** FNV-1a over the semantic payload of one run's outputs. */
class Checksum
{
  public:
    void
    mix(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        mix(bits);
    }

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (v >> (8 * i)) & 0xff;
            hash_ *= 1099511628211ull;
        }
    }

    void
    frame(const FrameOutput& out)
    {
        mix(static_cast<std::uint64_t>(out.frameId));
        mix(static_cast<std::uint64_t>(out.mode));
        mix(static_cast<std::uint64_t>(
            (out.frameDropped << 4) | (out.detRan << 3) |
            (out.detFellBack << 2) | (out.locFellBack << 1) |
            static_cast<int>(out.traCoasted)));
        mix(static_cast<std::uint64_t>(out.detections.size()));
        for (const auto& d : out.detections) {
            mix(d.box.x);
            mix(d.box.y);
            mix(d.box.w);
            mix(d.box.h);
            mix(d.confidence);
        }
        mix(static_cast<std::uint64_t>(out.tracks.size()));
        for (const auto& t : out.tracks) {
            mix(static_cast<std::uint64_t>(t.id));
            mix(t.box.x);
            mix(t.box.y);
            mix(t.box.w);
            mix(t.box.h);
            mix(t.velocityPx.x);
            mix(t.velocityPx.y);
        }
        mix(static_cast<std::uint64_t>(out.localization.ok));
        mix(static_cast<std::uint64_t>(out.localization.relocalized));
        mix(out.localization.pose.pos.x);
        mix(out.localization.pose.pos.y);
        mix(out.localization.pose.theta);
        mix(out.command.steering);
        mix(out.command.acceleration);
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 1469598103934665603ull;
};

/** One pipeline drive, summarized. */
struct RunResult
{
    std::uint64_t checksum = 0;
    double serialVirtualMs = 0; ///< sum of every stage duration.
    double makespanMs = 0; ///< virtual span arrival(0) -> last commit.
    LatencySummary pipelined;
    LatencySummary e2e;
    long long deadlineMisses = 0;
    double detMeanMs = 0, traMeanMs = 0, locMeanMs = 0;
    double fusionMeanMs = 0, motMeanMs = 0;
};

PipelineParams
benchParams(const Course& course, double budgetMs)
{
    PipelineParams p;
    p.detector.inputSize = 256;
    p.detector.width = 0.35;
    p.trackerPool.poolSize = 6;
    p.trackerPool.tracker.cropSize = 32;
    p.trackerPool.tracker.width = 0.1;
    p.motionPlanner.cruiseSpeed = 10.0;
    p.laneCenterY = course.laneY;
    p.nnThreads = 1;
    p.deadline.budgetMs = budgetMs;
    p.governor.enabled = true;
    p.governor.budgetMs = budgetMs;
    return p;
}

RunResult
runOnce(const Course& course, const std::vector<Image>& frames,
        double dt, double budgetMs, int depth, std::uint64_t scheduleSeed)
{
    PipelineParams p = benchParams(course, budgetMs);
    p.depth = depth;
    p.scheduleSeed = scheduleSeed;

    Pipeline pipe(&course.map, &course.camera, &course.graph, p);
    pipe.reset(course.scenario.ego.pose, {10, 0}, {140, course.laneY});

    std::vector<FrameOutput> outputs;
    outputs.reserve(frames.size());
    for (const Image& image : frames)
        for (auto& out : pipe.submitFrame(image, dt, 10.0))
            outputs.push_back(std::move(out));
    for (auto& out : pipe.drainAsync())
        outputs.push_back(std::move(out));
    std::sort(outputs.begin(), outputs.end(),
              [](const FrameOutput& a, const FrameOutput& b) {
                  return a.frameId < b.frameId;
              });

    RunResult r;
    Checksum sum;
    for (const FrameOutput& out : outputs) {
        sum.frame(out);
        const auto& lat = out.latencies;
        r.serialVirtualMs += lat.detMs + lat.traMs + lat.locMs +
                             lat.fusionMs + lat.motPlanMs;
        r.deadlineMisses += lat.endToEndMs() > budgetMs;
    }
    r.checksum = sum.value();
    r.pipelined = pipe.pipelinedLatency().summary();
    r.e2e = pipe.endToEndLatency().summary();
    r.makespanMs = pipe.executor().lastCommitVirtualMs() - dt * 1000.0;
    r.detMeanMs = pipe.detLatency().summary().mean;
    r.traMeanMs = pipe.traLatency().summary().mean;
    r.locMeanMs = pipe.locLatency().summary().mean;
    r.fusionMeanMs = pipe.fusionLatency().summary().mean;
    r.motMeanMs = pipe.motPlanLatency().summary().mean;
    return r;
}

/** One JSON/console row: everything measured for one depth. */
struct DepthRow
{
    int depth = 0;
    double throughputFps = 0;
    double speedup = 0;
    double p9999PipelinedMs = 0;
    double e2eP9999Ms = 0;
    long long deadlineMisses = 0;
    bool bitwiseIdentical = false;
};

void
writeJson(const char* path, int framesPaced, int framesSaturated,
          double budgetMs, std::uint64_t seed,
          const RunResult& serialSat, const RunResult& serialPaced,
          const std::vector<DepthRow>& rows)
{
    std::FILE* f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return;
    }
    const double serialFps =
        serialSat.serialVirtualMs > 0
            ? 1000.0 * framesSaturated / serialSat.serialVirtualMs
            : 0.0;
    std::fprintf(
        f,
        "{\n  \"bench\": \"pipeline_overlap\",\n"
        "  \"det_input\": 256,\n"
        "  \"frames_paced\": %d,\n"
        "  \"frames_saturated\": %d,\n"
        "  \"budget_ms\": %.1f,\n"
        "  \"seed\": %llu,\n"
        "  \"stage_mean_ms\": {\"det\": %.3f, \"tra\": %.3f, "
        "\"loc\": %.3f, \"fusion\": %.3f, \"motplan\": %.3f},\n"
        "  \"serial\": {\"throughput_fps\": %.3f, "
        "\"virtual_makespan_ms\": %.3f, "
        "\"p9999_pipelined_ms\": %.3f, \"e2e_p9999_ms\": %.3f, "
        "\"deadline_misses\": %lld},\n"
        "  \"rows\": [",
        framesPaced, framesSaturated, budgetMs,
        static_cast<unsigned long long>(seed), serialSat.detMeanMs,
        serialSat.traMeanMs, serialSat.locMeanMs,
        serialSat.fusionMeanMs, serialSat.motMeanMs, serialFps,
        serialSat.serialVirtualMs, serialPaced.pipelined.p9999,
        serialPaced.e2e.p9999, serialPaced.deadlineMisses);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const DepthRow& r = rows[i];
        std::fprintf(
            f,
            "%s\n    {\"depth\": %d, \"throughput_fps\": %.3f, "
            "\"speedup_vs_serial\": %.4f, "
            "\"p9999_pipelined_ms\": %.3f, \"e2e_p9999_ms\": %.3f, "
            "\"deadline_misses\": %lld, \"bitwise_identical\": %s}",
            i ? "," : "", r.depth, r.throughputFps, r.speedup,
            r.p9999PipelinedMs, r.e2eP9999Ms, r.deadlineMisses,
            r.bitwiseIdentical ? "true" : "false");
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("wrote pipeline overlap sweep to %s\n", path);
}

} // namespace

int
main(int argc, char** argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    const int framesPaced = cfg.getInt("frames-paced", 120);
    const int framesSaturated = cfg.getInt("frames-saturated", 100);
    const double budgetMs = cfg.getDouble("budget-ms", 100.0);
    const std::uint64_t seed =
        static_cast<std::uint64_t>(cfg.getInt("seed", 31));
    const std::string jsonPath =
        cfg.getString("pipeline-json", "BENCH_pipeline.json");
    cfg.warnUnreadKeys();

    bench::printHeader(
        "Frame-graph pipelining sweep (extension)",
        "executor depth 1-3 vs serial composition on the virtual "
        "timeline, governor active");
    std::printf("%d paced + %d saturated frames per run, budget "
                "%.0f ms, seed %llu\n\n",
                framesPaced, framesSaturated, budgetMs,
                static_cast<unsigned long long>(seed));

    Course* course = buildCourse(framesPaced, framesSaturated, seed);

    // Serial references, taken from depth-1 runs: paced for the
    // latency bars, saturated for the throughput denominator (every
    // stage duration summed end to end, no overlap at all).
    const RunResult serialPaced =
        runOnce(*course, course->pacedFrames, 0.1, budgetMs, 1, 0);
    const RunResult serialSat =
        runOnce(*course, course->saturatedFrames, 0.005, budgetMs, 1, 0);
    std::printf("stage means (ms): det %.2f  tra %.2f  loc %.2f  "
                "fusion %.3f  motplan %.3f\n",
                serialSat.detMeanMs, serialSat.traMeanMs,
                serialSat.locMeanMs, serialSat.fusionMeanMs,
                serialSat.motMeanMs);
    const double serialFps =
        1000.0 * framesSaturated / serialSat.serialVirtualMs;
    std::printf("serial: %.2f fps, paced p99.99 pipelined %.2f ms, "
                "%lld deadline misses\n\n",
                serialFps, serialPaced.pipelined.p9999,
                serialPaced.deadlineMisses);

    std::printf("%6s %8s %9s %12s %11s %7s %9s\n", "depth", "fps",
                "speedup", "p99.99 ppl", "p99.99 e2e", "misses",
                "bitwise");
    std::vector<DepthRow> rows;
    bool allOk = true;
    for (const int depth : {1, 2, 3}) {
        const RunResult paced =
            runOnce(*course, course->pacedFrames, 0.1, budgetMs, depth, 0);
        const RunResult satA = runOnce(*course, course->saturatedFrames,
                                       0.005, budgetMs, depth, 1);
        const RunResult satB = runOnce(*course, course->saturatedFrames,
                                       0.005, budgetMs, depth, 42);

        DepthRow row;
        row.depth = depth;
        row.throughputFps =
            1000.0 * framesSaturated / satA.makespanMs;
        row.speedup = serialSat.serialVirtualMs / satA.makespanMs;
        row.p9999PipelinedMs = paced.pipelined.p9999;
        row.e2eP9999Ms = paced.e2e.p9999;
        row.deadlineMisses = paced.deadlineMisses;
        // Schedule-seed invariance at every depth; depth 1 must also
        // reproduce the seed-0 serial reference bit for bit.
        row.bitwiseIdentical = satA.checksum == satB.checksum &&
                               (depth != 1 ||
                                satA.checksum == serialSat.checksum);
        rows.push_back(row);
        std::printf("%6d %8.2f %8.2fx %9.2f ms %8.2f ms %7lld %9s\n",
                    depth, row.throughputFps, row.speedup,
                    row.p9999PipelinedMs, row.e2eP9999Ms,
                    row.deadlineMisses,
                    row.bitwiseIdentical ? "yes" : "NO");

        allOk = allOk && row.bitwiseIdentical &&
                row.p9999PipelinedMs <= budgetMs &&
                (depth < 2 || row.speedup >= 1.3);
    }

    std::printf(
        "\nverdict: %s\n",
        allOk ? "PASS: depth >= 2 sustains >= 1.3x serial throughput "
                "with p99.99 pipelined latency inside the budget and "
                "bitwise-reproducible outputs"
              : "FAIL: a depth missed its throughput, tail or "
                "determinism bar");

    writeJson(jsonPath.c_str(), framesPaced, framesSaturated,
              budgetMs, seed, serialSat, serialPaced, rows);
    const bool pass = allOk;
    delete course;
    return pass ? 0 : 1;
}
