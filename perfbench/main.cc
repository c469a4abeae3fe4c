/**
 * @file
 * adbench: the repository's end-to-end benchmark.
 *
 *   adbench --workload <drive_urban|serve_det_int8>
 *           --seed <n> --seconds <s> --trace <0|1>
 *           --digests <file> [--trace-out <file>] [--commit <id>]
 *           [--record 1]
 *
 * Prints the host fingerprint, the digest verdict, the tail
 * percentile with its sample count, the host speed the yardstick
 * measured, the raw (not host-normalized) times, and as its last
 * line one JSON object: {"correct", "attempted", "failed",
 * "metrics"}. With --trace 0 the metrics are the six end-to-end
 * ones, their times host-normalized (yardstick.hh); with --trace 1
 * they are the per-layer ones, raw (a layer the workload bypasses
 * reads 0). --record 1 prints "record: <line>" digest lines instead.
 * perfbench/run.py builds this binary and is the command to run.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.hh"

namespace {

using namespace adbench;

/** Every per-layer metric, in print order, with its unit. */
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"pipeline.frame_ms", "ms"},
    {"pipeline.unattributed_ms", "ms"},
    {"vision.orb_ms", "ms"},
    {"vision.pixels_tested", "count"},
    {"vision.keypoints", "count"},
    {"vision.descriptors", "count"},
    {"vision.keypoint_yield", "share"},
    {"slam.loc_ms", "ms"},
    {"slam.match_ms", "ms"},
    {"slam.solve_ms", "ms"},
    {"slam.reloc_ms", "ms"},
    {"slam.reloc_share", "share"},
    {"slam.inlier_ratio", "share"},
    {"slam.lost_share", "share"},
    {"slam.survey_s", "s"},
    {"detect.det_ms", "ms"},
    {"detect.dnn_ms", "ms"},
    {"detect.detections_per_frame", "count"},
    {"nn.forward_ms", "ms"},
    {"track.tra_ms", "ms"},
    {"track.tracks_per_frame", "count"},
    {"fusion.fusion_ms", "ms"},
    {"planning.motplan_ms", "ms"},
    {"nn.batch_ms", "ms"},
    {"nn.item_ms", "ms"},
    {"nn.macs_per_item", "count"},
    {"nn.bytes_per_item", "bytes"},
    {"nn.build_s", "s"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.batch_size_mean", "count"},
    {"serve.engine_busy_share", "share"},
    {"serve.shed_share", "share"},
    {"serve.degraded_share", "share"},
};

/**
 * The per-layer result: every metric of the table, in table order,
 * 0 where the workload bypasses the layer. Dies on a metric the table
 * does not know or a unit that disagrees with it.
 */
std::vector<Metric>
perLayer(const std::vector<Metric>& measured)
{
    std::vector<Metric> out;
    for (const auto& [name, unit] : kPerLayer)
        out.push_back({name, 0.0, unit});
    for (const auto& m : measured) {
        bool known = false;
        for (auto& o : out) {
            if (o.name != m.name)
                continue;
            if (o.unit != m.unit)
                die("metric " + m.name + " unit " + m.unit +
                    " != " + o.unit);
            o.value = m.value;
            known = true;
        }
        if (!known)
            die("unknown per-layer metric " + m.name);
    }
    return out;
}

void
printResult(const RunResult& r)
{
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                r.correct ? "true" : "false",
                static_cast<long long>(r.attempted),
                static_cast<long long>(r.failed));
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric& m = r.metrics[i];
        if (!std::isfinite(m.value))
            die("metric " + m.name + " is not finite");
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char** argv)
{
    RunOptions opt;
    std::string commit = "unknown";
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            die("missing value for " + key);
        const std::string val = argv[++i];
        if (key == "--workload")
            opt.workload = val;
        else if (key == "--seed")
            opt.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (key == "--seconds")
            opt.seconds = std::atof(val.c_str());
        else if (key == "--trace")
            opt.trace = val == "1";
        else if (key == "--trace-out")
            opt.traceOut = val;
        else if (key == "--digests")
            opt.digestFile = val;
        else if (key == "--commit")
            commit = val;
        else if (key == "--record")
            opt.record = val == "1";
        else
            die("unknown argument " + key);
    }
    if (opt.digestFile.empty() && !opt.record)
        die("--digests is required");
    if (!(opt.seconds > 0))
        die("--seconds must be positive");

    std::printf("host: %s\n", hostFingerprint(commit).c_str());
    std::printf("workload: %s seed %llu, %g s, trace %d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    std::fflush(stdout);

    Tracer tracer(opt.trace);
    RunResult res;
    if (opt.workload == "drive_urban")
        res = runDrive(opt, tracer);
    else if (opt.workload == "serve_det_int8")
        res = runServe(opt, tracer);
    else
        die("unknown workload '" + opt.workload + "'");

    if (opt.record) {
        for (const auto& line : res.recorded)
            std::printf("record: %s\n", line.c_str());
        return 0;
    }
    if (opt.trace) {
        res.metrics = perLayer(res.metrics);
        if (!opt.traceOut.empty() && !tracer.write(opt.traceOut))
            die("cannot write trace '" + opt.traceOut + "'");
        std::printf("trace: %s\n", opt.traceOut.empty()
                                       ? "(not written)"
                                       : opt.traceOut.c_str());
    }
    printResult(res);
    return res.correct ? 0 : 1;
}
