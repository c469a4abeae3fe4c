/**
 * @file
 * Extension bench: INT8 quantized inference -- accuracy vs latency.
 * Reproduces the precision corner of the paper's accelerator study
 * (Section 4.2: the ASIC/FPGA designs win largely through narrow
 * arithmetic) on the host CPU and measures what the quantized path
 * costs in output quality:
 *
 *  - kernel: fp32 packed GEMM vs int8 GEMM at 512^3, serial and
 *    sharded (the acceptance bar: int8 >= 1.8x fp32 at 512^3);
 *  - DET: boxes from the fp32 and int8 detectors over rendered
 *    scenes -- IoU agreement between the two paths, IoU vs ground
 *    truth for each, and the DNN latency split;
 *  - TRA: fp32-vs-int8 tracker center distance over a short pursuit
 *    plus the DNN latency split;
 *  - serving: the measured NnBatchEngine multi-stream configuration
 *    (adserve --measured) run fp32 and int8 -- goodput and admitted
 *    tail latency side by side;
 *  - determinism: FNV-1a checksums of the int8 GEMM output and
 *    detector boxes at 1/2/8 threads (must be bitwise identical);
 *  - fusion: the DET network fused+arena-planned vs the unfused
 *    allocating reference in both precisions -- latency, bitwise
 *    equality at 1/2/8 threads, arena footprint (via the
 *    MetricRegistry gauges Network::plan publishes) and the
 *    steady-state allocation count, which must be zero.
 *
 * Emits BENCH_quant.json (override with --quant-json=PATH). The DNN
 * speedups measured here anchor accel::cpuQuantizedSpeedup -- the
 * modeled quantization constants cite this artifact.
 *
 * Usage:
 *   bench_ext_quant_accuracy [--quant-json=PATH] [--seed=1]
 *                            [--serve-frames=100] [--reps=5]
 */

#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/config.hh"
#include "common/random.hh"
#include "common/time.hh"
#include "detect/yolo.hh"
#include "nn/fusion.hh"
#include "nn/gemm.hh"
#include "nn/gemm_int8.hh"
#include "nn/quant.hh"
#include "obs/metrics.hh"
#include "sensors/camera.hh"
#include "serve/serve.hh"
#include "track/goturn.hh"

namespace {

using namespace ad;

std::uint64_t
fnv1a(const void* data, std::size_t bytes)
{
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint64_t h = 1469598103934665603ULL;
    for (std::size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

double
bestOf(int reps, const std::function<void()>& fn)
{
    double best = 0;
    for (int r = 0; r < reps; ++r) {
        Stopwatch watch;
        fn();
        const double ms = watch.elapsedMs();
        if (r == 0 || ms < best)
            best = ms;
    }
    return best;
}

/** One (threads, fp32 ms, int8 ms) row of the kernel sweep. */
struct GemmRow
{
    int threads = 1;
    double fp32Ms = 0;
    double int8Ms = 0;
};

struct GemmResults
{
    std::vector<GemmRow> rows;
    double serialSpeedup = 0; ///< the acceptance-bar number.
};

GemmResults
runGemmSweep(int reps)
{
    constexpr std::size_t n = 512;
    Rng rng(1);
    std::vector<float> a(n * n);
    std::vector<float> b(n * n);
    std::vector<float> c(n * n);
    for (auto& v : a)
        v = static_cast<float>(rng.uniform(-1, 1));
    for (auto& v : b)
        v = static_cast<float>(rng.uniform(-1, 1));
    std::vector<std::int8_t> qa(n * n);
    std::vector<std::int8_t> qb(n * n);
    for (auto& v : qa)
        v = static_cast<std::int8_t>(rng.uniformInt(-127, 127));
    for (auto& v : qb)
        v = static_cast<std::int8_t>(rng.uniformInt(-127, 127));
    std::vector<std::int32_t> qc(n * n);

    GemmResults res;
    std::printf("[gemm] %zux%zux%zu, int8 isa=%s\n", n, n, n,
                nn::int8KernelIsa());
    // Warm up caches and let the clock governor settle before the
    // first timed cell; without this the serial fp32 reading lands
    // mid-frequency-ramp and inflates the quoted speedup.
    for (int r = 0; r < 10; ++r)
        nn::gemm(n, n, n, a.data(), b.data(), c.data(),
                 nn::kernelContext(1));
    for (const int threads : {1, 2, 4, 8}) {
        const nn::KernelContext ctx = nn::kernelContext(threads);
        GemmRow row;
        row.threads = threads;
        row.fp32Ms = bestOf(reps, [&] {
            std::fill(c.begin(), c.end(), 0.0f);
            nn::gemm(n, n, n, a.data(), b.data(), c.data(), ctx);
        });
        row.int8Ms = bestOf(reps, [&] {
            std::fill(qc.begin(), qc.end(), 0);
            nn::gemmInt8(n, n, n, qa.data(), qb.data(), qc.data(), ctx);
        });
        res.rows.push_back(row);
        std::printf("  threads=%d fp32=%.3f ms int8=%.3f ms "
                    "speedup=%.2fx\n",
                    threads, row.fp32Ms, row.int8Ms,
                    row.fp32Ms / row.int8Ms);
    }
    res.serialSpeedup = res.rows[0].fp32Ms / res.rows[0].int8Ms;
    return res;
}

/** Checksums of the int8 GEMM output across thread counts. */
struct DeterminismResults
{
    std::vector<std::uint64_t> gemmChecksums; ///< at 1/2/8 threads.
    bool gemmIdentical = false;
    bool detIdentical = false;
};

std::vector<sensors::Frame>
renderScenes(sensors::Camera& camera)
{
    std::vector<sensors::Frame> frames;
    const struct
    {
        sensors::ObjectClass cls;
        double distance;
        double lateral;
    } setups[] = {
        {sensors::ObjectClass::Vehicle, 12.0, 0.0},
        {sensors::ObjectClass::Vehicle, 20.0, 1.0},
        {sensors::ObjectClass::Pedestrian, 9.0, -1.0},
        {sensors::ObjectClass::TrafficSign, 11.0, 1.5},
        {sensors::ObjectClass::Vehicle, 28.0, -0.5},
        {sensors::ObjectClass::Bicycle, 10.0, 0.5},
    };
    for (const auto& s : setups) {
        sensors::World world;
        sensors::Actor a;
        a.cls = s.cls;
        a.motion = sensors::MotionKind::Stationary;
        a.pose = Pose2(50.0 + s.distance,
                       world.road().laneCenter(1) + s.lateral, 0.0);
        if (s.cls == sensors::ObjectClass::Pedestrian) {
            a.length = 0.5;
            a.width = 0.6;
            a.height = 1.75;
        } else if (s.cls == sensors::ObjectClass::Bicycle) {
            a.length = 1.8;
            a.width = 0.8;
            a.height = 1.7;
        } else if (s.cls == sensors::ObjectClass::TrafficSign) {
            a.length = 0.8;
            a.width = 0.9;
            a.height = 2.2;
        }
        world.addActor(a);
        frames.push_back(camera.render(
            world, Pose2(50.0, world.road().laneCenter(1), 0)));
    }
    return frames;
}

struct DetResults
{
    int frames = 0;
    int fp32Dets = 0;
    int int8Dets = 0;
    double meanMatchIou = 0;  ///< int8 boxes vs fp32 boxes.
    double fp32TruthIou = 0;  ///< fp32 boxes vs ground truth.
    double int8TruthIou = 0;  ///< int8 boxes vs ground truth.
    double fp32DnnMs = 0;     ///< mean forward-pass ms per frame.
    double int8DnnMs = 0;
};

DetResults
runDetComparison(const std::vector<sensors::Frame>& frames)
{
    detect::DetectorParams dp;
    dp.inputSize = 160;
    detect::YoloDetector fp32(dp);
    dp.precision = nn::Precision::Int8;
    detect::YoloDetector int8(dp);

    DetResults res;
    res.frames = static_cast<int>(frames.size());
    double matchIouSum = 0;
    int matchCount = 0;
    double fp32Truth = 0, int8Truth = 0;
    int truthCount = 0;
    detect::DetectorTimings fp32Times, int8Times;
    for (const auto& frame : frames) {
        const auto refDets = fp32.detect(frame.image, &fp32Times);
        const auto quantDets = int8.detect(frame.image, &int8Times);
        res.fp32Dets += static_cast<int>(refDets.size());
        res.int8Dets += static_cast<int>(quantDets.size());
        for (const auto& ref : refDets) {
            double best = 0;
            for (const auto& q : quantDets)
                best = std::max(best, ref.box.iou(q.box));
            matchIouSum += best;
            ++matchCount;
        }
        for (const auto& truth : frame.truth) {
            double bestRef = 0, bestQuant = 0;
            for (const auto& d : refDets)
                bestRef = std::max(bestRef, d.box.iou(truth.box));
            for (const auto& d : quantDets)
                bestQuant = std::max(bestQuant, d.box.iou(truth.box));
            fp32Truth += bestRef;
            int8Truth += bestQuant;
            ++truthCount;
        }
    }
    res.meanMatchIou = matchCount ? matchIouSum / matchCount : 1.0;
    res.fp32TruthIou = truthCount ? fp32Truth / truthCount : 0.0;
    res.int8TruthIou = truthCount ? int8Truth / truthCount : 0.0;
    res.fp32DnnMs = fp32Times.dnnMs / static_cast<int>(frames.size());
    res.int8DnnMs = int8Times.dnnMs / static_cast<int>(frames.size());
    std::printf("[det] %d frames: match IoU %.4f (degradation %.2f%%), "
                "truth IoU fp32 %.3f int8 %.3f, dnn %.2f -> %.2f ms "
                "(%.2fx)\n",
                res.frames, res.meanMatchIou,
                100.0 * (1.0 - res.meanMatchIou), res.fp32TruthIou,
                res.int8TruthIou, res.fp32DnnMs, res.int8DnnMs,
                res.fp32DnnMs / res.int8DnnMs);
    return res;
}

bool
detDeterministicAcrossThreads(const sensors::Frame& frame)
{
    detect::DetectorParams dp;
    dp.inputSize = 160;
    dp.precision = nn::Precision::Int8;
    dp.threads = 1;
    detect::YoloDetector serial(dp);
    const auto ref = serial.detect(frame.image);
    for (const int threads : {2, 8}) {
        dp.threads = threads;
        detect::YoloDetector parallel(dp);
        const auto got = parallel.detect(frame.image);
        if (got.size() != ref.size())
            return false;
        for (std::size_t i = 0; i < ref.size(); ++i) {
            if (ref[i].box.x != got[i].box.x ||
                ref[i].box.y != got[i].box.y ||
                ref[i].box.w != got[i].box.w ||
                ref[i].box.h != got[i].box.h ||
                ref[i].confidence != got[i].confidence)
                return false;
        }
    }
    return true;
}

DeterminismResults
runDeterminism(const sensors::Frame& frame)
{
    constexpr std::size_t n = 512;
    Rng rng(3);
    std::vector<std::int8_t> qa(n * n);
    std::vector<std::int8_t> qb(n * n);
    for (auto& v : qa)
        v = static_cast<std::int8_t>(rng.uniformInt(-127, 127));
    for (auto& v : qb)
        v = static_cast<std::int8_t>(rng.uniformInt(-127, 127));

    DeterminismResults res;
    for (const int threads : {1, 2, 8}) {
        std::vector<std::int32_t> qc(n * n, 0);
        nn::gemmInt8(n, n, n, qa.data(), qb.data(), qc.data(),
                     nn::kernelContext(threads));
        res.gemmChecksums.push_back(
            fnv1a(qc.data(), qc.size() * sizeof(std::int32_t)));
    }
    res.gemmIdentical =
        res.gemmChecksums[0] == res.gemmChecksums[1] &&
        res.gemmChecksums[0] == res.gemmChecksums[2];
    res.detIdentical = detDeterministicAcrossThreads(frame);
    std::printf("[determinism] gemm checksum %016llx at 1/2/8 threads: "
                "%s; det boxes: %s\n",
                static_cast<unsigned long long>(res.gemmChecksums[0]),
                res.gemmIdentical ? "identical" : "DIVERGED",
                res.detIdentical ? "identical" : "DIVERGED");
    return res;
}

struct TraResults
{
    int steps = 0;
    double meanCenterErrorPx = 0; ///< int8 vs fp32 center distance.
    double fp32DnnMs = 0;
    double int8DnnMs = 0;
};

TraResults
runTraComparison(sensors::Camera& camera)
{
    // A short pursuit: the ego closes on a stationary vehicle, the
    // trackers follow it across frames.
    sensors::World world;
    sensors::Actor a;
    a.cls = sensors::ObjectClass::Vehicle;
    a.motion = sensors::MotionKind::Stationary;
    a.pose = Pose2(65.0, world.road().laneCenter(1), 0.0);
    world.addActor(a);
    std::vector<sensors::Frame> frames;
    for (int i = 0; i < 6; ++i)
        frames.push_back(camera.render(
            world,
            Pose2(50.0 + 0.4 * i, world.road().laneCenter(1), 0)));

    track::TrackerParams tp;
    track::GoturnTracker fp32(tp);
    tp.precision = nn::Precision::Int8;
    track::GoturnTracker int8(tp);
    fp32.init(frames[0].image, frames[0].truth[0].box);
    int8.init(frames[0].image, frames[0].truth[0].box);

    TraResults res;
    track::TrackTimings fp32Times, int8Times;
    double errSum = 0;
    for (std::size_t i = 1; i < frames.size(); ++i) {
        const BBox ref = fp32.track(frames[i].image, &fp32Times);
        const BBox got = int8.track(frames[i].image, &int8Times);
        errSum += std::hypot(ref.cx() - got.cx(), ref.cy() - got.cy());
        ++res.steps;
    }
    res.meanCenterErrorPx = errSum / res.steps;
    res.fp32DnnMs = fp32Times.dnnMs / res.steps;
    res.int8DnnMs = int8Times.dnnMs / res.steps;
    std::printf("[tra] %d steps: center error %.3f px, dnn %.2f -> "
                "%.2f ms (%.2fx)\n",
                res.steps, res.meanCenterErrorPx, res.fp32DnnMs,
                res.int8DnnMs, res.fp32DnnMs / res.int8DnnMs);
    return res;
}

/** Fused-lowering + arena-planner comparison: DET network at the
 *  bench's 160 input in both precisions, fused+planned (the path the
 *  engines run) vs the unfused allocating reference. */
struct FusionResults
{
    std::size_t layersFused = 0;   ///< activations folded (fp32 DET).
    double detUnfusedMs = 0;       ///< fp32 forward, reference path.
    double detFusedMs = 0;         ///< fp32 forwardArena, lowered.
    double detInt8UnfusedMs = 0;
    double detInt8FusedMs = 0;
    bool bitwiseIdentical = true;  ///< fused == unfused at 1/2/8 thr.
    std::size_t detArenaBytes = 0;  ///< via MetricRegistry gauge.
    std::size_t detArenaValues = 0; ///< via MetricRegistry gauge.
    double allocEventsPerFrame = 0; ///< steady-state tensor allocs.
};

FusionResults
runFusionComparison(int reps)
{
    const int inputSize = 160;
    const auto buildDet = [&](nn::Precision precision) {
        nn::Network net = nn::buildNetwork(
            nn::detectorSpec(inputSize, 0.25,
                             sensors::kNumObjectClasses));
        Rng rng(1);
        nn::initDetectorWeights(net, rng);
        if (precision == nn::Precision::Int8) {
            std::vector<nn::Tensor> samples;
            Rng calRng(0xAD0C0DE5ULL);
            for (int s = 0; s < 2; ++s) {
                nn::Tensor t(1, inputSize, inputSize);
                for (std::size_t i = 0; i < t.size(); ++i)
                    t.data()[i] =
                        static_cast<float>(calRng.uniform());
                samples.push_back(std::move(t));
            }
            nn::quantizeNetwork(net, samples);
        }
        return net;
    };

    nn::Tensor input(1, inputSize, inputSize);
    Rng inRng(23);
    for (std::size_t i = 0; i < input.size(); ++i)
        input.data()[i] = static_cast<float>(inRng.uniform());

    FusionResults res;
    obs::metrics().setEnabled(true);
    for (const nn::Precision precision :
         {nn::Precision::Fp32, nn::Precision::Int8}) {
        nn::Network unfused = buildDet(precision);
        nn::Network fused = buildDet(precision);
        const nn::LoweringReport report =
            nn::lowerNetwork(fused, {1, inputSize, inputSize});
        fused.plan({1, inputSize, inputSize});
        if (precision == nn::Precision::Fp32) {
            res.layersFused = report.fusedActivations;
            res.detArenaBytes = static_cast<std::size_t>(
                obs::metrics().gauge("nn.det-yolo.arena_bytes")
                    .value());
            res.detArenaValues = static_cast<std::size_t>(
                obs::metrics().gauge("nn.det-yolo.arena_values")
                    .value());
        }

        // Bitwise contract at 1, 2 and max threads.
        const nn::Tensor expected = unfused.forward(input);
        for (const int threads : {1, 2, 8}) {
            const nn::KernelContext ctx = nn::kernelContext(threads);
            const nn::Tensor ref = unfused.forward(input, ctx);
            const nn::Tensor& got = fused.forwardArena(input, ctx);
            if (ref.size() != expected.size() ||
                got.size() != expected.size() ||
                std::memcmp(ref.data(), expected.data(),
                            expected.size() * sizeof(float)) != 0 ||
                std::memcmp(got.data(), expected.data(),
                            expected.size() * sizeof(float)) != 0)
                res.bitwiseIdentical = false;
        }

        // Steady-state allocation audit: after one settling frame the
        // planned path must perform zero tensor/scratch allocations.
        (void)fused.forwardArena(input);
        const std::uint64_t allocBefore = nn::allocEventCount();
        const int auditFrames = 5;
        for (int i = 0; i < auditFrames; ++i)
            (void)fused.forwardArena(input);
        res.allocEventsPerFrame +=
            static_cast<double>(nn::allocEventCount() - allocBefore) /
            auditFrames;

        // Interleave the two variants rep-by-rep so background load
        // hits both equally; best-of then cancels transient noise
        // instead of attributing it to whichever phase ran second.
        double unfusedMs = 0;
        double fusedMs = 0;
        for (int r = 0; r < reps * 4; ++r) {
            Stopwatch wu;
            (void)unfused.forward(input);
            const double u = wu.elapsedMs();
            if (r == 0 || u < unfusedMs)
                unfusedMs = u;
            Stopwatch wf;
            (void)fused.forwardArena(input);
            const double f = wf.elapsedMs();
            if (r == 0 || f < fusedMs)
                fusedMs = f;
        }
        if (precision == nn::Precision::Fp32) {
            res.detUnfusedMs = unfusedMs;
            res.detFusedMs = fusedMs;
        } else {
            res.detInt8UnfusedMs = unfusedMs;
            res.detInt8FusedMs = fusedMs;
        }
    }
    std::printf("[fusion] det@%d: fp32 %.2f -> %.2f ms (%.2fx), int8 "
                "%.2f -> %.2f ms (%.2fx); %zu fused, "
                "arena %zu B / %zu values, alloc/frame %.1f, bitwise "
                "%s\n",
                inputSize, res.detUnfusedMs, res.detFusedMs,
                res.detUnfusedMs / res.detFusedMs,
                res.detInt8UnfusedMs, res.detInt8FusedMs,
                res.detInt8UnfusedMs / res.detInt8FusedMs,
                res.layersFused, res.detArenaBytes,
                res.detArenaValues, res.allocEventsPerFrame,
                res.bitwiseIdentical ? "identical" : "DIVERGED");
    return res;
}

struct ServeCell
{
    serve::ServeReport report;
};

ServeCell
runServeCell(nn::Precision precision, int frames, std::uint64_t seed)
{
    const int inputSize = 64;
    const double width = 0.05;
    nn::Network net =
        nn::buildNetwork(nn::detectorSpec(inputSize, width));
    Rng weightRng(7);
    nn::initDetectorWeights(net, weightRng);
    if (precision == nn::Precision::Int8) {
        std::vector<nn::Tensor> samples;
        Rng calRng(seed ^ 0xAD0C0DE5ULL);
        for (int s = 0; s < 2; ++s) {
            nn::Tensor t(1, inputSize, inputSize);
            for (std::size_t i = 0; i < t.size(); ++i)
                t.data()[i] = static_cast<float>(calRng.uniform());
            samples.push_back(std::move(t));
        }
        nn::quantizeNetwork(net, samples);
    }

    serve::ServeParams sp;
    sp.streams = 8;
    sp.seed = seed;
    sp.governor.enabled = true;
    sp.governor.budgetMs = sp.stream.deadlineMs;

    std::vector<nn::Tensor> inputs;
    Rng inputRng(sp.seed);
    for (int s = 0; s < sp.streams; ++s) {
        nn::Tensor t(1, inputSize, inputSize);
        for (std::size_t i = 0; i < t.size(); ++i)
            t.data()[i] = static_cast<float>(inputRng.uniform(0.0, 1.0));
        inputs.push_back(std::move(t));
    }
    serve::NnBatchEngine engine(net, std::move(inputs), 1);
    serve::MultiStreamServer server(sp, engine);
    ServeCell cell;
    cell.report = server.run(frames);
    return cell;
}

void
writeJson(const char* path, const GemmResults& gemm,
          const DeterminismResults& det, const DetResults& detAcc,
          const TraResults& tra, const FusionResults& fusion,
          const ServeCell& serveFp32, const ServeCell& serveInt8,
          int serveFrames, std::uint64_t seed)
{
    std::FILE* f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"quant_accuracy\",\n"
                 "  \"int8_isa\": \"%s\",\n"
                 "  \"seed\": %llu,\n",
                 nn::int8KernelIsa(),
                 static_cast<unsigned long long>(seed));
    std::fprintf(f, "  \"gemm\": {\"m\": 512, \"n\": 512, \"k\": 512, "
                    "\"serial_speedup\": %.2f, \"rows\": [",
                 gemm.serialSpeedup);
    for (std::size_t i = 0; i < gemm.rows.size(); ++i)
        std::fprintf(f,
                     "%s\n    {\"threads\": %d, \"fp32_ms\": %.3f, "
                     "\"int8_ms\": %.3f, \"speedup\": %.2f}",
                     i ? "," : "", gemm.rows[i].threads,
                     gemm.rows[i].fp32Ms, gemm.rows[i].int8Ms,
                     gemm.rows[i].fp32Ms / gemm.rows[i].int8Ms);
    std::fprintf(f, "\n  ]},\n");
    std::fprintf(
        f,
        "  \"determinism\": {\"thread_counts\": [1, 2, 8], "
        "\"gemm_checksum\": \"%016llx\", "
        "\"gemm_bitwise_identical\": %s, "
        "\"det_boxes_identical\": %s},\n",
        static_cast<unsigned long long>(det.gemmChecksums[0]),
        det.gemmIdentical ? "true" : "false",
        det.detIdentical ? "true" : "false");
    std::fprintf(
        f,
        "  \"det\": {\"frames\": %d, \"fp32_detections\": %d, "
        "\"int8_detections\": %d, \"mean_match_iou\": %.4f, "
        "\"iou_degradation\": %.4f, \"fp32_truth_iou\": %.4f, "
        "\"int8_truth_iou\": %.4f, \"fp32_dnn_ms\": %.3f, "
        "\"int8_dnn_ms\": %.3f, \"dnn_speedup\": %.2f},\n",
        detAcc.frames, detAcc.fp32Dets, detAcc.int8Dets,
        detAcc.meanMatchIou, 1.0 - detAcc.meanMatchIou,
        detAcc.fp32TruthIou, detAcc.int8TruthIou, detAcc.fp32DnnMs,
        detAcc.int8DnnMs, detAcc.fp32DnnMs / detAcc.int8DnnMs);
    std::fprintf(
        f,
        "  \"tra\": {\"steps\": %d, \"mean_center_error_px\": %.3f, "
        "\"fp32_dnn_ms\": %.3f, \"int8_dnn_ms\": %.3f, "
        "\"dnn_speedup\": %.2f},\n",
        tra.steps, tra.meanCenterErrorPx, tra.fp32DnnMs, tra.int8DnnMs,
        tra.fp32DnnMs / tra.int8DnnMs);
    std::fprintf(
        f,
        "  \"fusion\": {\"det_input\": 160, \"layers_fused\": %zu,\n"
        "    \"det_unfused_ms\": %.3f, \"det_fused_ms\": %.3f, "
        "\"det_speedup\": %.3f,\n"
        "    \"det_int8_unfused_ms\": %.3f, \"det_int8_fused_ms\": "
        "%.3f, \"det_int8_speedup\": %.3f,\n"
        "    \"bitwise_identical\": %s,\n"
        "    \"arena\": {\"det_arena_bytes\": %zu, "
        "\"det_arena_values\": %zu, \"alloc_events_per_frame\": "
        "%.1f}},\n",
        fusion.layersFused, fusion.detUnfusedMs,
        fusion.detFusedMs, fusion.detUnfusedMs / fusion.detFusedMs,
        fusion.detInt8UnfusedMs, fusion.detInt8FusedMs,
        fusion.detInt8UnfusedMs / fusion.detInt8FusedMs,
        fusion.bitwiseIdentical ? "true" : "false",
        fusion.detArenaBytes, fusion.detArenaValues,
        fusion.allocEventsPerFrame);
    const auto serveJson = [&](const char* name, const ServeCell& c) {
        const auto& r = c.report;
        std::fprintf(f,
                     "    \"%s\": {\"admitted\": %lld, "
                     "\"p99_ms\": %.3f, \"p9999_ms\": %.3f, "
                     "\"goodput_fps\": %.3f, \"shed_rate\": %.6f, "
                     "\"mean_batch_size\": %.3f}",
                     name, static_cast<long long>(r.framesAdmitted),
                     r.admittedLatency.p99, r.admittedLatency.p9999,
                     r.goodputFps, r.shedRate, r.meanBatchSize);
    };
    std::fprintf(f, "  \"serve\": {\"streams\": 8, "
                    "\"frames_per_stream\": %d, \"engine\": "
                    "\"measured\",\n",
                 serveFrames);
    serveJson("fp32", serveFp32);
    std::fprintf(f, ",\n");
    serveJson("int8", serveInt8);
    std::fprintf(f, ",\n    \"goodput_ratio\": %.3f\n  }\n}\n",
                 serveInt8.report.goodputFps /
                     std::max(1e-9, serveFp32.report.goodputFps));
    std::fclose(f);
    char resolved[4096];
    if (path[0] != '/' && ::realpath(path, resolved))
        std::printf("wrote quant sweep to %s\n", resolved);
    else
        std::printf("wrote quant sweep to %s\n", path);
}

} // namespace

int
main(int argc, char** argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    const std::uint64_t seed =
        static_cast<std::uint64_t>(cfg.getInt("seed", 1));
    const int serveFrames = cfg.getInt("serve-frames", 100);
    const int reps = cfg.getInt("reps", 5);
    const std::string jsonPath =
        cfg.getString("quant-json", "BENCH_quant.json");
    cfg.warnUnreadKeys();

    bench::printHeader(
        "Quantized inference sweep (extension)",
        "int8 vs fp32: kernel speedup, DET/TRA accuracy, serving "
        "goodput, determinism");

    const GemmResults gemm = runGemmSweep(reps);

    sensors::Camera camera(sensors::Resolution::HHD);
    const auto frames = renderScenes(camera);
    const DetResults detAcc = runDetComparison(frames);
    const TraResults tra = runTraComparison(camera);
    const DeterminismResults det = runDeterminism(frames[0]);
    const FusionResults fusion = runFusionComparison(reps);

    std::printf("[serve] measured NnBatchEngine, 8 streams, %d frames "
                "per stream\n",
                serveFrames);
    const ServeCell serveFp32 =
        runServeCell(nn::Precision::Fp32, serveFrames, seed);
    const ServeCell serveInt8 =
        runServeCell(nn::Precision::Int8, serveFrames, seed);
    std::printf("  fp32: goodput %.2f fps, admitted p99.99 %.2f ms\n",
                serveFp32.report.goodputFps,
                serveFp32.report.admittedLatency.p9999);
    std::printf("  int8: goodput %.2f fps, admitted p99.99 %.2f ms\n",
                serveInt8.report.goodputFps,
                serveInt8.report.admittedLatency.p9999);

    writeJson(jsonPath.c_str(), gemm, det, detAcc, tra, fusion,
              serveFp32, serveInt8, serveFrames, seed);

    // The acceptance bars this artifact backs; fail loudly when a
    // regression breaks them so CI surfaces it.
    bool ok = true;
    if (gemm.serialSpeedup < 1.8) {
        std::fprintf(stderr,
                     "FAIL: int8 GEMM speedup %.2fx < 1.8x at 512^3\n",
                     gemm.serialSpeedup);
        ok = false;
    }
    if (1.0 - detAcc.meanMatchIou > 0.02) {
        std::fprintf(stderr,
                     "FAIL: DET IoU degradation %.2f%% > 2%%\n",
                     100.0 * (1.0 - detAcc.meanMatchIou));
        ok = false;
    }
    if (!det.gemmIdentical || !det.detIdentical) {
        std::fprintf(stderr, "FAIL: int8 path not deterministic\n");
        ok = false;
    }
    if (!fusion.bitwiseIdentical) {
        std::fprintf(stderr,
                     "FAIL: fused path diverged from unfused\n");
        ok = false;
    }
    if (fusion.detFusedMs > fusion.detUnfusedMs) {
        std::fprintf(stderr,
                     "FAIL: fused DET forward %.2f ms slower than "
                     "unfused %.2f ms\n",
                     fusion.detFusedMs, fusion.detUnfusedMs);
        ok = false;
    }
    if (fusion.allocEventsPerFrame != 0) {
        std::fprintf(stderr,
                     "FAIL: fused+arena path allocated %.1f "
                     "tensors/frame in steady state\n",
                     fusion.allocEventsPerFrame);
        ok = false;
    }
    return ok ? 0 : 1;
}
