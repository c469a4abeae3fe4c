/**
 * @file
 * Microbenchmarks (google-benchmark) for the hot kernels underneath
 * the pipeline engines: GEMM and convolution (the DNN engine; the
 * BM_DetConv/<layer> set times DET's 15 convolutions), oFAST
 * detection, pyramid resize, box smoothing and rBRIEF description
 * (feature extraction), Hamming distance and descriptor matching, NMS,
 * and the two motion planners. These quantify where measured-mode
 * cycles go and guard against performance regressions.
 *
 * On top of the google-benchmark suite, main() runs a fixed GEMM
 * scaling sweep (seed blocked kernel vs tiled kernel at 1/2/4/8
 * threads) and records it to BENCH_gemm.json (override the location
 * with --gemm-json=PATH), the artifact backing the
 * parallel-kernel-layer speedup claim in DESIGN.md. The sweep also
 * times the int8 GEMM (nn/gemm_int8.hh) at the same shape and thread
 * counts and records the int8-vs-fp32-packed speedup alongside. The
 * resolved output path is printed when the sweep completes.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "common/random.hh"
#include "common/time.hh"
#include "detect/yolo.hh"
#include "nn/gemm.hh"
#include "nn/gemm_int8.hh"
#include "nn/fusion.hh"
#include "nn/layers.hh"
#include "nn/models.hh"
#include "nn/quant.hh"
#include "nn/sparse.hh"
#include "planning/conformal.hh"
#include "planning/lattice.hh"
#include "sensors/world.hh"
#include "vision/orb.hh"
#include "vision/spatial_matcher.hh"

namespace {

using namespace ad;

void
BM_Gemm(benchmark::State& state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(1);
    std::vector<float> a(n * n);
    std::vector<float> b(n * n);
    std::vector<float> c(n * n, 0.0f);
    for (auto& v : a)
        v = static_cast<float>(rng.uniform(-1, 1));
    for (auto& v : b)
        v = static_cast<float>(rng.uniform(-1, 1));
    for (auto _ : state) {
        nn::gemm(n, n, n, a.data(), b.data(), c.data());
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void
BM_GemmBlockedReference(benchmark::State& state)
{
    // The seed (pre-packing) kernel, kept as the speedup baseline.
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(1);
    std::vector<float> a(n * n);
    std::vector<float> b(n * n);
    std::vector<float> c(n * n, 0.0f);
    for (auto& v : a)
        v = static_cast<float>(rng.uniform(-1, 1));
    for (auto& v : b)
        v = static_cast<float>(rng.uniform(-1, 1));
    for (auto _ : state) {
        nn::gemmBlockedReference(n, n, n, a.data(), b.data(), c.data());
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmBlockedReference)->Arg(64)->Arg(128)->Arg(256);

void
BM_GemmParallel(benchmark::State& state)
{
    // The packed kernel sharded over the pool: range(0) = matrix
    // order, range(1) = nn.threads.
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const int threads = static_cast<int>(state.range(1));
    const nn::KernelContext ctx = nn::kernelContext(threads);
    Rng rng(1);
    std::vector<float> a(n * n);
    std::vector<float> b(n * n);
    std::vector<float> c(n * n, 0.0f);
    for (auto& v : a)
        v = static_cast<float>(rng.uniform(-1, 1));
    for (auto& v : b)
        v = static_cast<float>(rng.uniform(-1, 1));
    for (auto _ : state) {
        nn::gemm(n, n, n, a.data(), b.data(), c.data(), ctx);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
    state.counters["threads"] = threads;
}
BENCHMARK(BM_GemmParallel)
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->Args({256, 8})
    ->Args({512, 1})
    ->Args({512, 2})
    ->Args({512, 4})
    ->Args({512, 8});

void
BM_GemmInt8(benchmark::State& state)
{
    // The quantized kernel at the fp32-packed shapes: A pre-widened
    // to int16 (the layer does this once for static weights), B int8.
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(1);
    std::vector<std::int16_t> a(n * n);
    std::vector<std::int8_t> b(n * n);
    std::vector<std::int32_t> c(n * n, 0);
    for (auto& v : a)
        v = static_cast<std::int16_t>(rng.uniformInt(-127, 127));
    for (auto& v : b)
        v = static_cast<std::int8_t>(rng.uniformInt(-127, 127));
    for (auto _ : state) {
        nn::gemmInt8(n, n, n, a.data(), b.data(), c.data());
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
    state.SetLabel(nn::int8KernelIsa());
}
BENCHMARK(BM_GemmInt8)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void
BM_QuantConv2D(benchmark::State& state)
{
    // fp32 Conv2D vs its quantized replacement at the same shape
    // (compare against BM_Conv2D at the same channel count).
    const int channels = static_cast<int>(state.range(0));
    nn::Conv2D conv("bench", channels, channels, 3, 1, 1);
    Rng rng(2);
    for (auto& w : conv.weights())
        w = static_cast<float>(rng.uniform(-0.1, 0.1));
    nn::Tensor in(channels, 56, 56);
    for (std::size_t i = 0; i < in.size(); ++i)
        in.data()[i] = static_cast<float>(rng.uniform(0, 1));
    const nn::QuantConv2D qconv(conv, nn::quantizeScale(1.0f));
    for (auto _ : state) {
        nn::Tensor out = qconv.forward(in);
        benchmark::DoNotOptimize(out.data());
    }
    const auto p = conv.profile({channels, 56, 56});
    state.SetItemsProcessed(state.iterations() * p.flops);
}
BENCHMARK(BM_QuantConv2D)->Arg(16)->Arg(64);

void
BM_Conv2D(benchmark::State& state)
{
    const int channels = static_cast<int>(state.range(0));
    nn::Conv2D conv("bench", channels, channels, 3, 1, 1);
    Rng rng(2);
    for (auto& w : conv.weights())
        w = static_cast<float>(rng.uniform(-0.1, 0.1));
    nn::Tensor in(channels, 56, 56);
    for (auto _ : state) {
        nn::Tensor out = conv.forward(in);
        benchmark::DoNotOptimize(out.data());
    }
    const auto p = conv.profile({channels, 56, 56});
    state.SetItemsProcessed(state.iterations() * p.flops);
}
BENCHMARK(BM_Conv2D)->Arg(16)->Arg(64);

void
BM_Conv2DThenActivation(benchmark::State& state)
{
    // The unfused baseline for BM_Conv2DFusedActivation: Conv2D
    // forward materializes an intermediate, then a standalone
    // Activation layer makes a second pass over it.
    const int channels = static_cast<int>(state.range(0));
    nn::Conv2D conv("bench", channels, channels, 3, 1, 1);
    nn::Activation act("act", 0.1f);
    Rng rng(2);
    for (auto& w : conv.weights())
        w = static_cast<float>(rng.uniform(-0.1, 0.1));
    nn::Tensor in(channels, 56, 56);
    for (std::size_t i = 0; i < in.size(); ++i)
        in.data()[i] = static_cast<float>(rng.uniform(-1, 1));
    for (auto _ : state) {
        nn::Tensor mid = conv.forward(in);
        nn::Tensor out = act.forward(mid);
        benchmark::DoNotOptimize(out.data());
    }
    const auto p = conv.profile({channels, 56, 56});
    state.SetItemsProcessed(state.iterations() * p.flops);
}
BENCHMARK(BM_Conv2DThenActivation)->Arg(16)->Arg(64);

void
BM_Conv2DFusedActivation(benchmark::State& state)
{
    // The lowering pass's fused form: LeakyReLU folded into the conv
    // epilogue, no intermediate tensor and no second memory pass.
    const int channels = static_cast<int>(state.range(0));
    nn::Conv2D conv("bench", channels, channels, 3, 1, 1);
    conv.fuseActivation(0.1f);
    Rng rng(2);
    for (auto& w : conv.weights())
        w = static_cast<float>(rng.uniform(-0.1, 0.1));
    nn::Tensor in(channels, 56, 56);
    for (std::size_t i = 0; i < in.size(); ++i)
        in.data()[i] = static_cast<float>(rng.uniform(-1, 1));
    for (auto _ : state) {
        nn::Tensor out = conv.forward(in);
        benchmark::DoNotOptimize(out.data());
    }
    const auto p = conv.profile({channels, 56, 56});
    state.SetItemsProcessed(state.iterations() * p.flops);
}
BENCHMARK(BM_Conv2DFusedActivation)->Arg(16)->Arg(64);

void
BM_DetectorForward(benchmark::State& state)
{
    detect::DetectorParams dp;
    dp.inputSize = static_cast<int>(state.range(0));
    dp.width = 0.25;
    detect::YoloDetector detector(dp);
    Image frame(640, 360, 80);
    frame.fillRect(BBox(280, 160, 60, 40), 230);
    for (auto _ : state) {
        auto dets = detector.detect(frame);
        benchmark::DoNotOptimize(dets.data());
    }
}
BENCHMARK(BM_DetectorForward)->Arg(128)->Arg(224);

void
BM_FastDetect(benchmark::State& state)
{
    Rng rng(3);
    Image img(static_cast<int>(state.range(0)),
              static_cast<int>(state.range(0)) * 9 / 16, 80);
    for (int y = 0; y < img.height(); ++y)
        for (int x = 0; x < img.width(); ++x)
            img.at(x, y) = static_cast<std::uint8_t>(
                80 + rng.uniformInt(-20, 20));
    vision::FastParams params;
    for (auto _ : state) {
        auto kps = vision::detectFast(img, params);
        benchmark::DoNotOptimize(kps.data());
    }
    state.SetItemsProcessed(state.iterations() * img.size());
}
BENCHMARK(BM_FastDetect)->Arg(640)->Arg(1280);

void
BM_OrbExtract(benchmark::State& state)
{
    Rng rng(4);
    Image img(640, 360, 80);
    for (int i = 0; i < 300; ++i)
        img.fillRect(BBox(rng.uniform(0, 600), rng.uniform(0, 330),
                          rng.uniform(4, 30), rng.uniform(4, 30)),
                     static_cast<std::uint8_t>(rng.uniformInt(40, 200)));
    vision::OrbExtractor orb;
    for (auto _ : state) {
        auto features = orb.extract(img);
        benchmark::DoNotOptimize(features.data());
    }
}
BENCHMARK(BM_OrbExtract);

/** A width x height image of uniform random bytes. */
Image
randomImage(Rng& rng, int width, int height)
{
    Image img(width, height);
    for (int y = 0; y < height; ++y)
        for (int x = 0; x < width; ++x)
            img.at(x, y) = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
    return img;
}

void
BM_ImageResize(benchmark::State& state)
{
    // One ORB pyramid step (1 / 1.2) from an HHD frame.
    Rng rng(6);
    const Image img = randomImage(rng, 640, 360);
    const int w = static_cast<int>(state.range(0));
    const int h = w * 9 / 16;
    for (auto _ : state) {
        Image out = img.resized(w, h);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * w * h);
}
BENCHMARK(BM_ImageResize)->Arg(533)->Arg(160);

void
BM_BoxFilter(benchmark::State& state)
{
    // ORB's pre-descriptor smoothing (radius 2) of an HHD frame.
    Rng rng(7);
    const Image img = randomImage(rng, 640, 360);
    const int radius = static_cast<int>(state.range(0));
    for (auto _ : state) {
        Image out = img.boxFiltered(radius);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * img.size());
}
BENCHMARK(BM_BoxFilter)->Arg(2)->Arg(4);

void
BM_Hamming(benchmark::State& state)
{
    // All pairs of n random descriptors.
    Rng rng(8);
    std::vector<vision::Descriptor> descs(
        static_cast<std::size_t>(state.range(0)));
    for (auto& d : descs)
        for (auto& word : d.words)
            word = rng();
    for (auto _ : state) {
        int total = 0;
        for (const auto& a : descs)
            for (const auto& b : descs)
                total += a.hamming(b);
        benchmark::DoNotOptimize(total);
    }
    state.SetItemsProcessed(state.iterations() * descs.size() *
                            descs.size());
}
BENCHMARK(BM_Hamming)->Arg(64);

void
BM_DescriptorMatch(benchmark::State& state)
{
    Rng rng(5);
    const auto makeDescs = [&rng](int n) {
        std::vector<vision::Descriptor> d(n);
        for (auto& desc : d)
            for (auto& word : desc.words)
                word = rng();
        return d;
    };
    const auto a = makeDescs(static_cast<int>(state.range(0)));
    const auto b = makeDescs(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        auto matches = vision::matchDescriptors(a, b, 80, 0.9);
        benchmark::DoNotOptimize(matches.data());
    }
    state.SetItemsProcessed(state.iterations() * a.size() * b.size());
}
BENCHMARK(BM_DescriptorMatch)->Arg(256)->Arg(1024);

void
BM_SpatialVsBruteMatch(benchmark::State& state)
{
    // The projection-guided matcher's speed advantage over brute
    // force at localization-scale candidate counts.
    Rng rng(15);
    const int n = static_cast<int>(state.range(0));
    std::vector<vision::Feature> features;
    std::vector<vision::ProjectedCandidate> candidates;
    for (int i = 0; i < n; ++i) {
        vision::Feature f;
        f.kp.x = static_cast<float>(rng.uniform(0, 1240));
        f.kp.y = static_cast<float>(rng.uniform(0, 370));
        for (auto& w : f.desc.words)
            w = rng();
        features.push_back(f);
        vision::ProjectedCandidate c;
        c.u = f.kp.x + static_cast<float>(rng.uniform(-10, 10));
        c.v = f.kp.y + static_cast<float>(rng.uniform(-10, 10));
        c.desc = f.desc;
        candidates.push_back(c);
    }
    const vision::SpatialMatcher matcher(features, 1242, 375);
    for (auto _ : state) {
        auto matches = matcher.match(candidates);
        benchmark::DoNotOptimize(matches.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SpatialVsBruteMatch)->Arg(256)->Arg(1024);

void
BM_SparseVsDenseFc(benchmark::State& state)
{
    Rng rng(16);
    nn::FullyConnected dense("fc", 2048, 1024);
    for (auto& w : dense.weights())
        w = static_cast<float>(rng.normal(0.0, 0.02));
    const float threshold = static_cast<float>(state.range(0)) / 1000.0f;
    const nn::SparseFullyConnected sparse("s", dense, threshold);
    nn::Tensor x(2048, 1, 1);
    for (std::size_t i = 0; i < x.size(); ++i)
        x.data()[i] = static_cast<float>(rng.uniform(0, 1));
    for (auto _ : state) {
        nn::Tensor y = sparse.forward(x);
        benchmark::DoNotOptimize(y.data());
    }
    state.counters["density"] = sparse.density();
}
BENCHMARK(BM_SparseVsDenseFc)->Arg(0)->Arg(20)->Arg(40);

void
BM_Nms(benchmark::State& state)
{
    Rng rng(6);
    std::vector<detect::Detection> dets(state.range(0));
    for (auto& d : dets) {
        d.box = BBox(rng.uniform(0, 600), rng.uniform(0, 300), 40, 30);
        d.confidence = rng.uniform(0.1, 1.0);
    }
    for (auto _ : state) {
        auto kept = detect::nonMaxSuppression(dets, 0.5);
        benchmark::DoNotOptimize(kept.data());
    }
}
BENCHMARK(BM_Nms)->Arg(64)->Arg(512);

void
BM_ConformalPlan(benchmark::State& state)
{
    std::vector<planning::PredictedObstacle> obstacles;
    Rng rng(7);
    for (int i = 0; i < state.range(0); ++i)
        obstacles.push_back({{rng.uniform(5, 60), rng.uniform(0, 10)},
                             {rng.uniform(-5, 5), 0},
                             1.5});
    const Pose2 start(0, 5.25, 0);
    for (auto _ : state) {
        auto traj = planning::planConformal(start, 5.25, obstacles);
        benchmark::DoNotOptimize(traj.points.data());
    }
}
BENCHMARK(BM_ConformalPlan)->Arg(0)->Arg(8)->Arg(32);

void
BM_LatticePlan(benchmark::State& state)
{
    std::vector<planning::Obstacle> obstacles;
    Rng rng(8);
    for (int i = 0; i < state.range(0); ++i)
        obstacles.push_back({{rng.uniform(5, 35), rng.uniform(-15, 15)},
                             1.0});
    for (auto _ : state) {
        auto traj = planning::planLattice(Pose2(0, 0, 0), {40, 0},
                                          obstacles);
        benchmark::DoNotOptimize(traj.points.data());
    }
}
BENCHMARK(BM_LatticePlan)->Arg(0)->Arg(20);

void
runGemmScalingSweep(const char* path)
{
    constexpr std::size_t n = 512;
    constexpr int reps = 3;
    Rng rng(1);
    std::vector<float> a(n * n);
    std::vector<float> b(n * n);
    std::vector<float> c(n * n);
    for (auto& v : a)
        v = static_cast<float>(rng.uniform(-1, 1));
    for (auto& v : b)
        v = static_cast<float>(rng.uniform(-1, 1));
    std::vector<std::int16_t> qa(n * n);
    std::vector<std::int8_t> qb(n * n);
    std::vector<std::int32_t> qc(n * n);
    for (auto& v : qa)
        v = static_cast<std::int16_t>(rng.uniformInt(-127, 127));
    for (auto& v : qb)
        v = static_cast<std::int8_t>(rng.uniformInt(-127, 127));

    const auto bestOf = [&](const std::function<void()>& fn) {
        double best = 0;
        for (int r = 0; r < reps; ++r) {
            std::fill(c.begin(), c.end(), 0.0f);
            Stopwatch watch;
            fn();
            const double ms = watch.elapsedMs();
            if (r == 0 || ms < best)
                best = ms;
        }
        return best;
    };

    const double baselineMs = bestOf([&] {
        nn::gemmBlockedReference(n, n, n, a.data(), b.data(), c.data());
    });

    std::FILE* f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return;
    }
    std::fprintf(f, "{\n  \"kernel\": \"sgemm\",\n");
    std::fprintf(f, "  \"m\": %zu, \"n\": %zu, \"k\": %zu,\n", n, n, n);
    std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"baseline\": \"gemmBlockedReference\",\n");
    std::fprintf(f, "  \"baseline_ms\": %.3f,\n", baselineMs);
    std::fprintf(f, "  \"results\": [\n");
    const int threadCounts[] = {1, 2, 4, 8};
    double fp32SerialMs = 0;
    bool first = true;
    for (const int threads : threadCounts) {
        const nn::KernelContext ctx = nn::kernelContext(threads);
        const double ms = bestOf([&] {
            nn::gemm(n, n, n, a.data(), b.data(), c.data(), ctx);
        });
        if (threads == 1)
            fp32SerialMs = ms;
        if (!first)
            std::fprintf(f, ",\n");
        first = false;
        std::fprintf(f,
                     "    {\"threads\": %d, \"ms\": %.3f, "
                     "\"speedup_vs_baseline\": %.2f}",
                     threads, ms, baselineMs / ms);
        std::printf("gemm %zux%zux%zu threads=%d: %.3f ms "
                    "(%.2fx vs seed kernel)\n",
                    n, n, n, threads, ms, baselineMs / ms);
    }
    std::fprintf(f, "\n  ],\n");

    // The quantized kernel at the same shape: speedups are quoted
    // against the fp32 packed serial kernel (the production fp32
    // path), not the seed baseline.
    std::fprintf(f, "  \"int8_isa\": \"%s\",\n", nn::int8KernelIsa());
    std::fprintf(f, "  \"int8_results\": [\n");
    first = true;
    for (const int threads : threadCounts) {
        const nn::KernelContext ctx = nn::kernelContext(threads);
        const double ms = bestOf([&] {
            nn::gemmInt8(n, n, n, qa.data(), qb.data(), qc.data(), ctx);
        });
        if (!first)
            std::fprintf(f, ",\n");
        first = false;
        std::fprintf(f,
                     "    {\"threads\": %d, \"ms\": %.3f, "
                     "\"speedup_vs_fp32_packed\": %.2f}",
                     threads, ms, fp32SerialMs / ms);
        std::printf("gemm-int8 %zux%zux%zu threads=%d: %.3f ms "
                    "(%.2fx vs fp32 packed serial, isa=%s)\n",
                    n, n, n, threads, ms, fp32SerialMs / ms,
                    nn::int8KernelIsa());
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    char resolved[4096];
    if (path[0] != '/' && ::realpath(path, resolved))
        std::printf("wrote gemm scaling sweep to %s\n", resolved);
    else
        std::printf("wrote gemm scaling sweep to %s\n", path);
}

/**
 * DET's 15 convolutions at their real shapes: detectorSpec(160, 0.25)
 * lowered as the engine runs it (activations fused), one benchmark per
 * layer named BM_DetConv/<layer> and labelled with the ISA tier. Items
 * are FLOPs, so items_per_second reads as FLOP/s. No pass/fail bar:
 * the per-layer times feed the kernel ledger.
 */
void
registerDetConvBenchmarks()
{
    const int inputSize = 160;
    auto net = std::make_shared<nn::Network>(nn::buildNetwork(
        nn::detectorSpec(inputSize, 0.25, sensors::kNumObjectClasses)));
    Rng rng(1);
    nn::initDetectorWeights(*net, rng);
    nn::Shape shape{1, inputSize, inputSize};
    nn::lowerNetwork(*net, shape);
    for (std::size_t i = 0; i < net->layerCount(); ++i) {
        const nn::Layer* layer = &net->layer(i);
        const nn::Shape in = shape;
        shape = layer->outputShape(in);
        if (layer->kind() != nn::LayerKind::Conv)
            continue;
        const std::string name = "BM_DetConv/" + layer->name();
        benchmark::RegisterBenchmark(
            name.c_str(), [net, layer, in](benchmark::State& state) {
                const nn::Shape out = layer->outputShape(in);
                nn::Tensor x(in.c, in.h, in.w);
                nn::Tensor y(out.c, out.h, out.w);
                Rng values(2);
                for (std::size_t j = 0; j < x.size(); ++j)
                    x.data()[j] = static_cast<float>(values.uniform(-1, 1));
                nn::ForwardScratch scratch;
                for (auto _ : state) {
                    layer->forwardInto(x.data(), in, y.data(), scratch,
                                       nn::KernelContext::serial());
                    benchmark::DoNotOptimize(y.data());
                }
                state.SetItemsProcessed(state.iterations() *
                                        layer->profile(in).flops);
                state.SetLabel(nn::int8KernelIsa());
            });
    }
}

} // namespace

int
main(int argc, char** argv)
{
    // --gemm-json=PATH redirects the scaling artifact away from the
    // CWD; it is ours, not google-benchmark's, so strip it from argv
    // before benchmark::Initialize sees (and rejects) it.
    std::string gemmJsonPath = "BENCH_gemm.json";
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--gemm-json=", 0) == 0)
            gemmJsonPath = arg.substr(12);
        else
            argv[kept++] = argv[i];
    }
    argc = kept;
    argv[argc] = nullptr;

    // The JSON sweep runs first so the scaling artifact is produced
    // even when --benchmark_filter excludes the GEMM benches.
    runGemmScalingSweep(gemmJsonPath.c_str());
    registerDetConvBenchmarks();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
