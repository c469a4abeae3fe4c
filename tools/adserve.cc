/**
 * @file
 * adserve -- multi-stream serving-layer runner. Plays N vehicle
 * streams through the ad_serve stack (bounded ingestion queues,
 * deadline-aware admission control, cross-stream batched inference)
 * and reports per-run serving outcomes: admitted-stream latency
 * quantiles, goodput, shed rate, batching efficiency and governor
 * mode residency.
 *
 * Usage:
 *   adserve [--streams=8] [--frames=200] [--period-ms=100]
 *           [--deadline-ms=100] [--queue-depth=1]
 *           [--batch-max=8] [--window-ms=6] [--admission=1]
 *           [--stagger=1] [--seed=29]
 *           [--engine.fixed-ms=8] [--engine.marginal-ms=9]
 *           [--measured] [--det-input=64] [--det-width=0.05]
 *           [--nn.threads=0] [--nn.precision=fp32|int8]
 *           [--serve-json=out.json] [--summary]
 *           [--metrics] [--trace <file>] [--metrics-json=live.json]
 *           [--flight-dump[=file]] [--slo.window=2048]
 *           [--slo.target-miss-rate=1e-4]
 *
 * Every run keeps per-stream SLO accounts (rolling-window
 * p50/p99/p99.9, miss-budget burn rate, goodput ratio) that land in
 * the JSON report's "slo" array, the per-stream metric gauges and
 * the admission controller's slack estimate. The flight recorder
 * keeps one bounded ring per stream and dumps a post-mortem on
 * deadline miss or SAFE_STOP (see docs/TRACING.md).
 *
 * The default engine is the seeded cost model (bit-reproducible,
 * sweeps in milliseconds). --measured swaps in NnBatchEngine: real
 * Network::forwardBatch calls over the shared ThreadPool, timed with
 * a wall clock -- the serving policies under genuine multithreaded
 * kernels. The measured network always runs through the lowering
 * pass (fused conv+activation epilogues, nn/fusion.hh), so its
 * outputs are those of the unfused network bit for bit.
 * --nn.precision=int8 additionally lowers the measured
 * network to the quantized kernel path (nn/quant.hh) after a seeded
 * calibration pass -- the serving-layer configuration the
 * bench_ext_quant_accuracy goodput comparison runs.
 *
 * --serve-json writes the run report as JSON (ServeReport::toJson).
 * Every run checks the report's invariants (ServeReport::violations:
 * frame conservation, one SLO entry per stream, ...) and exits 1,
 * printing each violation, when one is broken.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/logging.hh"
#include "nn/fusion.hh"
#include "nn/kernel_context.hh"
#include "nn/models.hh"
#include "nn/quant.hh"
#include "nn/tensor.hh"
#include "obs/json.hh"
#include "obs/obs.hh"
#include "serve/serve.hh"

int
main(int argc, char** argv)
{
    using namespace ad;
    const Config cfg = Config::fromArgs(argc, argv);
    const obs::ObsOptions obsOpt = obs::setupFromConfig(cfg);
    const std::int64_t frames = cfg.getInt("frames", 200);

    serve::ServeParams sp = serve::ServeParams::fromConfig(cfg);
    sp.streams = cfg.getInt("streams", sp.streams);
    sp.stream.framePeriodMs =
        cfg.getDouble("period-ms", sp.stream.framePeriodMs);
    sp.stagger = cfg.getBool("stagger", sp.stagger);

    // Both engines' knobs are read whichever engine runs, so the keys
    // adserve accepts do not depend on --measured.
    const bool measured = cfg.getBool("measured", false);
    serve::ModeledEngineParams ep =
        serve::ModeledEngineParams::fromConfig(cfg);
    ep.seed = sp.seed * 2654435761u + 1;
    const int inputSize = cfg.getInt("det-input", 64);
    const double width = cfg.getDouble("det-width", 0.05);
    const nn::Precision precision =
        nn::parsePrecision(cfg.getString("nn.precision", "fp32"));
    const int threads =
        nn::resolveKernelThreads(cfg.getInt("nn.threads", 0));
    const bool summary = cfg.getBool("summary", false);
    const std::string jsonPath = cfg.getString("serve-json");
    cfg.warnUnreadKeys();

    serve::ServeReport report;
    if (measured) {
        nn::Network net = nn::buildNetwork(
            nn::detectorSpec(inputSize, width));
        Rng weightRng(7);
        nn::initDetectorWeights(net, weightRng);
        if (precision == nn::Precision::Int8) {
            // Seeded calibration at the same input distribution the
            // engine will serve (uniform [0, 1] frames).
            std::vector<nn::Tensor> samples;
            Rng calRng(sp.seed ^ 0xAD0C0DE5ULL);
            for (int s = 0; s < 2; ++s) {
                nn::Tensor t(1, inputSize, inputSize);
                for (std::size_t i = 0; i < t.size(); ++i)
                    t.data()[i] =
                        static_cast<float>(calRng.uniform());
                samples.push_back(std::move(t));
            }
            nn::quantizeNetwork(net, samples);
        }
        // Graph lowering only: the batched engine runs forwardBatch,
        // which has no single-caller arena to plan.
        nn::lowerNetwork(net, {1, inputSize, inputSize});
        // One distinct input per stream so batching order is visible
        // to the checksum.
        std::vector<nn::Tensor> inputs;
        Rng inputRng(sp.seed);
        for (int s = 0; s < sp.streams; ++s) {
            nn::Tensor t(1, inputSize, inputSize);
            for (std::size_t i = 0; i < t.size(); ++i)
                t.data()[i] =
                    static_cast<float>(inputRng.uniform(0.0, 1.0));
            inputs.push_back(std::move(t));
        }
        serve::NnBatchEngine engine(net, std::move(inputs), threads);
        serve::MultiStreamServer server(sp, engine);
        report = server.run(frames);
        std::fprintf(stderr, "output checksum: %a\n",
                     engine.outputChecksum());
    } else {
        serve::ModeledBatchEngine engine(ep);
        serve::MultiStreamServer server(sp, engine);
        report = server.run(frames);
    }

    if (summary || obsOpt.any())
        std::fprintf(stderr, "%s", report.toString().c_str());

    if (!jsonPath.empty()) {
        std::ofstream out(jsonPath);
        if (!(out << obs::json::dump(report.toJson())))
            fatal("cannot write '", jsonPath, "'");
        std::fprintf(stderr, "serve report: %s\n", jsonPath.c_str());
    }

    obs::finish(obsOpt, report.durationMs);
    const std::vector<std::string> violations = report.violations();
    for (const std::string& v : violations)
        std::fprintf(stderr, "adserve: report violation: %s\n",
                     v.c_str());
    return violations.empty() ? 0 : 1;
}
