/**
 * @file
 * Extension bench: serving-layer scale sweep. How many vehicle
 * streams can one machine serve while keeping every *admitted*
 * stream inside the paper's per-vehicle constraint (p99.99 <= 100 ms,
 * Section 2.4.2)?
 *
 * Sweeps stream count x batching window over the modeled batch
 * engine (seeded cost model: fixed + marginal per work unit,
 * lognormal jitter, rare contention spikes), comparing:
 *
 *  - "served": cross-stream batching + deadline-aware admission
 *    control + most-slack-first degradation (the ad_serve stack); and
 *  - "baseline": per-stream serial inference, no admission control
 *    (batch size 1, zero window, shedding off).
 *
 * The claim under test (ISSUE 4 acceptance): past the engine's
 * serial capacity the baseline blows the tail budget, while
 * batching + admission keeps admitted-stream p99.99 inside it at
 * strictly higher goodput -- the machine degrades by serving fewer
 * frames well instead of all frames late.
 *
 * Emits BENCH_serve.json (override with --serve-json=PATH): one row
 * per (streams, window, mode) with latency quantiles, miss/shed
 * rates, goodput, batching stats and a per-row SLO summary (worst
 * miss-budget burn rate, worst window p99, mean goodput ratio
 * across streams). Fully virtual-clocked: the sweep is
 * bit-reproducible and runs in seconds.
 *
 * A final pass measures the flight recorder's wall-clock overhead on
 * the busiest served cell (recorder armed vs disarmed, min-of-reps)
 * and records it as "flight_overhead" -- the ISSUE 7 acceptance bar
 * is < 5 %.
 *
 * Every report the bench produces must pass ServeReport::violations;
 * the bench exits 1 otherwise.
 *
 * Usage:
 *   bench_ext_serve_scale [--frames=1500] [--budget-ms=100]
 *                         [--seed=29] [--serve-json=PATH]
 *                         [--overhead-reps=5]
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/config.hh"
#include "common/time.hh"
#include "nn/fusion.hh"
#include "nn/kernel_context.hh"
#include "nn/models.hh"
#include "nn/network.hh"
#include "nn/tensor.hh"
#include "obs/flight.hh"
#include "serve/serve.hh"

namespace {

using namespace ad;

/** One sweep cell, fully summarized. */
struct SweepRow
{
    int streams = 0;
    double windowMs = 0;
    bool served = false; ///< batching + admission (vs baseline).
    serve::ServeReport report;
};

SweepRow
runCell(int streams, double windowMs, bool served, int frames,
        double budgetMs, std::uint64_t seed)
{
    serve::ServeParams sp;
    sp.streams = streams;
    sp.stream.deadlineMs = budgetMs;
    sp.seed = seed;
    sp.governor.enabled = true;
    sp.governor.budgetMs = budgetMs;
    if (served) {
        sp.batch.maxWaitMs = windowMs;
    } else {
        sp.batch.maxBatch = 1;
        sp.batch.maxWaitMs = 0.0;
        sp.admission.enabled = false;
    }
    serve::ModeledEngineParams ep;
    ep.seed = seed * 2654435761u + 1;
    serve::ModeledBatchEngine engine(ep);
    serve::MultiStreamServer server(sp, engine);

    SweepRow row;
    row.streams = streams;
    row.windowMs = served ? windowMs : 0.0;
    row.served = served;
    row.report = server.run(frames);
    return row;
}

/** Cross-stream SLO summary of one cell's report. */
struct SloSummary
{
    double worstBurn = 0.0;
    double worstP99Ms = -1.0; ///< -1 when no window resolved a p99.
    double meanGoodput = 0.0;
};

SloSummary
summarizeSlo(const serve::ServeReport& report)
{
    SloSummary s;
    for (const auto& slo : report.streamSlo) {
        s.worstBurn = std::max(s.worstBurn, slo.burnRate);
        if (slo.p99Ms >= 0.0)
            s.worstP99Ms = std::max(s.worstP99Ms, slo.p99Ms);
        s.meanGoodput += slo.goodputRatio;
    }
    if (!report.streamSlo.empty())
        s.meanGoodput /= static_cast<double>(report.streamSlo.size());
    return s;
}

/** Flight-recorder overhead on one busy served cell. */
struct FlightOverhead
{
    double onMs = 0.0;  ///< min-of-reps wall time, recorder armed.
    double offMs = 0.0; ///< min-of-reps wall time, recorder off.
    double pct = 0.0;   ///< 100 * (on/off - 1), clamped at 0.
    std::size_t violations = 0; ///< report invariant violations.
};

/**
 * Measure the recorder's wall-clock cost (ISSUE 7 acceptance:
 * < 5 %). The modeled engine is virtual-clocked -- near-zero wall
 * time per frame -- so measuring against it would divide the
 * recorder's fixed nanoseconds-per-event cost by almost nothing.
 * This pass instead serves the *measured* engine (real
 * Network::forwardBatch calls, the work the recorder instruments in
 * production) with the recorder armed vs disarmed, min-of-reps on
 * each side to cancel scheduler noise. The dump path is left empty
 * so trigger events cost a ring push but never touch the filesystem.
 */
FlightOverhead
measureFlightOverhead(double budgetMs, std::uint64_t seed, int reps)
{
    constexpr int kStreams = 8;
    constexpr int kFrames = 150;
    constexpr int kInputSize = 64;

    nn::Network net =
        nn::buildNetwork(nn::detectorSpec(kInputSize, 0.05));
    Rng weightRng(7);
    nn::initDetectorWeights(net, weightRng);
    nn::lowerNetwork(net, {1, kInputSize, kInputSize});
    std::vector<nn::Tensor> inputs;
    Rng inputRng(seed);
    for (int s = 0; s < kStreams; ++s) {
        nn::Tensor t(1, kInputSize, kInputSize);
        for (std::size_t i = 0; i < t.size(); ++i)
            t.data()[i] = static_cast<float>(inputRng.uniform());
        inputs.push_back(std::move(t));
    }

    auto& fl = obs::flight();
    obs::FlightParams params;
    params.streams = kStreams;
    params.capacity = 1024;
    FlightOverhead result;
    result.onMs = result.offMs = 1e300;
    for (int rep = 0; rep < reps; ++rep) {
        for (const bool on : {false, true}) {
            fl.configure(params);
            fl.setEnabled(on);
            serve::NnBatchEngine engine(
                net, inputs, nn::resolveKernelThreads(0));
            serve::ServeParams sp;
            sp.streams = kStreams;
            sp.stream.deadlineMs = budgetMs;
            sp.batch.maxWaitMs = 4.0;
            sp.seed = seed;
            sp.governor.enabled = true;
            sp.governor.budgetMs = budgetMs;
            serve::MultiStreamServer server(sp, engine);
            Stopwatch clock;
            const serve::ServeReport report = server.run(kFrames);
            const double ms = clock.elapsedMs();
            result.violations +=
                bench::printViolations(report.violations());
            double& slot = on ? result.onMs : result.offMs;
            slot = std::min(slot, ms);
        }
    }
    fl.setEnabled(false);
    if (result.offMs > 0.0)
        result.pct =
            std::max(0.0, 100.0 * (result.onMs / result.offMs - 1.0));
    return result;
}

void
writeJson(const char* path, const std::vector<SweepRow>& rows,
          int frames, double budgetMs, std::uint64_t seed,
          const FlightOverhead& overhead)
{
    std::FILE* f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"serve_scale\",\n"
                 "  \"engine\": \"modeled\",\n"
                 "  \"frames_per_stream\": %d,\n"
                 "  \"budget_ms\": %.1f,\n"
                 "  \"seed\": %llu,\n  \"rows\": [",
                 frames, budgetMs,
                 static_cast<unsigned long long>(seed));
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const SweepRow& r = rows[i];
        const auto& rep = r.report;
        const double missRate =
            rep.framesAdmitted
                ? static_cast<double>(rep.deadlineMisses) /
                      rep.framesAdmitted
                : 0.0;
        const SloSummary slo = summarizeSlo(rep);
        std::fprintf(
            f,
            "%s\n    {\"streams\": %d, \"window_ms\": %.1f, "
            "\"mode\": \"%s\", "
            "\"admitted\": %lld, \"shed\": %lld, "
            "\"p50_ms\": %.3f, \"p99_ms\": %.3f, "
            "\"p9999_ms\": %.3f, \"worst_ms\": %.3f, "
            "\"miss_rate\": %.6f, \"goodput_fps\": %.3f, "
            "\"total_goodput_fps\": %.3f, \"shed_rate\": %.6f, "
            "\"mean_batch_size\": %.3f, "
            "\"pressure_escalations\": %lld, "
            "\"residency\": {\"NOMINAL\": %llu, \"DEGRADED\": %llu, "
            "\"TRACKING_ONLY\": %llu, \"SAFE_STOP\": %llu}, "
            "\"slo\": {\"worst_burn_rate\": %.4f, "
            "\"worst_p99_ms\": %.3f, \"mean_goodput_ratio\": %.4f}}",
            i ? "," : "", r.streams, r.windowMs,
            r.served ? "served" : "baseline",
            static_cast<long long>(rep.framesAdmitted),
            static_cast<long long>(rep.framesShed),
            rep.admittedLatency.p50, rep.admittedLatency.p99,
            rep.admittedLatency.p9999, rep.admittedLatency.worst,
            missRate, rep.goodputFps, rep.totalGoodputFps,
            rep.shedRate, rep.meanBatchSize,
            static_cast<long long>(rep.pressureEscalations),
            static_cast<unsigned long long>(rep.framesInMode[0]),
            static_cast<unsigned long long>(rep.framesInMode[1]),
            static_cast<unsigned long long>(rep.framesInMode[2]),
            static_cast<unsigned long long>(rep.framesInMode[3]),
            slo.worstBurn, slo.worstP99Ms, slo.meanGoodput);
    }
    std::fprintf(f,
                 "\n  ],\n  \"flight_overhead\": "
                 "{\"on_ms\": %.3f, \"off_ms\": %.3f, "
                 "\"overhead_pct\": %.3f}\n}\n",
                 overhead.onMs, overhead.offMs, overhead.pct);
    std::fclose(f);
    char resolved[4096];
    if (path[0] != '/' && ::realpath(path, resolved))
        std::printf("wrote serve sweep to %s\n", resolved);
    else
        std::printf("wrote serve sweep to %s\n", path);
}

} // namespace

int
main(int argc, char** argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    const int frames = cfg.getInt("frames", 1500);
    const double budgetMs = cfg.getDouble("budget-ms", 100.0);
    const std::uint64_t seed =
        static_cast<std::uint64_t>(cfg.getInt("seed", 29));
    const std::string jsonPath =
        cfg.getString("serve-json", "BENCH_serve.json");
    const int overheadReps = cfg.getInt("overhead-reps", 5);
    cfg.warnUnreadKeys();

    bench::printHeader(
        "Serving scale sweep (extension)",
        "multi-stream batching + admission control vs per-stream "
        "serial baseline, modeled engine");
    std::printf("%d frames per stream, budget %.0f ms, seed %llu\n\n",
                frames, budgetMs,
                static_cast<unsigned long long>(seed));
    std::printf("%7s %9s %9s %10s %10s %9s %9s %7s\n", "streams",
                "mode", "window ms", "p99.99 ms", "goodput", "shed %",
                "miss %", "batch");

    const int streamCounts[] = {1, 2, 4, 8, 16, 24, 32};
    const double windows[] = {0.0, 4.0, 8.0};
    std::vector<SweepRow> rows;
    std::size_t violations = 0;
    for (const int streams : streamCounts) {
        SweepRow base = runCell(streams, 0.0, false, frames, budgetMs,
                                seed);
        violations += bench::printViolations(base.report.violations());
        rows.push_back(base);
        const auto& b = base.report;
        std::printf("%7d %9s %9s %10.3f %10.3f %9.2f %9.4f %7.2f\n",
                    streams, "baseline", "-", b.admittedLatency.p9999,
                    b.goodputFps, 100.0 * b.shedRate,
                    b.framesAdmitted
                        ? 100.0 * b.deadlineMisses / b.framesAdmitted
                        : 0.0,
                    b.meanBatchSize);
        for (const double window : windows) {
            SweepRow row = runCell(streams, window, true, frames,
                                   budgetMs, seed);
            violations +=
                bench::printViolations(row.report.violations());
            rows.push_back(row);
            const auto& r = row.report;
            std::printf(
                "%7d %9s %9.1f %10.3f %10.3f %9.2f %9.4f %7.2f%s\n",
                streams, "served", window, r.admittedLatency.p9999,
                r.goodputFps, 100.0 * r.shedRate,
                r.framesAdmitted
                    ? 100.0 * r.deadlineMisses / r.framesAdmitted
                    : 0.0,
                r.meanBatchSize,
                r.admittedLatency.p9999 <= budgetMs ? "  [meets tail]"
                                                    : "");
        }
    }

    // ISSUE 4 acceptance: at some stream count >= 8, batching +
    // admission keeps admitted p99.99 inside the budget while the
    // baseline misses it, at strictly higher goodput.
    bool accepted = false;
    int acceptedStreams = 0;
    for (const SweepRow& base : rows) {
        if (base.served || base.streams < 8)
            continue;
        if (base.report.admittedLatency.p9999 <= budgetMs)
            continue; // baseline still holds the tail here.
        for (const SweepRow& srv : rows) {
            if (!srv.served || srv.streams != base.streams)
                continue;
            if (srv.report.admittedLatency.p9999 <= budgetMs &&
                srv.report.goodputFps > base.report.goodputFps) {
                accepted = true;
                acceptedStreams = srv.streams;
                break;
            }
        }
        if (accepted)
            break;
    }
    std::printf(
        "\nverdict: %s\n",
        accepted
            ? "PASS: batching + admission holds admitted p99.99 "
              "inside the budget at >= 8 streams where the baseline "
              "misses, at strictly higher goodput"
            : "FAIL: no stream count >= 8 where batching + admission "
              "beats the baseline on both tail and goodput");
    if (accepted)
        std::printf("first such stream count: %d\n", acceptedStreams);

    // ISSUE 7 acceptance: the flight recorder's ring pushes must
    // cost < 5 % of the serving run they instrument.
    const FlightOverhead overhead =
        measureFlightOverhead(budgetMs, seed, overheadReps);
    std::printf("\nflight recorder overhead (measured engine): "
                "%.3f ms on vs %.3f ms off (%.2f %%) %s\n",
                overhead.onMs, overhead.offMs, overhead.pct,
                overhead.pct < 5.0 ? "[within 5 % budget]"
                                   : "[EXCEEDS 5 % budget]");

    violations += overhead.violations;
    std::printf("report invariants: %zu violations\n", violations);

    writeJson(jsonPath.c_str(), rows, frames, budgetMs, seed,
              overhead);
    return accepted && violations == 0 ? 0 : 1;
}
