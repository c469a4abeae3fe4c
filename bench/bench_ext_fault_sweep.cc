/**
 * @file
 * Extension bench: fault sweep over the modeled all-GPU pipeline with
 * the degradation governor on and off, quantifying how much of the
 * paper's predictability constraint (p99.99 <= 100 ms, Section 2.4.2)
 * graceful degradation buys back under injected DET-engine stalls.
 *
 * Fault model: per frame, with probability = intensity, the detection
 * engine stalls by a multiplicative factor (contention on the
 * accelerator, uniform x10..x14) -- enough to push a NOMINAL frame
 * past the 100 ms budget but small enough that the DEGRADED detector
 * (half input scale, quarter cost) absorbs it. The stall schedule is
 * drawn from its own seeded stream with a fixed draw count per frame,
 * and the latency-body stream is shared between the governor-on and
 * governor-off runs, so both see the identical adverse schedule and
 * the artifact is bit-reproducible run to run.
 *
 * Prints one row per (intensity, governor) with the latency summary,
 * budget-miss rate, and per-mode residency, and exits nonzero unless
 * every governed row holds p99.99 within the budget.
 *
 * Usage:
 *   bench_ext_fault_sweep [--frames=200000] [--budget-ms=100]
 *                         [--seed=7]
 */

#include <array>
#include <cstdio>

#include "bench_common.hh"
#include "common/config.hh"
#include "pipeline/governor.hh"

namespace {

using namespace ad;

/** One sweep cell: (intensity, governor on/off) fully summarized. */
struct SweepRow
{
    LatencySummary summary;
    double missRate = 0;
    std::array<double, pipeline::kOperatingModeCount> residencyPct{};
    std::size_t transitions = 0;
};

/**
 * Run one faulted modeled-mode sequence. Per frame the stage bodies
 * come from `bodyRng` and the stall schedule from `faultRng`; both
 * consume a fixed number of draws per frame, so the schedule is a
 * pure function of (seed, frame index) and identical whichever
 * governor policy is active.
 */
SweepRow
runSweepCell(double intensity, bool governorOn, int frames,
             double budgetMs, std::uint64_t seed)
{
    using accel::Component;
    using accel::Platform;
    const accel::Workload w = accel::standardWorkloadRef();
    const auto& gpu = accel::platformModel(Platform::Gpu);
    const auto& cpu = accel::platformModel(Platform::Cpu);
    const auto detDist = gpu.latency(Component::Det, w);
    const auto traDist = gpu.latency(Component::Tra, w);
    const auto locDist = gpu.latency(Component::Loc, w);
    const auto fusionDist = cpu.latency(Component::Fusion, w);
    const auto motDist = cpu.latency(Component::MotPlan, w);

    pipeline::GovernorParams gp;
    gp.enabled = governorOn;
    gp.budgetMs = budgetMs;
    // Modeled stalls are single-frame events: one miss is all the
    // evidence there is, so escalate immediately; the exponential
    // recovery backoff keeps re-probing misses sub-tail over long
    // runs (docs/OPERATING_MODES.md).
    gp.escalateAfterMisses = 1;
    pipeline::DegradationGovernor governor(gp);

    Rng bodyRng(seed);
    Rng faultRng(seed ^ 0x9e3779b97f4a7c15ull);

    SweepRow row;
    LatencyRecorder rec(static_cast<std::size_t>(frames));
    std::uint64_t misses = 0;
    for (int i = 0; i < frames; ++i) {
        // Fault stream: fixed two draws per frame.
        const bool stall = faultRng.bernoulli(intensity);
        const double stallFactor = faultRng.uniform(10.0, 14.0);

        // Latency-body stream: one congestion variate per platform,
        // then every stage body, all drawn whether or not the
        // governor later discards the DET cost.
        double z[accel::kNumPlatforms];
        for (auto& v : z)
            v = bodyRng.normal();
        const double zGpu = z[static_cast<int>(Platform::Gpu)];
        double det = detDist.sampleGivenBody(zGpu, bodyRng);
        const double tra = traDist.sampleGivenBody(zGpu, bodyRng);
        const double loc = locDist.sampleGivenBody(zGpu, bodyRng);
        const double fusion = fusionDist.sample(bodyRng);
        const double mot = motDist.sample(bodyRng);

        // Governor actuation on the DET cost: DEGRADED halves the
        // detector input (quarter cost); skipped-detection frames and
        // TRACKING_ONLY/SAFE_STOP run no detector at all, so a
        // stalled engine that does not run costs nothing.
        const pipeline::FramePlan plan =
            governorOn ? governor.plan(i) : pipeline::FramePlan{};
        if (!plan.runDet)
            det = 0;
        else if (plan.degradedDet)
            det *= 0.25;
        if (stall)
            det *= stallFactor;

        const double e2e = std::max(loc, det + tra) + fusion + mot;
        rec.record(e2e);
        misses += e2e > budgetMs;
        if (governorOn)
            governor.observe(i, {det, tra, loc, fusion, mot});
    }
    row.summary = rec.summary();
    row.missRate = static_cast<double>(misses) / frames;
    if (governorOn) {
        const auto& inMode = governor.framesInMode();
        for (std::size_t m = 0; m < pipeline::kOperatingModeCount; ++m)
            row.residencyPct[m] = 100.0 * inMode[m] / frames;
        row.transitions = governor.transitions().size();
    } else {
        row.residencyPct[0] = 100.0; // ungoverned = always NOMINAL.
    }
    return row;
}

} // namespace

int
main(int argc, char** argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    const int frames = cfg.getInt("frames", 200000);
    const double budgetMs = cfg.getDouble("budget-ms", 100.0);
    const std::uint64_t seed =
        static_cast<std::uint64_t>(cfg.getInt("seed", 7));
    cfg.warnUnreadKeys();

    bench::printHeader(
        "Fault sweep (extension)",
        "DET-stall injection vs. graceful degradation, all-GPU model");
    std::printf("%d frames per cell, budget %.0f ms, seed %llu\n\n",
                frames, budgetMs,
                static_cast<unsigned long long>(seed));
    std::printf("%9s %8s %10s %10s %10s %9s  residency N/D/T/S (%%)\n",
                "intensity", "governor", "mean ms", "p99.99 ms",
                "miss rate", "transits");

    const double intensities[] = {0.0, 0.02, 0.05, 0.1, 0.2, 0.3};
    bool governedMeetsTail = true;
    for (const double intensity : intensities) {
        for (const bool on : {false, true}) {
            const SweepRow row =
                runSweepCell(intensity, on, frames, budgetMs, seed);
            std::printf(
                "%9.2f %8s %10.3f %10.3f %10.5f %9zu  "
                "%.1f/%.1f/%.1f/%.1f%s\n",
                intensity, on ? "on" : "off", row.summary.mean,
                row.summary.p9999, row.missRate, row.transitions,
                row.residencyPct[0], row.residencyPct[1],
                row.residencyPct[2], row.residencyPct[3],
                row.summary.p9999 <= budgetMs ? "  [meets tail]" : "");
            if (on && row.summary.p9999 > budgetMs)
                governedMeetsTail = false;
        }
    }
    std::printf("\nverdict: %s\n",
                governedMeetsTail
                    ? "PASS: every governed row holds p99.99 within "
                      "the budget"
                    : "FAIL: a governed row's p99.99 exceeds the "
                      "budget");
    return governedMeetsTail ? 0 : 1;
}
