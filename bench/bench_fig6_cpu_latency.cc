/**
 * @file
 * Reproduces Figure 6: mean, 99th- and 99.99th-percentile latency of
 * every algorithmic component of the end-to-end system on the
 * multicore CPU platform. Each of DET, TRA and LOC alone exceeds the
 * 100 ms end-to-end budget, identifying the three computational
 * bottlenecks; FUSION and MOTPLAN are negligible.
 *
 * Paper anchors (p99.99): DET 7734.4 ms, TRA 1334.0 ms, LOC 294.2 ms,
 * FUSION ~0.1 ms, MOTPLAN ~0.5 ms.
 *
 * --threads=N applies the parallel kernel layer's Amdahl speedup to
 * each component (accel::cpuParallelSpeedup); the default 1 is the
 * paper's measured anchor. Even generous multicore scaling leaves
 * every bottleneck engine far above the 100 ms budget.
 *
 * --int8=1 additionally applies the measured quantized-DNN speedup
 * (accel::cpuQuantizedSpeedup, anchored to BENCH_quant.json): the
 * precision lever composes with the thread lever, and still leaves
 * DET and TRA orders of magnitude over budget -- narrowing the
 * arithmetic alone does not rescue the CPU.
 */

#include <cstdio>

#include "accel/models.hh"
#include "bench_common.hh"
#include "common/config.hh"
#include "obs/obs.hh"

int
main(int argc, char** argv)
{
    using namespace ad;
    using accel::Component;
    using accel::Platform;
    const Config cfg = Config::fromArgs(argc, argv);
    const obs::ObsOptions obsOpt = obs::setupFromConfig(cfg);
    const int threads = cfg.getInt("threads", 1);
    const bool int8 = cfg.getBool("int8", false);
    cfg.warnUnreadKeys();
    bench::printHeader("Figure 6",
                       "per-component latency on the multicore CPU");
    if (threads > 1)
        std::printf("(modeled with %d kernel-layer threads)\n", threads);
    if (int8)
        std::printf("(modeled with the int8 quantized DNN path)\n");

    Rng rng(6);
    const auto& w = accel::standardWorkloadRef();
    const auto& cpu = accel::platformModel(Platform::Cpu);

    std::printf("%-8s %12s %12s %14s %s\n", "engine", "mean(ms)",
                "p99(ms)", "p99.99(ms)", "exceeds 100 ms budget?");
    for (const auto c :
         {Component::Det, Component::Tra, Component::Loc,
          Component::Fusion, Component::MotPlan}) {
        obs::TraceSpan span(obs::tracer(), accel::componentName(c),
                            "fig6");
        double speedup = accel::cpuParallelSpeedup(c, threads);
        if (int8)
            speedup *= accel::cpuQuantizedSpeedup(c);
        const auto dist = cpu.latency(c, w).scaledBy(1.0 / speedup);
        const auto s = dist.summarize(200000, rng);
        if (obs::metricsEnabled()) {
            const std::string base =
                std::string("fig6.") + accel::componentName(c);
            obs::metrics().gauge(base + ".mean_ms").set(s.mean);
            obs::metrics().gauge(base + ".p9999_ms").set(s.p9999);
        }
        std::printf("%-8s %12.1f %12.1f %14.1f %s\n",
                    accel::componentName(c), s.mean, s.p99, s.p9999,
                    s.p9999 > 100.0 ? "YES -> bottleneck" : "no");
    }

    std::printf("\nDET, TRA and LOC each exceed the end-to-end budget "
                "alone: conventional\nmulticore CPUs cannot meet the "
                "design constraints (Section 3.2).\n");
    obs::finish(obsOpt);
    return 0;
}
