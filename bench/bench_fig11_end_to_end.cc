/**
 * @file
 * Reproduces Figure 11: end-to-end mean and 99.99th-percentile latency
 * of the full system across platform-assignment configurations. The
 * end-to-end latency composes as max(LOC, DET + TRA) + FUSION +
 * MOTPLAN because detection/tracking and localization run in parallel
 * (Figure 1).
 *
 * Paper anchors: all-CPU tails at ~9.1 s; the best accelerated design
 * (DET:GPU TRA:ASIC LOC:ASIC) reaches 16.1 ms; some configurations
 * meet 100 ms on mean latency but fail at the tail (Finding 4); the
 * headline tail reductions are 169x (GPU), 10x (FPGA), 93x (ASIC).
 *
 * --threads=N shrinks CPU-assigned engines by the parallel kernel
 * layer's modeled Amdahl speedup (SystemConfig::cpuThreads); the
 * default 1 reproduces the paper's single-socket anchors.
 */

#include <cstdio>

#include "bench_common.hh"
#include "common/config.hh"
#include "obs/obs.hh"

int
main(int argc, char** argv)
{
    using namespace ad;
    using namespace ad::pipeline;
    const Config cfg = Config::fromArgs(argc, argv);
    const obs::ObsOptions obsOpt = obs::setupFromConfig(cfg);
    const int threads = cfg.getInt("threads", 1);
    cfg.warnUnreadKeys();
    bench::printHeader("Figure 11",
                       "end-to-end latency across configurations "
                       "(100 ms budget)");
    if (threads > 1)
        std::printf("(CPU engines modeled with %d kernel-layer "
                    "threads)\n", threads);

    Rng rng(11);
    SystemModel model;
    constexpr int kSamples = 200000;

    std::printf("%-28s %10s %12s  %s\n", "configuration", "mean(ms)",
                "p99.99(ms)", "meets 100 ms?");
    double cpuTail = 0;
    double bestTail = 1e18;
    std::string bestName;
    for (auto config : bench::paperConfigs()) {
        config.cpuThreads = threads;
        obs::TraceSpan span(obs::tracer(), config.name(), "fig11");
        const auto s = model.sampleEndToEnd(config, kSamples, rng);
        if (obs::metricsEnabled()) {
            obs::metrics()
                .gauge("fig11." + config.name() + ".p9999_ms")
                .set(s.p9999);
        }
        if (config.det == accel::Platform::Cpu &&
            config.loc == accel::Platform::Cpu)
            cpuTail = s.p9999;
        if (s.p9999 < bestTail) {
            bestTail = s.p9999;
            bestName = config.name();
        }
        const char* verdict =
            s.p9999 <= 100.0
                ? "yes"
                : (s.mean <= 100.0 ? "NO -- mean-only (misleading!)"
                                   : "no");
        std::printf("%-28s %10.1f %12.1f  %s\n", config.name().c_str(),
                    s.mean, s.p9999, verdict);
    }

    std::printf("\nall-CPU tail: %.0f ms (paper: ~9100 ms)\n", cpuTail);
    std::printf("best accelerated design: %s at %.1f ms "
                "(paper: 16.1 ms)\n", bestName.c_str(), bestTail);

    std::printf("\nheadline tail-latency reductions vs all-CPU:\n");
    for (const auto p : {accel::Platform::Gpu, accel::Platform::Fpga,
                         accel::Platform::Asic}) {
        SystemConfig c;
        c.det = c.tra = c.loc = p;
        c.cpuThreads = threads;
        const auto s = model.sampleEndToEnd(c, kSamples, rng);
        std::printf("  all-%-5s %8.1f ms -> %6.0fx (paper: %s)\n",
                    accel::platformName(p), s.p9999, cpuTail / s.p9999,
                    p == accel::Platform::Gpu
                        ? "169x"
                        : (p == accel::Platform::Fpga ? "10x" : "93x"));
    }
    obs::finish(obsOpt);
    return 0;
}
