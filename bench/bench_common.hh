/**
 * @file
 * Shared helpers for the figure-reproduction benches: the ordered
 * configuration list of Figures 11/12 (platform assignments for
 * DET/TRA/LOC) and small printing utilities.
 */

#ifndef AD_BENCH_COMMON_HH
#define AD_BENCH_COMMON_HH

#include <cstdio>
#include <string>
#include <vector>

#include "pipeline/system_model.hh"

namespace ad::bench {

/**
 * The configuration axis of Figures 11 and 12: representative
 * platform assignments from all-CPU through the paper's fastest
 * accelerated design, ordered roughly by aggressiveness of
 * acceleration.
 */
inline std::vector<pipeline::SystemConfig>
paperConfigs()
{
    using accel::Platform;
    const auto mk = [](Platform d, Platform t, Platform l) {
        pipeline::SystemConfig c;
        c.det = d;
        c.tra = t;
        c.loc = l;
        return c;
    };
    return {
        mk(Platform::Cpu, Platform::Cpu, Platform::Cpu),
        mk(Platform::Gpu, Platform::Gpu, Platform::Cpu),
        mk(Platform::Gpu, Platform::Gpu, Platform::Gpu),
        mk(Platform::Gpu, Platform::Gpu, Platform::Asic),
        mk(Platform::Fpga, Platform::Fpga, Platform::Fpga),
        mk(Platform::Fpga, Platform::Fpga, Platform::Asic),
        mk(Platform::Asic, Platform::Asic, Platform::Fpga),
        mk(Platform::Asic, Platform::Asic, Platform::Asic),
        mk(Platform::Gpu, Platform::Asic, Platform::Asic),
    };
}

/** Print the standard bench header. */
inline void
printHeader(const char* figure, const char* caption)
{
    std::printf("==========================================================\n");
    std::printf("%s -- %s\n", figure, caption);
    std::printf("==========================================================\n");
}

/** Print a serving report's invariant violations; return the count. */
inline std::size_t
printViolations(const std::vector<std::string>& violations)
{
    for (const std::string& v : violations)
        std::fprintf(stderr, "report violation: %s\n", v.c_str());
    return violations.size();
}

} // namespace ad::bench

#endif // AD_BENCH_COMMON_HH
