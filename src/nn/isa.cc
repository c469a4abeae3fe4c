#include "nn/isa.hh"

#include <atomic>
#include <cstdlib>

#include "common/logging.hh"

#if defined(__x86_64__) || defined(__amd64__)
#define AD_NN_ISA_X86 1
#endif

namespace ad::nn {

namespace {

constexpr IsaTier allTiers[] = {IsaTier::Scalar, IsaTier::Sse2,
                                IsaTier::Avx2, IsaTier::Avx512Vnni};

const char*
tierName(IsaTier t)
{
    switch (t) {
      case IsaTier::Scalar: return "scalar";
      case IsaTier::Sse2: return "sse2";
      case IsaTier::Avx2: return "avx2";
      case IsaTier::Avx512Vnni: return "avx512vnni";
    }
    return "?";
}

bool
parseTierName(const std::string& name, IsaTier& out)
{
    for (const IsaTier t : allTiers) {
        if (name == tierName(t)) {
            out = t;
            return true;
        }
    }
    return false;
}

#if AD_NN_ISA_X86

bool
haveAvx2()
{
    static const bool have = __builtin_cpu_supports("avx2");
    return have;
}

bool
haveAvx512Vnni()
{
    static const bool have = __builtin_cpu_supports("avx512f") &&
                             __builtin_cpu_supports("avx512bw") &&
                             __builtin_cpu_supports("avx512vnni");
    return have;
}

#endif // AD_NN_ISA_X86

bool
tierAvailable(IsaTier t)
{
#if AD_NN_ISA_X86
    switch (t) {
      case IsaTier::Scalar: return true;
      case IsaTier::Sse2: return true; // x86-64 baseline.
      case IsaTier::Avx2: return haveAvx2();
      case IsaTier::Avx512Vnni: return haveAvx512Vnni();
    }
    return false;
#else
    return t == IsaTier::Scalar;
#endif
}

IsaTier
bestTier()
{
#if AD_NN_ISA_X86
    if (haveAvx512Vnni())
        return IsaTier::Avx512Vnni;
    if (haveAvx2())
        return IsaTier::Avx2;
    return IsaTier::Sse2;
#else
    return IsaTier::Scalar;
#endif
}

/** AD_FORCE_ISA if set, else the best tier (see kernelIsaTier). */
IsaTier
ambientTier()
{
    static const IsaTier tier = [] {
        const char* env = std::getenv("AD_FORCE_ISA");
        if (!env || !*env)
            return bestTier();
        IsaTier forced;
        if (!parseTierName(env, forced))
            fatal("AD_FORCE_ISA=\"", env,
                  "\": unknown ISA tier (expected scalar, sse2, avx2 "
                  "or avx512vnni)");
        if (!tierAvailable(forced))
            fatal("AD_FORCE_ISA=", env,
                  ": tier not available on this host (best is ",
                  tierName(bestTier()), ")");
        return forced;
    }();
    return tier;
}

// setInt8KernelIsa override; -1 means "no override" (ambient rules).
std::atomic<int> forcedTier{-1};

} // namespace

IsaTier
kernelIsaTier()
{
    const int f = forcedTier.load(std::memory_order_relaxed);
    if (f >= 0)
        return static_cast<IsaTier>(f);
    return ambientTier();
}

const char*
int8KernelIsa()
{
    return tierName(kernelIsaTier());
}

std::vector<std::string>
int8KernelIsaTiers()
{
    std::vector<std::string> tiers;
    for (const IsaTier t : allTiers)
        if (tierAvailable(t))
            tiers.emplace_back(tierName(t));
    return tiers;
}

bool
setInt8KernelIsa(const std::string& name)
{
    if (name.empty()) {
        forcedTier.store(-1, std::memory_order_relaxed);
        return true;
    }
    IsaTier t;
    if (!parseTierName(name, t) || !tierAvailable(t))
        return false;
    forcedTier.store(static_cast<int>(t), std::memory_order_relaxed);
    return true;
}

} // namespace ad::nn
