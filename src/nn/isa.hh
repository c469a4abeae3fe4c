/**
 * @file
 * The SIMD dispatch ladder shared by every NN kernel: the fp32 register
 * tiles (nn/gemm.hh) and the int8 kernels (nn/gemm_int8.hh) resolve
 * their tier through one resolver, so AD_FORCE_ISA and the
 * setInt8KernelIsa test hook pin both precisions together.
 *
 * Tiers, worst to best: scalar -> sse2 -> avx2 -> avx512vnni, picked at
 * runtime from CPUID. The top tier needs AVX-512F, BW and VNNI; the
 * fp32 tile uses only its AVX-512F part. Every tier of a kernel is
 * bit-identical to every other: int8 sums are exact integers, and the
 * fp32 tiles perform the same rounded multiply and add per element in
 * the same order (no FMA), so the tier is a speed choice only.
 */

#ifndef AD_NN_ISA_HH
#define AD_NN_ISA_HH

#include <string>
#include <vector>

namespace ad::nn {

/** Dispatch tiers, worst to best. */
enum class IsaTier { Scalar = 0, Sse2, Avx2, Avx512Vnni };

/**
 * The tier in effect now: the setInt8KernelIsa override if one is set,
 * else AD_FORCE_ISA (parsed once; fatal() on an unknown name or a tier
 * the host lacks, so a typoed CI matrix entry cannot silently measure
 * the wrong kernel), else the best tier the CPU supports.
 */
IsaTier kernelIsaTier();

/**
 * Name of the dispatch tier currently in effect ("avx512vnni", "avx2",
 * "sse2" or "scalar") -- recorded into BENCH_quant.json and perfbench's
 * host fingerprint so an artifact states which ISA produced it.
 * Reflects AD_FORCE_ISA / setInt8KernelIsa overrides.
 */
const char* int8KernelIsa();

/**
 * Names of every dispatch tier this host can execute, ordered worst to
 * best ("scalar" first). The cross-tier tests iterate this list and
 * assert all members produce bit-identical results, fp32 and int8.
 */
std::vector<std::string> int8KernelIsaTiers();

/**
 * Force the dispatch tier of both precisions by name for this process;
 * the empty string restores automatic (best-available or AD_FORCE_ISA)
 * selection. Returns false -- changing nothing -- when the name is
 * unknown or the tier is unavailable on this host. Test hook;
 * production overrides use AD_FORCE_ISA so the choice is visible in
 * the environment block of a benchmark log.
 */
bool setInt8KernelIsa(const std::string& name);

} // namespace ad::nn

#endif // AD_NN_ISA_HH
