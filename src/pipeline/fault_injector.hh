/**
 * @file
 * Deterministic fault injection for the measured-mode pipeline. COLA
 * (Liu et al.) shows that tail violations in Level-4 stacks come from
 * rare *compounding* stalls, not from a single slow kernel; to prove a
 * degradation policy against that regime we need a fault model that
 * can reproduce exactly the same adverse schedule run after run. The
 * FaultInjector draws one FaultPlan per frame from a seeded xoshiro
 * stream (common/random.hh), consuming a fixed number of variates per
 * frame regardless of outcomes, so the fault schedule is a pure
 * function of (seed, frame index) -- independent of engine timing,
 * thread count or which faults actually fire.
 *
 * Fault classes (all probabilities are per frame, all independent):
 *  - frame drop: the camera delivers nothing; the pipeline coasts.
 *  - sensor corruption: additive pixel noise or blackout on the frame
 *    (sensors/corruption.hh) -- the engines see it through the pixels.
 *  - stage latency spikes: virtual milliseconds added to one stage's
 *    reported latency. Spikes are *virtual* -- they inflate the
 *    latency the watchdog and governor observe without burning real
 *    wall clock -- so faulted runs stay fast and bit-reproducible.
 *  - transient stage failures: DET/LOC/TRA produce no output for one
 *    frame; the pipeline falls back to its last good result subject to
 *    the governor's staleness bound.
 *
 * Configured via `fault.*` config keys (fromConfig) or the single
 * `--faults=<intensity>` knob in adrun which scales a representative
 * mix (scaledMix).
 */

#ifndef AD_PIPELINE_FAULT_INJECTOR_HH
#define AD_PIPELINE_FAULT_INJECTOR_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/random.hh"
#include "obs/deadline.hh"

namespace ad {
class Config;
}

namespace ad::pipeline {

/** Fault-injection knobs; all probabilities are per frame. */
struct FaultInjectorParams
{
    bool enabled = false;        ///< master switch.
    std::uint64_t seed = 42;     ///< fault-stream seed.

    double dropProb = 0;         ///< frame never arrives.
    double noiseProb = 0;        ///< additive pixel noise.
    double noiseSigma = 25.0;    ///< noise stddev (intensity levels).
    double blackoutProb = 0;     ///< full-frame blackout.
    double spikeProb = 0;        ///< latency spike on one stage.
    double spikeMs = 80.0;       ///< mean spike magnitude (ms).
    double detFailProb = 0;      ///< DET returns nothing this frame.
    double locFailProb = 0;      ///< LOC returns nothing this frame.
    double traFailProb = 0;      ///< TRA cannot run this frame.

    /**
     * A representative fault mix scaled by one intensity knob in
     * [0, 1] (adrun's `--faults`): drops, corruption, spikes and
     * transient failures all grow linearly with intensity.
     */
    static FaultInjectorParams scaledMix(double intensity,
                                         std::uint64_t seed = 42);

    /** Read every `fault.*` config key (see docs/OPERATING_MODES.md). */
    static FaultInjectorParams fromConfig(const Config& cfg);
};

/** The faults chosen for one frame. */
struct FaultPlan
{
    bool dropFrame = false;
    bool blackout = false;
    double noiseSigma = 0;   ///< 0 = no noise injected.
    /** Seed for the per-frame noise stream (always drawn, so the
     *  fault schedule never shifts with the noise probability). */
    std::uint64_t noiseSeed = 0;
    bool detFail = false;
    bool locFail = false;
    bool traFail = false;
    /** Virtual latency added to each stage's report (index by Stage). */
    std::array<double, obs::kStageCount> spikeMs{};

    /** Any fault at all this frame? */
    bool any() const;

    /** Total virtual spike milliseconds across all stages. */
    double totalSpikeMs() const;
};

/** Running counters of injected faults (for reports and metrics). */
struct FaultCounts
{
    std::uint64_t frames = 0;
    std::uint64_t drops = 0;
    std::uint64_t noisy = 0;
    std::uint64_t blackouts = 0;
    std::uint64_t spikes = 0;
    std::uint64_t detFails = 0;
    std::uint64_t locFails = 0;
    std::uint64_t traFails = 0;
};

/**
 * Per-frame fault scheduler. planFrame() must be called exactly once
 * per frame in frame order; the draw count per frame is fixed, so the
 * schedule for frame k depends only on (seed, k).
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultInjectorParams& params = {});

    /** Draw the fault plan for the next frame. */
    FaultPlan planFrame();

    const FaultInjectorParams& params() const { return params_; }
    const FaultCounts& counts() const { return counts_; }

    /** Multi-line injected-fault summary table. */
    std::string report() const;

  private:
    FaultInjectorParams params_;
    Rng rng_;
    FaultCounts counts_;
};

} // namespace ad::pipeline

#endif // AD_PIPELINE_FAULT_INJECTOR_HH
