/**
 * @file
 * Graceful-degradation governor: the actuation half of the control
 * loop whose sensing half is the obs layer's DeadlineMonitor. The
 * paper's predictability constraint (Section 2.4.2) demands the
 * 99.99th-percentile frame latency stay under the 100 ms reaction
 * budget; when compounding stalls push frames over it, dropping work
 * beats dropping frames (Pylot's latency/accuracy knobs: smaller
 * detector input, tracking-only frames). The governor is an explicit
 * state machine over four operating modes,
 *
 *   NOMINAL -> DEGRADED -> TRACKING_ONLY -> SAFE_STOP,
 *
 * escalating one level after `escalateAfterMisses` consecutive budget
 * misses and de-escalating one level after a run of consecutive
 * on-budget frames (recovery hysteresis). Each failed recovery --
 * de-escalating and promptly missing again -- multiplies the required
 * clean run by `recoveryBackoff` (exponential backoff, capped), so
 * under sustained faults the governor stops oscillating instead of
 * re-buying the same deadline miss every probe.
 *
 * The mode-to-knob mapping (which detector scale, what detection
 * interval, when to brake) is specified field-by-field in
 * docs/OPERATING_MODES.md; the pipeline implements it against
 * FramePlan. The governor never reads the clock itself -- it consumes
 * the per-frame latency samples the pipeline already records -- so it
 * is equally at home driving the measured pipeline (Pipeline) and the
 * modeled fault sweep (bench_ext_fault_sweep).
 */

#ifndef AD_PIPELINE_GOVERNOR_HH
#define AD_PIPELINE_GOVERNOR_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/deadline.hh"

namespace ad {
class Config;
}

namespace ad::pipeline {

/** The four operating modes, ordered by escalation severity. */
enum class OperatingMode
{
    Nominal = 0,      ///< full detector, detection every frame.
    Degraded,         ///< downscaled detector, stretched interval.
    TrackingOnly,     ///< detector off; trackers and Kalman coast.
    SafeStop,         ///< perception minimal; controller brakes.
};

inline constexpr std::size_t kOperatingModeCount = 4;

/** Written-contract mode name ("NOMINAL", ..., "SAFE_STOP"). */
const char* modeName(OperatingMode mode);

/** Governor knobs (see docs/OPERATING_MODES.md for the contract). */
struct GovernorParams
{
    bool enabled = false;       ///< master switch.
    double budgetMs = 100.0;    ///< the paper's reaction budget.

    /** Consecutive budget misses before escalating one level. */
    int escalateAfterMisses = 2;

    /** Consecutive on-budget frames before de-escalating one level. */
    int recoverAfterFrames = 50;

    /**
     * After a failed recovery (de-escalate, then escalate again
     * before `backoffResetFactor x recoverAfterFrames` clean frames),
     * the required clean run multiplies by this factor, capped at
     * `maxRecoverAfterFrames`. A sustained clean run in NOMINAL
     * resets it to `recoverAfterFrames`.
     */
    double recoveryBackoff = 2.0;
    int maxRecoverAfterFrames = 51200;
    int backoffResetFactor = 4;

    /** DEGRADED: detector input scale and detection interval. */
    double degradedDetScale = 0.5;
    int degradedDetInterval = 2;

    /**
     * TRACKING_ONLY: detection interval (0 = detector fully off;
     * k > 0 = one downscaled detection every k frames to reseed the
     * track table).
     */
    int trackingOnlyDetInterval = 0;

    /**
     * Bounded staleness for per-stage fallback: how many consecutive
     * frames a stage may serve its last good result before the
     * governor forces SAFE_STOP.
     */
    int maxStaleFrames = 8;

    /**
     * Read the `--governor` switch and every `gov.*` config key;
     * `defaultBudgetMs` seeds the budget (tools pass the watchdog's,
     * so `--obs.budget_ms` governs both unless `gov.budget_ms` says
     * otherwise).
     */
    static GovernorParams fromConfig(const Config& cfg,
                                     double defaultBudgetMs = 100.0);

    /**
     * Read the `gov.*` tuning keys over *this: every key but
     * `--governor` and `gov.budget_ms`. The serving path reads only
     * these, since its governors are always on with the stream
     * deadline as their budget.
     */
    void readTuning(const Config& cfg);
};

/** The governor's actuation decisions for one frame. */
struct FramePlan
{
    OperatingMode mode = OperatingMode::Nominal;
    bool runDet = true;      ///< run the detection engine this frame.
    bool degradedDet = false; ///< use the downscaled standby detector.
    bool safeStop = false;   ///< controller must brake to a stop.
};

/** One recorded mode transition. */
struct ModeTransition
{
    std::int64_t frame = -1;
    OperatingMode from = OperatingMode::Nominal;
    OperatingMode to = OperatingMode::Nominal;
    std::string reason; ///< "miss", "recovered", "stale:LOC", ...
};

/**
 * The degradation state machine. Call plan() before processing a
 * frame (to learn what to run) and observe() after (to feed back the
 * frame's latency sample); both are a handful of comparisons. The
 * governor allocates only when a transition fires and never reads the
 * clock, so a governed run is deterministic given a deterministic
 * latency stream.
 */
class DegradationGovernor
{
  public:
    explicit DegradationGovernor(const GovernorParams& params = {});

    /** Actuation decisions for the given frame (no state change). */
    FramePlan plan(std::int64_t frame) const;

    /** Feed back one completed frame's latency sample. */
    void observe(std::int64_t frame,
                 const obs::FrameLatencySample& sample);

    /**
     * Force SAFE_STOP outside the latency feedback path -- e.g.\ a
     * stage exceeded the bounded-staleness contract. No-op when
     * already in SAFE_STOP.
     */
    void forceSafeStop(std::int64_t frame, const std::string& reason);

    /**
     * Externally requested escalation -- the serving layer's
     * admission controller sheds load by degrading the streams with
     * the most slack (src/serve/admission.hh). Transitions only
     * when `to` is a strict escalation of the current mode (a
     * request to de-escalate or stay is ignored: recovery always
     * rides the internal hysteresis). An escalation that lands
     * while a de-escalation probe is outstanding applies the same
     * recovery backoff as a latency miss would -- external pressure
     * that returns right after recovery is the same oscillation,
     * whoever reports it.
     */
    void requestEscalation(std::int64_t frame, OperatingMode to,
                           const std::string& reason);

    OperatingMode mode() const { return mode_; }

    /** Frames observed in each mode (index by OperatingMode). */
    const std::array<std::uint64_t, kOperatingModeCount>&
    framesInMode() const
    {
        return framesInMode_;
    }

    /** Every transition since construction, in order. */
    const std::vector<ModeTransition>& transitions() const
    {
        return transitions_;
    }

    /** The clean-frame run currently required to de-escalate. */
    int currentRecoverThreshold() const { return recoverThreshold_; }

    const GovernorParams& params() const { return params_; }

    /** Multi-line mode-residency and transition summary. */
    std::string report() const;

  private:
    void transitionTo(std::int64_t frame, OperatingMode to,
                      const std::string& reason);

    /** Grow the clean-run requirement after a failed recovery probe. */
    void applyProbeBackoff();

    GovernorParams params_;
    OperatingMode mode_ = OperatingMode::Nominal;
    int consecutiveMisses_ = 0;
    int cleanFrames_ = 0;
    int recoverThreshold_ = 0;
    /** True between a de-escalation and proof it held (backoff gate). */
    bool probing_ = false;
    std::array<std::uint64_t, kOperatingModeCount> framesInMode_{};
    std::vector<ModeTransition> transitions_;
};

} // namespace ad::pipeline

#endif // AD_PIPELINE_GOVERNOR_HH
