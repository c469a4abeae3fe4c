#include "pipeline/governor.hh"

#include <algorithm>
#include <climits>
#include <sstream>

#include "common/config.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace ad::pipeline {

const char*
modeName(OperatingMode mode)
{
    switch (mode) {
    case OperatingMode::Nominal:
        return "NOMINAL";
    case OperatingMode::Degraded:
        return "DEGRADED";
    case OperatingMode::TrackingOnly:
        return "TRACKING_ONLY";
    case OperatingMode::SafeStop:
        return "SAFE_STOP";
    }
    return "?";
}

namespace {

OperatingMode
escalated(OperatingMode m)
{
    return m == OperatingMode::SafeStop
               ? m
               : static_cast<OperatingMode>(static_cast<int>(m) + 1);
}

OperatingMode
relaxed(OperatingMode m)
{
    return m == OperatingMode::Nominal
               ? m
               : static_cast<OperatingMode>(static_cast<int>(m) - 1);
}

} // namespace

GovernorParams
GovernorParams::fromConfig(const Config& cfg, double defaultBudgetMs)
{
    GovernorParams p;
    p.enabled = cfg.getBool("governor", false);
    p.budgetMs = cfg.getDouble("gov.budget_ms", defaultBudgetMs);
    p.readTuning(cfg);
    return p;
}

void
GovernorParams::readTuning(const Config& cfg)
{
    escalateAfterMisses =
        cfg.getInt("gov.escalate_misses", escalateAfterMisses);
    recoverAfterFrames =
        cfg.getInt("gov.recover_frames", recoverAfterFrames);
    recoveryBackoff =
        cfg.getDouble("gov.recovery_backoff", recoveryBackoff);
    maxRecoverAfterFrames =
        cfg.getInt("gov.max_recover_frames", maxRecoverAfterFrames);
    backoffResetFactor =
        cfg.getInt("gov.backoff_reset", backoffResetFactor);
    degradedDetScale = cfg.getDouble("gov.det_scale", degradedDetScale);
    degradedDetInterval =
        cfg.getInt("gov.det_interval", degradedDetInterval);
    trackingOnlyDetInterval = cfg.getInt("gov.tracking_det_interval",
                                         trackingOnlyDetInterval);
    maxStaleFrames = cfg.getInt("gov.max_stale", maxStaleFrames);
}

DegradationGovernor::DegradationGovernor(const GovernorParams& params)
    : params_(params), recoverThreshold_(params.recoverAfterFrames)
{
    if (obs::metricsEnabled())
        obs::metrics().gauge("governor.state").set(0.0);
}

FramePlan
DegradationGovernor::plan(std::int64_t frame) const
{
    FramePlan p;
    p.mode = mode_;
    switch (mode_) {
    case OperatingMode::Nominal:
        break;
    case OperatingMode::Degraded: {
        const int k = std::max(1, params_.degradedDetInterval);
        p.runDet = frame % k == 0;
        p.degradedDet = true;
        break;
    }
    case OperatingMode::TrackingOnly: {
        const int k = params_.trackingOnlyDetInterval;
        p.runDet = k > 0 && frame % k == 0;
        p.degradedDet = true;
        break;
    }
    case OperatingMode::SafeStop:
        p.runDet = false;
        p.degradedDet = true;
        p.safeStop = true;
        break;
    }
    return p;
}

void
DegradationGovernor::observe(std::int64_t frame,
                             const obs::FrameLatencySample& sample)
{
    ++framesInMode_[static_cast<std::size_t>(mode_)];
    const bool miss = sample.endToEndMs() > params_.budgetMs;
    if (miss) {
        cleanFrames_ = 0;
        ++consecutiveMisses_;
        if (consecutiveMisses_ >= params_.escalateAfterMisses &&
            mode_ != OperatingMode::SafeStop) {
            applyProbeBackoff();
            transitionTo(frame, escalated(mode_), "miss");
            consecutiveMisses_ = 0;
        }
        return;
    }

    consecutiveMisses_ = 0;
    if (cleanFrames_ < INT_MAX)
        ++cleanFrames_;
    if (mode_ != OperatingMode::Nominal &&
        cleanFrames_ >= recoverThreshold_) {
        transitionTo(frame, relaxed(mode_), "recovered");
        cleanFrames_ = 0;
        probing_ = true;
    } else if (mode_ == OperatingMode::Nominal && probing_ &&
               cleanFrames_ >= params_.backoffResetFactor *
                                   params_.recoverAfterFrames) {
        // NOMINAL held long enough: the fault pressure has passed,
        // forget the backoff.
        probing_ = false;
        recoverThreshold_ = params_.recoverAfterFrames;
    }
}

void
DegradationGovernor::applyProbeBackoff()
{
    if (!probing_)
        return;
    // The last de-escalation did not hold: demand a longer clean
    // run before probing again.
    const double next = recoverThreshold_ * params_.recoveryBackoff;
    recoverThreshold_ =
        std::min(params_.maxRecoverAfterFrames,
                 std::max(recoverThreshold_ + 1,
                          static_cast<int>(next)));
    probing_ = false;
}

void
DegradationGovernor::requestEscalation(std::int64_t frame,
                                       OperatingMode to,
                                       const std::string& reason)
{
    if (to <= mode_)
        return; // only strict escalations may be requested.
    applyProbeBackoff();
    transitionTo(frame, to, reason);
    consecutiveMisses_ = 0;
    cleanFrames_ = 0;
}

void
DegradationGovernor::forceSafeStop(std::int64_t frame,
                                   const std::string& reason)
{
    if (mode_ == OperatingMode::SafeStop)
        return;
    transitionTo(frame, OperatingMode::SafeStop, reason);
    consecutiveMisses_ = 0;
    cleanFrames_ = 0;
}

void
DegradationGovernor::transitionTo(std::int64_t frame, OperatingMode to,
                                  const std::string& reason)
{
    transitions_.push_back({frame, mode_, to, reason});
    mode_ = to;

    // Observability: a zero-duration "governor.<MODE>" trace event at
    // the transition frame and a state gauge + transition counters in
    // the registry (docs/TRACING.md specifies the event schema).
    auto& tracerRef = obs::tracer();
    if (tracerRef.enabled())
        tracerRef.record(std::string("governor.") + modeName(to),
                         "governor", tracerRef.nowUs(), 0.0, frame);
    if (obs::metricsEnabled()) {
        auto& reg = obs::metrics();
        reg.gauge("governor.state")
            .set(static_cast<double>(static_cast<int>(to)));
        reg.counter("governor.transitions").add();
        reg.counter(std::string("governor.transitions.to_") +
                    modeName(to))
            .add();
    }
}

std::string
DegradationGovernor::report() const
{
    std::uint64_t frames = 0;
    for (const auto n : framesInMode_)
        frames += n;
    std::ostringstream oss;
    oss << "governor: mode " << modeName(mode_) << ", "
        << transitions_.size() << " transitions over " << frames
        << " frames (recover threshold " << recoverThreshold_
        << ")\n";
    for (std::size_t i = 0; i < kOperatingModeCount; ++i) {
        const double pct =
            frames ? 100.0 * framesInMode_[i] / frames : 0.0;
        oss << "  " << modeName(static_cast<OperatingMode>(i)) << ' '
            << framesInMode_[i] << " frames";
        if (frames)
            oss << " (" << pct << "%)";
        oss << '\n';
    }
    return oss.str();
}

} // namespace ad::pipeline
