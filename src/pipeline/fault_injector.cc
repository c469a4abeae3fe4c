#include "pipeline/fault_injector.hh"

#include <algorithm>
#include <sstream>

#include "common/config.hh"

namespace ad::pipeline {

FaultInjectorParams
FaultInjectorParams::scaledMix(double intensity, std::uint64_t seed)
{
    intensity = std::clamp(intensity, 0.0, 1.0);
    FaultInjectorParams p;
    p.enabled = intensity > 0;
    p.seed = seed;
    p.dropProb = 0.05 * intensity;
    p.noiseProb = 0.20 * intensity;
    p.noiseSigma = 25.0;
    p.blackoutProb = 0.02 * intensity;
    p.spikeProb = 0.50 * intensity;
    p.spikeMs = 80.0;
    p.detFailProb = 0.05 * intensity;
    p.locFailProb = 0.05 * intensity;
    p.traFailProb = 0.02 * intensity;
    return p;
}

FaultInjectorParams
FaultInjectorParams::fromConfig(const Config& cfg)
{
    // Start from the intensity mix so `--faults=I` and individual
    // `fault.*` keys compose: explicit keys override the mix.
    FaultInjectorParams p =
        scaledMix(cfg.getDouble("faults", 0.0),
                  static_cast<std::uint64_t>(cfg.getInt("fault.seed", 42)));
    p.dropProb = cfg.getDouble("fault.drop_p", p.dropProb);
    p.noiseProb = cfg.getDouble("fault.noise_p", p.noiseProb);
    p.noiseSigma = cfg.getDouble("fault.noise_sigma", p.noiseSigma);
    p.blackoutProb = cfg.getDouble("fault.blackout_p", p.blackoutProb);
    p.spikeProb = cfg.getDouble("fault.spike_p", p.spikeProb);
    p.spikeMs = cfg.getDouble("fault.spike_ms", p.spikeMs);
    p.detFailProb = cfg.getDouble("fault.det_fail_p", p.detFailProb);
    p.locFailProb = cfg.getDouble("fault.loc_fail_p", p.locFailProb);
    p.traFailProb = cfg.getDouble("fault.tra_fail_p", p.traFailProb);
    p.enabled = p.dropProb > 0 || p.noiseProb > 0 || p.blackoutProb > 0 ||
                p.spikeProb > 0 || p.detFailProb > 0 ||
                p.locFailProb > 0 || p.traFailProb > 0;
    return p;
}

bool
FaultPlan::any() const
{
    return dropFrame || blackout || noiseSigma > 0 || detFail ||
           locFail || traFail || totalSpikeMs() > 0;
}

double
FaultPlan::totalSpikeMs() const
{
    double total = 0;
    for (const double ms : spikeMs)
        total += ms;
    return total;
}

FaultInjector::FaultInjector(const FaultInjectorParams& params)
    : params_(params), rng_(params.seed)
{
}

FaultPlan
FaultInjector::planFrame()
{
    // Fixed draw count per frame: every Bernoulli and magnitude is
    // drawn whether or not the fault fires, so the schedule for frame
    // k is a pure function of (seed, k).
    FaultPlan plan;
    const bool drop = rng_.bernoulli(params_.dropProb);
    const bool noise = rng_.bernoulli(params_.noiseProb);
    const bool dark = rng_.bernoulli(params_.blackoutProb);
    const bool spike = rng_.bernoulli(params_.spikeProb);
    const int spikeStage =
        rng_.uniformInt(0, static_cast<int>(obs::kStageCount) - 1);
    // Spike magnitude: mean spikeMs, uniform in [0.5, 1.5] x mean so
    // bursts vary in severity without a heavy tail of their own.
    const double spikeMagnitude =
        params_.spikeMs * rng_.uniform(0.5, 1.5);
    const bool detFail = rng_.bernoulli(params_.detFailProb);
    const bool locFail = rng_.bernoulli(params_.locFailProb);
    const bool traFail = rng_.bernoulli(params_.traFailProb);
    const std::uint64_t noiseSeed = rng_();

    ++counts_.frames;
    if (!params_.enabled)
        return plan;

    plan.dropFrame = drop;
    // A dropped frame delivers no pixels, so corruption and per-stage
    // failures are moot; spikes still apply (the stall that dropped
    // the frame also delays the stages around it).
    if (!plan.dropFrame) {
        plan.blackout = dark;
        if (noise && !dark) {
            plan.noiseSigma = params_.noiseSigma;
            plan.noiseSeed = noiseSeed;
        }
        plan.detFail = detFail;
        plan.locFail = locFail;
        plan.traFail = traFail;
    }
    if (spike)
        plan.spikeMs[static_cast<std::size_t>(spikeStage)] =
            spikeMagnitude;

    counts_.drops += plan.dropFrame;
    counts_.noisy += plan.noiseSigma > 0;
    counts_.blackouts += plan.blackout;
    counts_.spikes += spike;
    counts_.detFails += plan.detFail;
    counts_.locFails += plan.locFail;
    counts_.traFails += plan.traFail;
    return plan;
}

std::string
FaultInjector::report() const
{
    std::ostringstream oss;
    oss << "fault injection (seed " << params_.seed << ", "
        << counts_.frames << " frames):\n"
        << "  drops     " << counts_.drops << '\n'
        << "  noise     " << counts_.noisy << '\n'
        << "  blackouts " << counts_.blackouts << '\n'
        << "  spikes    " << counts_.spikes << '\n'
        << "  DET fails " << counts_.detFails << '\n'
        << "  LOC fails " << counts_.locFails << '\n'
        << "  TRA fails " << counts_.traFails << '\n';
    return oss.str();
}

} // namespace ad::pipeline
