#include "fleet/loadgen.hh"

#include <algorithm>
#include <cmath>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/random.hh"

namespace ad::fleet {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

/** Per-stream RNG seed: streams draw independently of each other
    and of the shard partition, so the tape is partition-invariant. */
std::uint64_t
streamSeed(std::uint64_t seed, int stream)
{
    return seed + 0x9e3779b97f4a7c15ull *
                      (static_cast<std::uint64_t>(stream) + 1);
}

} // namespace

LoadGenParams
LoadGenParams::fromConfig(const Config& cfg)
{
    LoadGenParams p;
    p.streams = cfg.getInt("fleet.loadgen.streams", p.streams);
    p.periodMs = cfg.getDouble("fleet.loadgen.period-ms", p.periodMs);
    p.horizonMs =
        cfg.getDouble("fleet.loadgen.horizon-ms", p.horizonMs);
    p.framesPerStream = cfg.getInt("fleet.loadgen.frames",
                                   static_cast<int>(p.framesPerStream));
    p.stagger = cfg.getBool("fleet.loadgen.stagger", p.stagger);
    p.burstP = cfg.getDouble("fleet.loadgen.burst-p", p.burstP);
    p.burstLen = cfg.getInt("fleet.loadgen.burst-len", p.burstLen);
    p.burstPeriodMs = cfg.getDouble("fleet.loadgen.burst-period-ms",
                                    p.burstPeriodMs);
    p.rampAmplitude = cfg.getDouble("fleet.loadgen.ramp-amplitude",
                                    p.rampAmplitude);
    p.rampPeriodMs =
        cfg.getDouble("fleet.loadgen.ramp-period-ms", p.rampPeriodMs);
    p.stragglerFraction = cfg.getDouble(
        "fleet.loadgen.straggler-fraction", p.stragglerFraction);
    p.stallP = cfg.getDouble("fleet.loadgen.stall-p", p.stallP);
    p.stallMs = cfg.getDouble("fleet.loadgen.stall-ms", p.stallMs);
    p.hotModulus =
        cfg.getInt("fleet.loadgen.hot-modulus", p.hotModulus);
    p.hotResidue =
        cfg.getInt("fleet.loadgen.hot-residue", p.hotResidue);
    p.hotFactor =
        cfg.getDouble("fleet.loadgen.hot-factor", p.hotFactor);
    p.hotStartMs =
        cfg.getDouble("fleet.loadgen.hot-start-ms", p.hotStartMs);
    p.hotEndMs = cfg.getDouble("fleet.loadgen.hot-end-ms", p.hotEndMs);
    p.criticalityClasses = cfg.getInt(
        "fleet.loadgen.criticality-classes", p.criticalityClasses);
    p.speedMinMps = cfg.getDouble("fleet.loadgen.speed-min-mps",
                                  p.speedMinMps);
    p.speedMaxMps = cfg.getDouble("fleet.loadgen.speed-max-mps",
                                  p.speedMaxMps);
    p.seed = static_cast<std::uint64_t>(
        cfg.getInt("fleet.loadgen.seed", static_cast<int>(p.seed)));
    return p;
}

ScenarioLoadGen::ScenarioLoadGen(const LoadGenParams& params)
    : params_(params)
{
    if (params.streams < 1)
        fatal("ScenarioLoadGen: need at least one stream");
    if (params.periodMs <= 0.0 || params.burstPeriodMs <= 0.0)
        fatal("ScenarioLoadGen: period must be positive");
    if (params.framesPerStream <= 0 && params.horizonMs <= 0.0)
        fatal("ScenarioLoadGen: need frames or a positive horizon");
    if (params.rampAmplitude < 0.0 || params.rampAmplitude >= 1.0)
        fatal("ScenarioLoadGen: ramp amplitude must be in [0, 1)");
    if (params.burstLen < 0 || params.criticalityClasses < 1)
        fatal("ScenarioLoadGen: invalid burst/criticality knobs");
    if (params.hotModulus != 0 &&
        (params.hotModulus < 1 || params.hotFactor < 1.0 ||
         params.hotResidue < 0 ||
         params.hotResidue >= params.hotModulus))
        fatal("ScenarioLoadGen: invalid hot-block knobs");
    if (params.speedMinMps <= 0.0 || params.speedMaxMps <= 0.0)
        fatal("ScenarioLoadGen: speeds must be positive");

    const bool bounded = params.framesPerStream > 0;
    criticality_.resize(static_cast<std::size_t>(params.streams));
    frames_.resize(static_cast<std::size_t>(params.streams));

    for (int i = 0; i < params.streams; ++i) {
        // Criticality comes from its own RNG so adding a scenario
        // ingredient never reshuffles which vehicles are critical.
        Rng critRng(streamSeed(params.seed ^ 0xc1a55e5c1a55e5ull, i));
        criticality_[static_cast<std::size_t>(i)] =
            critRng.uniformInt(0, params.criticalityClasses - 1);

        Rng rng(streamSeed(params.seed, i));
        const bool straggler =
            params.stragglerFraction > 0.0 &&
            rng.uniform() < params.stragglerFraction;
        const bool hot =
            params.hotModulus > 0 &&
            i % params.hotModulus == params.hotResidue;

        double t = phaseMs(i);
        std::int64_t seq = 0;
        const auto emit = [&](double at) {
            schedule_.push_back(ArrivalEvent{at, i, seq++});
        };
        while (bounded ? seq < params.framesPerStream
                       : t < params.horizonMs) {
            emit(t);
            if (params.burstP > 0.0 && rng.bernoulli(params.burstP)) {
                double bt = t;
                for (int b = 0; b < params.burstLen; ++b) {
                    bt += params.burstPeriodMs;
                    if (bounded ? seq >= params.framesPerStream
                                : bt >= params.horizonMs)
                        break;
                    emit(bt);
                }
            }
            // Rate modulation scales the gap to the next base frame;
            // with everything off this is the serving layer's exact
            // repeated-addition arithmetic (t += periodMs).
            double period = params.periodMs;
            if (params.rampAmplitude > 0.0)
                period /= 1.0 + params.rampAmplitude *
                                    std::sin(kTwoPi * t /
                                             params.rampPeriodMs);
            if (hot && t >= params.hotStartMs && t < params.hotEndMs)
                period /= params.hotFactor;
            t += period;
            if (straggler && params.stallP > 0.0 &&
                rng.bernoulli(params.stallP))
                t += params.stallMs;
        }
        frames_[static_cast<std::size_t>(i)] = seq;
    }

    std::sort(schedule_.begin(), schedule_.end(),
              [](const ArrivalEvent& a, const ArrivalEvent& b) {
                  if (a.tMs != b.tMs)
                      return a.tMs < b.tMs;
                  if (a.stream != b.stream)
                      return a.stream < b.stream;
                  return a.seq < b.seq;
              });
}

double
ScenarioLoadGen::phaseMs(int stream) const
{
    return params_.stagger
               ? params_.periodMs * stream / params_.streams
               : 0.0;
}

double
ScenarioLoadGen::speedMps(int stream) const
{
    // Its own RNG stream (like criticality) so speed assignments
    // survive any change to the arrival-tape ingredients.
    Rng rng(streamSeed(params_.seed ^ 0x5feedfeed5ull, stream));
    return rng.uniform(std::min(params_.speedMinMps,
                                params_.speedMaxMps),
                       std::max(params_.speedMinMps,
                                params_.speedMaxMps));
}

} // namespace ad::fleet
