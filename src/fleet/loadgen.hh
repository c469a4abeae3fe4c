/**
 * @file
 * Fleet layer, part 1: the scenario-replay load generator.
 *
 * The serving layer's own arrival model is one periodic camera per
 * stream. A fleet does not look like that: demand breathes over the
 * day, sensors re-send bursts after hiccups, some vehicles straggle
 * through tunnels, and a stadium emptying puts a hot block of
 * vehicles on whichever shard owns them. ScenarioLoadGen replays
 * such a scenario deterministically: every stream's arrival
 * sequence is generated from its own seeded RNG, *independently* of
 * every other stream and of how streams are partitioned over
 * shards, so the same seed produces the same fleet-wide arrival
 * tape whether it drives 1 shard or 16 — which is what makes the
 * shard-scaling comparisons in BENCH_fleet.json apples-to-apples
 * and the rebalancer's migration log bit-reproducible.
 *
 * Scenario ingredients (all off by default, all seeded):
 *  - bursts: after a frame, with probability burstP the sensor
 *    re-sends burstLen extra frames at burstPeriodMs spacing;
 *  - diurnal ramp: the frame period is modulated by a sinusoid
 *    (rampAmplitude, rampPeriodMs) — demand breathes;
 *  - stragglers: a seeded fraction of streams occasionally stall
 *    for stallMs (tunnel, dead radio) and resume;
 *  - hot block: streams with id % hotModulus == hotResidue run at
 *    period / hotFactor inside [hotStartMs, hotEndMs) — under the
 *    fleet's round-robin partition, hotModulus = shard count aims
 *    the whole block at one shard (the hot-shard scenario the
 *    rebalancer must detect and drain).
 *
 * With every ingredient off the generator emits exactly the
 * MultiStreamServer::run arrival pattern (staggered phases, frame
 * period accumulated by repeated addition — bit-identical floating
 * point), which is what the shards=1 equivalence test leans on.
 */

#ifndef AD_FLEET_LOADGEN_HH
#define AD_FLEET_LOADGEN_HH

#include <cstdint>
#include <string>
#include <vector>

namespace ad {
class Config;
}

namespace ad::fleet {

/** Load-generator knobs (`fleet.loadgen.*`). */
struct LoadGenParams
{
    int streams = 64;          ///< synthetic vehicle streams.
    double periodMs = 100.0;   ///< base camera period (10 fps).
    /** Emit arrivals in [phase, horizonMs); ignored when
        framesPerStream > 0. */
    double horizonMs = 10000.0;
    /** Exactly this many frames per stream (0 = horizon-bounded).
        With every scenario ingredient off this reproduces
        MultiStreamServer::run's arrival tape bit for bit. */
    std::int64_t framesPerStream = 0;
    bool stagger = true;       ///< stream i starts at period*i/N.

    double burstP = 0.0;       ///< P(burst after a frame).
    int burstLen = 3;          ///< extra frames per burst.
    double burstPeriodMs = 20.0; ///< intra-burst frame spacing.

    double rampAmplitude = 0.0; ///< diurnal modulation depth [0,1).
    double rampPeriodMs = 10000.0; ///< modulation wavelength.

    double stragglerFraction = 0.0; ///< streams that may stall.
    double stallP = 0.01;      ///< P(stall after a frame | straggler).
    double stallMs = 500.0;    ///< stall duration.

    int hotModulus = 0;        ///< 0 = no hot block.
    int hotResidue = 0;        ///< hot streams: id mod modulus == this.
    double hotFactor = 4.0;    ///< rate multiplier inside the window.
    double hotStartMs = 0.0;   ///< hot window start (virtual ms).
    double hotEndMs = 0.0;     ///< hot window end (virtual ms).

    int criticalityClasses = 3; ///< per-stream classes 0..C-1.

    /** Per-stream ego speed band (m/s): each vehicle draws a fixed
        cruise speed in [min, max] from its own seed hash. Consumed
        by the map tier's pose-driven prefetch (the prefetch horizon
        turns speed into a lookahead distance). */
    double speedMinMps = 8.0;
    double speedMaxMps = 20.0; ///< cruise-speed band upper edge.
    std::uint64_t seed = 101;  ///< tape generation seed.

    /** Read every `fleet.loadgen.*` knob (defaults from *this). */
    static LoadGenParams fromConfig(const Config& cfg);
};

/** One synthetic camera arrival. */
struct ArrivalEvent
{
    double tMs = 0.0;     ///< arrival time (virtual ms).
    int stream = -1;      ///< fleet-global stream id.
    std::int64_t seq = -1; ///< per-stream frame sequence number.
};

/**
 * Deterministic scenario tape: construction generates every
 * stream's arrival sequence from its own seeded RNG and merges them
 * into (t, stream, seq) order. Criticality classes are assigned
 * per stream from the same seed (hash-style, partition-independent)
 * and drive the FleetCoordinator's shed-lowest-criticality-first
 * arbitration.
 */
class ScenarioLoadGen
{
  public:
    /** Generate the full tape (fatal on nonsense parameters). */
    explicit ScenarioLoadGen(const LoadGenParams& params);

    /** The generation parameters. */
    const LoadGenParams& params() const { return params_; }

    /** The full arrival tape, sorted by (t, stream, seq). */
    const std::vector<ArrivalEvent>& schedule() const
    {
        return schedule_;
    }

    /** Criticality class of `stream` (0 = first to shed). */
    int criticality(int stream) const
    {
        return criticality_[static_cast<std::size_t>(stream)];
    }

    /** Arrival phase offset of `stream` (stagger). */
    double phaseMs(int stream) const;

    /**
     * Fixed cruise speed of `stream` in m/s, drawn from the stream's
     * own seed hash inside [speedMinMps, speedMaxMps] -- partition-
     * independent like everything else on the tape.
     */
    double speedMps(int stream) const;

    /** Frames emitted for `stream` (after burst/stall expansion). */
    std::int64_t framesForStream(int stream) const
    {
        return frames_[static_cast<std::size_t>(stream)];
    }

    /** Total arrivals in the tape. */
    std::int64_t totalArrivals() const
    {
        return static_cast<std::int64_t>(schedule_.size());
    }

  private:
    LoadGenParams params_;
    std::vector<ArrivalEvent> schedule_;
    std::vector<int> criticality_;
    std::vector<std::int64_t> frames_;
};

} // namespace ad::fleet

#endif // AD_FLEET_LOADGEN_HH
