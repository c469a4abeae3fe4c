/**
 * @file
 * Fleet layer, part 2: sharded serving over engine replicas.
 *
 * One MultiStreamServer multiplexes N streams over one engine; the
 * paper's per-vehicle constraint (p99.99 <= 100 ms, >= 10 fps) does
 * not care how many vehicles the operator signed up. The fleet
 * layer is the scale-out story: a ShardedServer owns `serve.shards`
 * engine replicas, each a full MultiStreamServer shard (own batch
 * scheduler, own admission controller), and co-simulates them over
 * one fleet-wide virtual clock in fixed rebalancing epochs.
 *
 * Three fleet-level mechanisms sit above the shards:
 *
 *  - **FleetRegistry** partitions the stream space (round-robin at
 *    registration) and tracks every stream's current (shard, slot)
 *    placement plus the migration log.
 *
 *  - **Slack-aware rebalancing.** Each shard carries a shard-level
 *    SLO accountant (reusing serve/slo.hh) fed by a ServeObserver:
 *    completions at their true latency, sheds as budget-miss
 *    equivalents — a shard that sheds half its arrivals is burning
 *    SLO budget even though the frames it *does* serve are on time.
 *    When a shard's rolling burn rate diverges from the fleet
 *    median (x `fleet.rebalance.divergence`), the rebalancer
 *    migrates its most-slack quiescent streams to the
 *    lowest-burn shard: work-stealing, deterministic under the
 *    virtual clock (ties resolve by id), logged per migration.
 *
 *  - **FleetCoordinator.** Global stream admission (optional cap,
 *    rejecting fleet-wide lowest-criticality streams first) and
 *    cross-shard degradation arbitration: per-shard pressure
 *    escalation is disabled on multi-shard fleets, and instead the
 *    coordinator escalates the lowest-criticality, most-slack
 *    streams *fleet-wide* when any shard's backlog pressure crosses
 *    the threshold — which vehicles lose quality is a fleet
 *    decision, not an accident of placement.
 *
 * Everything runs on seeded RNGs and explicit timestamps: the same
 * seed and shard count produce a bit-identical migration log and
 * fleet summary, and a single-shard fleet reproduces
 * MultiStreamServer::run exactly (same event order, same RNG draw
 * sequence — the equivalence test in tests/test_fleet.cc holds it
 * to that).
 */

#ifndef AD_FLEET_FLEET_HH
#define AD_FLEET_FLEET_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/loadgen.hh"
#include "serve/serve.hh"

namespace ad::fleet {

/** Rebalancing + arbitration knobs (`fleet.rebalance.*`). */
struct RebalanceParams
{
    bool enabled = true; ///< run the rebalancer at epoch boundaries.
    /** Epoch length (virtual ms): shards co-simulate in lockstep
        epochs; rebalancing and arbitration run at the boundaries. */
    double periodMs = 1000.0;
    /** A shard is hot when its burn exceeds divergence x the fleet
        median burn. */
    double divergence = 2.0;
    /** Burn floor: below this absolute burn (in units of the target
        miss rate) a shard is healthy and never sheds streams. */
    double minBurn = 1.0;
    /** Fleet-wide migration budget per epoch. */
    int maxMovesPerEpoch = 4;
    /** Backlog pressure (predicted busy / budget) above which a
        shard's streams become arbitration candidates. */
    double shedPressure = 0.8;
    /** Fleet-wide governor escalations per epoch. */
    int maxEscalationsPerEpoch = 8;

    /** Read every `fleet.rebalance.*` knob (defaults from *this). */
    static RebalanceParams fromConfig(const Config& cfg);
};

/** Fleet construction parameters. */
struct FleetParams
{
    int shards = 2; ///< engine replicas (`serve.shards`).
    /** Per-shard server template. `streams` and `stagger` are
        ignored (the loadgen defines the stream population and
        phases); `seed` and the modeled-engine seed are offset per
        shard so replicas draw independent jitter. */
    serve::ServeParams serve;
    /** Cost model of each owned modeled engine replica. */
    serve::ModeledEngineParams engine;
    RebalanceParams rebalance; ///< rebalancing + arbitration knobs.
    /** Global stream admission: max streams per shard (0 = no cap).
        Over cap, the coordinator rejects fleet-wide
        lowest-criticality streams first. */
    int maxStreamsPerShard = 0;
    /** Step shards on one thread per shard inside each epoch
        (identical results for modeled engines; the TSan target for
        measured ones). */
    bool parallel = false;

    /** Read `serve.shards`, `fleet.*` knobs (defaults from *this). */
    static FleetParams fromConfig(const Config& cfg);
};

/** One logged stream migration. */
struct Migration
{
    std::int64_t epoch = 0; ///< rebalancing epoch index.
    double tMs = 0.0;       ///< epoch boundary (virtual ms).
    int stream = -1;        ///< fleet-global stream id.
    int fromShard = -1;     ///< shard the stream left.
    int toShard = -1;       ///< shard the stream moved to.
    double burnFrom = 0.0;  ///< source-shard burn at the decision.
    double burnTo = 0.0;    ///< destination-shard burn.
};

/**
 * Placement authority: which shard serves which stream right now.
 * Slots are per-shard registry indices (see StreamRegistry); the
 * fleet-global stream id never changes across migrations.
 */
class FleetRegistry
{
  public:
    /** Registry for `streams` streams over `shards` shards; nothing
        is placed until place() is called. */
    FleetRegistry(int streams, int shards);

    /** Shard count the registry was built for. */
    int shards() const { return shards_; }

    /** Fleet-global stream count. */
    int streams() const { return static_cast<int>(locs_.size()); }

    /** Current shard of `stream` (-1 when not placed). */
    int shardOf(int stream) const
    {
        return locs_[static_cast<std::size_t>(stream)].shard;
    }

    /** Current per-shard slot of `stream`. */
    int slotOf(int stream) const
    {
        return locs_[static_cast<std::size_t>(stream)].slot;
    }

    /** True once `stream` has been placed on some shard. */
    bool placed(int stream) const { return shardOf(stream) >= 0; }

    /** Record (initial or migrated) placement. */
    void place(int stream, int shard, int slot);

    /** Stream ids currently on `shard`, ascending. */
    std::vector<int> streamsOf(int shard) const;

  private:
    struct Loc
    {
        int shard = -1;
        int slot = -1;
    };

    int shards_;
    std::vector<Loc> locs_;
};

/**
 * Fleet-wide admission and degradation arbitration policy. Pure
 * decision logic over criticality and slack; the ShardedServer
 * applies its choices to the shards.
 */
class FleetCoordinator
{
  public:
    /** Decide global admission for the load's stream population. */
    FleetCoordinator(const FleetParams& params,
                     const ScenarioLoadGen& load);

    /** Streams granted service under the global admission cap. */
    const std::vector<bool>& admitted() const { return admitted_; }

    /** Streams granted service. */
    int streamsAdmitted() const { return streamsAdmitted_; }

    /** Streams rejected by the global admission cap. */
    int streamsRejected() const
    {
        return static_cast<int>(admitted_.size()) - streamsAdmitted_;
    }

    /** One arbitration candidate (a resident stream of a pressured
        shard whose governor still has a level to give). */
    struct Candidate
    {
        int stream = -1;     ///< fleet-global stream id.
        int shard = -1;      ///< shard the stream resides on.
        int slot = -1;       ///< per-shard registry slot.
        int criticality = 0; ///< stream criticality class.
        double slackMs = 0.0; ///< deadline slack at the decision.
    };

    /**
     * Order candidates by the fleet shed policy — lowest
     * criticality first, most slack next, lowest id last — and
     * return at most maxEscalationsPerEpoch victims.
     */
    std::vector<Candidate>
    pickVictims(std::vector<Candidate> candidates) const;

  private:
    RebalanceParams rebalance_;
    std::vector<bool> admitted_;
    int streamsAdmitted_ = 0;
};

/** Per-shard row of the fleet report. */
struct ShardSummary
{
    int shard = -1;                ///< shard index.
    int streamsFinal = 0;          ///< resident streams at the end.
    std::int64_t arrivalsInjected = 0; ///< tape arrivals routed here.
    std::int64_t completions = 0;  ///< engine-served + coasted here.
    std::int64_t sheds = 0;        ///< shed here (event-time).
    LatencySummary admittedLatency; ///< engine-served latencies here.
    double goodputFps = 0.0;       ///< on-time frames per second.
    double burnRate = 0.0;         ///< final shard SLO burn.
    std::int64_t migrationsIn = 0;  ///< streams migrated onto here.
    std::int64_t migrationsOut = 0; ///< streams migrated away.
};

/** Aggregate outcome of one fleet run. */
struct FleetReport
{
    int shards = 0;          ///< engine replicas in the fleet.
    int streamsRequested = 0; ///< streams the tape carries.
    int streamsAdmitted = 0; ///< granted service (global admission).
    std::int64_t framesArrived = 0;  ///< tape arrivals, fleet-wide.
    std::int64_t framesAdmitted = 0; ///< frames served by an engine.
    std::int64_t framesDegraded = 0; ///< served at a degraded level.
    std::int64_t framesCoasted = 0;  ///< skipped while a batch ran.
    std::int64_t framesShed = 0;     ///< dropped by admission.
    std::int64_t deadlineMisses = 0; ///< served past the budget.
    LatencySummary admittedLatency; ///< fleet-wide, merged shards.
    double durationMs = 0.0;    ///< virtual span of the run.
    double goodputFps = 0.0;    ///< on-time frames/s, fleet-wide.
    double totalGoodputFps = 0.0; ///< includes late completions.
    double shedRate = 0.0;      ///< shed / arrived.
    std::int64_t epochs = 0;    ///< rebalancing epochs stepped.
    std::int64_t migrations = 0; ///< streams moved between shards.
    std::int64_t fleetEscalations = 0; ///< coordinator escalations.
    std::vector<ShardSummary> shardRows; ///< per-shard rows.
    std::vector<Migration> migrationLog; ///< every logged move.
    /** Final per-stream SLO snapshots by fleet-global id (rejected
        streams report the default snapshot). */
    std::vector<serve::SloSnapshot> streamSlo;
    /** Per-shard ServeReports (shard 0 of a single-shard fleet is
        field-identical to MultiStreamServer::run's report). */
    std::vector<serve::ServeReport> shardReports;

    /** Multi-line human-readable summary. */
    std::string toString() const;

    /**
     * The report as JSON (the `--fleet-json` document). Each shard
     * row nests its shard's ServeReport::toJson under "serve"; the
     * row's own "goodput_fps" is over the fleet's duration.
     */
    obs::json::Value toJson() const;

    /**
     * One message per broken invariant, naming it: frame
     * conservation; fleet shape; one shard row per shard, each
     * conserving its injected arrivals; shard sums equal to the
     * fleet's; one valid migration-log entry per migration; and
     * every shard's ServeReport::violations.
     */
    std::vector<std::string> violations() const;
};

/**
 * The fleet: N MultiStreamServer shards co-simulated in lockstep
 * rebalancing epochs over one virtual clock, driven by a
 * ScenarioLoadGen tape. run() plays the whole tape and returns the
 * fleet report; call it once.
 */
class ShardedServer
{
  public:
    /** Fleet over internally owned modeled engine replicas. */
    ShardedServer(const FleetParams& params,
                  const ScenarioLoadGen& load);

    /**
     * Fleet over caller-provided engine replicas (one per shard;
     * this is how the measured NnBatchEngine path runs).
     */
    ShardedServer(const FleetParams& params,
                  const ScenarioLoadGen& load,
                  std::vector<serve::BatchEngine*> engines);

    ~ShardedServer(); ///< out-of-line for the Shard pimpl.

    /** Play the scenario tape to completion. Call once. */
    FleetReport run();

    /** Placement authority (post-run inspection in tests). */
    const FleetRegistry& registry() const { return registry_; }

    /** Admission/arbitration policy (post-run inspection). */
    const FleetCoordinator& coordinator() const
    {
        return coordinator_;
    }

  private:
    struct Shard;

    void registerStreams();
    void stepShardsTo(double untilMs);
    void coordinate(std::int64_t epoch, double nowMs);
    void rebalance(std::int64_t epoch, double nowMs,
                   const std::vector<double>& burns);
    void arbitrate(std::int64_t epoch, double nowMs);
    void publishMetrics(const FleetReport& report);

    FleetParams params_;
    const ScenarioLoadGen& load_;
    FleetRegistry registry_;
    FleetCoordinator coordinator_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::vector<Migration> migrationLog_;
    std::int64_t fleetEscalations_ = 0;
    bool ran_ = false;
};

} // namespace ad::fleet

#endif // AD_FLEET_FLEET_HH
