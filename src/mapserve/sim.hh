/**
 * @file
 * Fleet / map-service co-simulation on one virtual clock.
 *
 * MapServeSim closes the loop the tentpole asks for: the fleet
 * loadgen's arrival tape drives per-vehicle localization frames,
 * each frame needs the prior-map tile under the vehicle's pose, and
 * the shared TileServer is the only place tiles come from. One
 * discrete-event loop orders everything -- frame arrivals, backend
 * batch completions, dispatch checks and merge epochs -- with a
 * total (time, kind, vehicle, seq) order, so a run is a pure
 * function of its seeds: the triple-run determinism bar in
 * BENCH_map.json compares this sim's canonical summary and the
 * server's version-stamp log bit for bit.
 *
 * Per frame the vehicle advances along its lane at its tape speed,
 * looks up the tile under its pose in the on-board MapClient cache
 * and either localizes (warm) or *stalls* (cold): the frame blocks
 * on a demand fetch and subsequent frames coast until it lands --
 * exactly the cold-tile LOC stall the pose-driven prefetcher
 * exists to eliminate. The prefetcher extrapolates the pose
 * `horizonMs` ahead along the velocity vector and warms the
 * predicted tile before the vehicle arrives; steady-state stalls
 * (after each vehicle's unavoidable first acquisition) are the
 * headline zero-bar.
 *
 * Appearance drift closes the update loop: the world's illumination
 * state ramps with virtual time, warm-tile localization error grows
 * with the gap between stored and live appearance, and vehicles
 * crossing an error threshold push crowd-sourced descriptor
 * refreshes that the server merges at epoch boundaries. Stale
 * readers notice the version bump on their next hit and re-fetch in
 * the background -- error converges instead of ratcheting.
 *
 * Batch decode optionally shards across a thread pool
 * (`mapserve.decode-threads`): decodeTile writes disjoint
 * preallocated slots, installs replay serially in batch order, so
 * the parallel path is bitwise-identical to the serial one at any
 * thread count -- the test_mapserve TSan case.
 */

#ifndef AD_MAPSERVE_SIM_HH
#define AD_MAPSERVE_SIM_HH

#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/thread_pool.hh"
#include "fleet/loadgen.hh"
#include "mapserve/client.hh"
#include "mapserve/server.hh"
#include "mapserve/world.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"

namespace ad::mapserve {

/** Co-simulation knobs (`mapserve.*` minus server/client scopes). */
struct MapServeSimParams
{
    WorldParams world;        ///< synthetic world generation.
    TileServerParams server;  ///< shared map-server knobs.
    MapClientParams client;   ///< per-vehicle client knobs.
    /**
     * Illumination drift rate: appearance units per virtual minute
     * (clamped at 1.0). 0 freezes appearance -- no update traffic.
     */
    double driftPerMin = 0.0;
    /**
     * Mean per-tile Hamming error (bits) above which a vehicle
     * pushes crowd-sourced descriptor refreshes for the tile.
     */
    double updateThresholdBits = 6.0;
    bool updates = true;      ///< enable the crowd-sourced push path.
    /**
     * Steady-state accounting begins here: a stall before this
     * virtual time (or before the vehicle's first warm frame)
     * counts as cold-start transient, not steady-state failure --
     * at fleet scale the t=0 joint cold start of every vehicle
     * congests the backend in a way no deployment ever sees.
     */
    double warmupMs = 5000.0;
    /**
     * Batch-decode worker threads (0 = decode serially on the event
     * loop). Any value yields bitwise-identical results.
     */
    int decodeThreads = 0;
    std::uint64_t seed = 47;  ///< vehicle placement seed.

    /** Read every sim-scope `mapserve.*` knob (defaults from *this);
        nested world/server/client params are read by their own
        fromConfig. */
    static MapServeSimParams fromConfig(const Config& cfg);
};

/** Aggregate outcome of one co-simulation run. */
struct MapServeReport
{
    int vehicles = 0;             ///< streams in the tape.
    std::int64_t frames = 0;      ///< localization frames arrived.
    std::int64_t framesWarm = 0;  ///< tile cached: localized.
    std::int64_t framesStalled = 0; ///< cold tile: blocked on fetch.
    std::int64_t framesCoasted = 0; ///< arrived while stalled.
    /** Stalls after the vehicle's first *warm* frame, i.e.\ in
        steady-state operation -- the prefetch bar drives this to
        zero. */
    std::int64_t steadyStalls = 0;
    /** Cold-start transient: the unavoidable first acquisition plus
        any boundary crossed while still draining it. */
    std::int64_t coldStarts = 0;
    std::int64_t prefetchIssued = 0; ///< speculative fetches queued.
    std::int64_t prefetchShed = 0;   ///< admission-shed prefetches.
    /** Stalls with the tile's prefetch already on the wire (the
        prefetch was right but late). */
    std::int64_t prefetchLate = 0;
    std::int64_t staleReads = 0;  ///< warm hits older than the server.
    std::int64_t staleRefreshes = 0; ///< background re-fetches issued.
    std::int64_t updatesPushed = 0;  ///< descriptor refreshes pushed.
    LatencySummary fetchLatency;  ///< submit -> delivery, all fetches.
    LatencySummary demandLatency; ///< demand fetches only.
    LatencySummary stallMs;       ///< stall begin -> unblock.
    double durationMs = 0.0;      ///< virtual span of the run.
    double prefetchHitRate = 0.0; ///< warm / (warm + stalled).
    double compressionRatio = 0.0; ///< raw bytes / wire bytes.
    /** Mean warm-tile appearance error per merge epoch (bits) --
        the convergence curve under drift. */
    std::vector<double> epochErrBits;
    double peakErrBits = 0.0;     ///< worst epoch mean error.
    double finalErrBits = 0.0;    ///< last epoch mean error.
    TileServerStats server;       ///< server-side counters.
    MapClientStats clients;       ///< client counters, fleet-summed.
    std::string versionLog;       ///< the server's merge log.

    /** Multi-line human-readable summary. */
    std::string toString() const;

    /**
     * The report as JSON (the `--map-json` document). The version
     * log's FNV-1a is "version_log_fnv", 16 hex digits: a double
     * cannot hold it.
     */
    obs::json::Value toJson() const;

    /**
     * One message per broken invariant, naming it: vehicles and
     * frames >= 1; frame, stall-split, request and cache
     * conservation; 0 < bytes served <= raw once anything is
     * served; updates merged <= pushed.
     */
    std::vector<std::string> violations() const;
};

/**
 * The co-simulation. Construction captures the tape; run() plays it
 * to quiescence and builds the report. One-shot: construct a fresh
 * sim per run.
 */
class MapServeSim
{
  public:
    /** @param load arrival tape + per-stream speeds (outlives us). */
    MapServeSim(const MapServeSimParams& params,
                const fleet::ScenarioLoadGen& load);

    /** Play the full tape to quiescence and build the report. */
    MapServeReport run();

    /** The server (post-run inspection in tests). */
    const TileServer& server() const { return server_; }

    /** Vehicle `v`'s client (post-run inspection in tests). */
    const MapClient& client(int v) const
    {
        return clients_[static_cast<std::size_t>(v)];
    }

  private:
    /** One discrete event, ordered by (time, kind, vehicle, seq). */
    struct Event
    {
        enum class Kind
        {
            Merge = 0,      ///< delta-merge epoch boundary.
            BatchDone = 1,  ///< backend batch delivery.
            Arrival = 2,    ///< localization frame.
            Dispatch = 3    ///< batch-formation check.
        };

        double timeMs = 0.0;
        Kind kind = Kind::Arrival;
        int vehicle = -1;
        std::int64_t seq = -1; ///< frame seq / in-flight batch index.

        bool
        operator>(const Event& o) const
        {
            if (timeMs != o.timeMs)
                return timeMs > o.timeMs;
            if (kind != o.kind)
                return static_cast<int>(kind) >
                       static_cast<int>(o.kind);
            if (vehicle != o.vehicle)
                return vehicle > o.vehicle;
            return seq > o.seq;
        }
    };

    void onArrival(int v, std::int64_t seq, double now);
    void onBatchDone(std::size_t index, double now);
    void onMerge(double now);
    void scheduleDispatch(double now);
    void submitFetch(int v, TileId tile, bool prefetch, double now,
                     double deadlineMs);
    /** Warm every tile under the pose predicted over the horizon. */
    void prefetchPath(int v, TileId current, double x, double now);
    void pushRefresh(int v, TileId tile, float appearance,
                     double now);
    double appearanceAt(double now) const;
    void flushEpochError();

    MapServeSimParams params_;
    const fleet::ScenarioLoadGen& load_;
    WorldModel world_;
    TileServer server_;
    std::vector<MapClient> clients_;
    std::unique_ptr<ThreadPool> decodePool_;

    std::priority_queue<Event, std::vector<Event>,
                        std::greater<Event>>
        events_;
    std::vector<BatchResult> inFlightBatches_;
    double pendingDispatchMs_ = 0.0; ///< +inf when none scheduled.

    // Per-vehicle motion and stall state.
    std::vector<double> x0_, y0_, speed_;
    std::vector<double> stalledUntil_, stallStartMs_;
    std::vector<bool> hadWarmFrame_;
    std::vector<std::int64_t> reqSeq_, updSeq_;

    // Accounting.
    MapServeReport report_;
    LatencyRecorder fetchRec_, demandRec_, stallRec_;
    double epochErrSum_ = 0.0;
    std::int64_t epochErrCount_ = 0;
    double lastEventMs_ = 0.0;
    obs::MetricRegistry local_;
};

} // namespace ad::mapserve

#endif // AD_MAPSERVE_SIM_HH
