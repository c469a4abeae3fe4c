/**
 * @file
 * Multi-stream serving layer, part 1: stream identity and ingestion.
 *
 * The paper's constraints (Section 2.4) are stated for one vehicle:
 * <= 100 ms at the 99.99th percentile, >= 10 fps. The serving layer
 * grows that into "N vehicles share this machine": every vehicle is a
 * *stream* of camera frames arriving at the camera period, and the
 * machine must keep each admitted stream inside the same per-vehicle
 * constraint while serving as many streams as the hardware allows.
 *
 * This header holds the per-stream state: a bounded ingestion queue
 * with a freshest-frame drop policy (a stale camera frame is worse
 * than no frame -- the vehicle would react to old traffic), the
 * per-stream tail estimate and SLO window admission-control slack
 * is measured against, and the per-stream DegradationGovernor the
 * admission controller actuates when the machine is oversubscribed.
 *
 * Everything here runs on an explicit timestamp ("virtual clock"):
 * like the DegradationGovernor, the serving layer never reads the
 * wall clock itself, so a modeled run is bit-reproducible and the
 * tests need no sleeps.
 */

#ifndef AD_SERVE_STREAM_HH
#define AD_SERVE_STREAM_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "common/stats.hh"
#include "obs/deadline.hh"
#include "pipeline/governor.hh"
#include "serve/slo.hh"

namespace ad::serve {

/** Per-stream knobs (paper defaults: 10 fps camera, 100 ms budget). */
struct StreamParams
{
    double framePeriodMs = 100.0; ///< camera period (>= 10 fps).
    double deadlineMs = 100.0;    ///< per-frame reaction budget.
    int queueDepth = 1;           ///< frames that may wait unadmitted.
    double phaseMs = 0.0;         ///< arrival phase offset.
};

/** One camera frame of one stream, identified by (stream, seq). */
struct FrameTicket
{
    int stream = -1;
    std::int64_t seq = -1;
    double arrivalMs = 0.0;

    /** Absolute completion deadline of this frame. */
    double
    deadlineMs(const StreamParams& params) const
    {
        return arrivalMs + params.deadlineMs;
    }
};

/**
 * Bounded ingestion queue with a freshest-frame drop policy: when a
 * frame arrives while the queue is full, the *oldest* queued frame is
 * evicted (returned to the caller for accounting) and the new frame
 * is kept. The vehicle always waits on the newest view of the road.
 */
class FrameQueue
{
  public:
    /** @param depth maximum frames waiting (>= 0; 0 never queues). */
    explicit FrameQueue(int depth);

    /**
     * Offer one frame. Returns the evicted (stale) frame when the
     * queue was full, or the offered frame itself when depth is 0.
     */
    std::optional<FrameTicket> push(const FrameTicket& ticket);

    /** Remove and return the oldest queued frame. */
    std::optional<FrameTicket> pop();

    std::size_t size() const { return queue_.size(); }
    bool empty() const { return queue_.empty(); }
    int depth() const { return depth_; }

  private:
    int depth_;
    std::deque<FrameTicket> queue_;
};

/**
 * Capability to dispatch frames of one stream. The serving layer
 * used to assume a single owner per stream for the stream's whole
 * lifetime; the fleet layer migrates streams between shards, and a
 * migration bug (two shards both believing they own a stream) would
 * double-dispatch frames. The token makes ownership explicit: it is
 * issued by StreamState::acquireOwnership, invalidated by
 * releaseOwnership (which bumps the stream's handoff epoch), and
 * every dispatch-side touch asserts the token is still current. A
 * stale token -- the race a missed handoff would produce -- is a
 * fatal error, not a silent double dispatch.
 */
struct OwnershipToken
{
    int stream = -1;         ///< stream id the token covers.
    std::uint64_t epoch = 0; ///< handoff generation it was issued at.

    bool valid() const { return stream >= 0; }
};

/** Lifetime counters of one stream (see DESIGN.md section 9). */
struct StreamStats
{
    std::int64_t arrived = 0;     ///< camera frames produced.
    std::int64_t admitted = 0;    ///< sent to the inference engine.
    std::int64_t degraded = 0;    ///< admitted at degraded cost.
    std::int64_t coasted = 0;     ///< served locally (no engine work).
    std::int64_t shedAdmission = 0; ///< rejected by admission control.
    std::int64_t shedStale = 0;   ///< evicted by freshest-frame policy.
    std::int64_t shedLate = 0;    ///< dropped at dispatch: now too late.
    std::int64_t completed = 0;   ///< engine-served frames finished.
    std::int64_t missedDeadline = 0; ///< completed past the budget.
};

/**
 * Everything the serving layer knows about one stream: parameters,
 * ingestion queue, whether a frame is currently in flight, the tail
 * estimate and SLO window that set its admission slack, and the
 * degradation governor the admission controller escalates under
 * load pressure.
 */
struct StreamState
{
    StreamState(int id, const StreamParams& params,
                const pipeline::GovernorParams& governorParams,
                const SloParams& sloParams = {});

    int id;
    StreamParams params;
    FrameQueue queue;
    StreamStats stats;
    /** Per-stream control loop; admission control escalates it under
        pressure. */
    pipeline::DegradationGovernor governor;

    /** True while a frame of this stream is queued for or in service. */
    bool inFlight = false;

    /**
     * Peak-decay tail estimate of recent served latencies (ms): jumps
     * to any new maximum, decays geometrically otherwise. Slack is
     * measured against this rather than the mean so one spike
     * immediately revokes a stream's "sheddable" status.
     */
    double tailEstimateMs = 0.0;

    /** Latency of engine-served (admitted) frames, arrival->done. */
    LatencyRecorder servedLatency;

    /** Rolling-window SLO accountant (percentiles, burn, goodput). */
    StreamSlo slo;

    /**
     * Record one completion into the tail estimate, SLO window and
     * governor. Coasted frames (engineServed = false) feed the
     * control loop -- the governor needs clean frames to recover --
     * but stay out of the engine-served latency record.
     */
    void observeCompletion(std::int64_t frame, double latencyMs,
                           double tailDecay, bool engineServed);

    /**
     * Budget minus the tail estimate, floored at zero. Once the SLO
     * window can resolve a p99 it tightens the estimate: slack is
     * measured against the larger of the peak-decay estimate and the
     * window tail, so a stream whose tail is quietly climbing loses
     * its "sheddable" slack before a single spike lands.
     */
    double slackMs() const;

    // ------------------------------------------------ ownership

    /**
     * Take exclusive dispatch ownership. Fatal if the stream is
     * already owned: a shard may only import a stream the previous
     * owner has explicitly released (the handoff protocol), never
     * steal one.
     */
    OwnershipToken acquireOwnership(int owner);

    /**
     * Release ownership with the token it was granted under. Bumps
     * the handoff epoch so every outstanding copy of the token goes
     * stale. Fatal on a stale or foreign token.
     */
    void releaseOwnership(const OwnershipToken& token);

    /** True when the token still confers dispatch rights. */
    bool ownershipCurrent(const OwnershipToken& token) const;

    /**
     * Assert the token is current before a dispatch-side touch;
     * fatal (with `what` in the message) otherwise. This is the
     * assert that turns a double-dispatch race into a crash.
     */
    void assertOwnership(const OwnershipToken& token,
                         const char* what) const;

    /** Current owner id, or -1 when unowned. */
    int owner() const { return owner_; }

    /** Handoff generation (bumped by every release). */
    std::uint64_t ownershipEpoch() const { return epoch_; }

  private:
    int owner_ = -1;
    std::uint64_t epoch_ = 0;
};

/**
 * Owner of all registered streams. Lookups are slot-indexed and the
 * serving hot path never allocates or locks here. In single-server
 * use the slot space is dense and slot == stream id. The fleet layer
 * migrates streams between per-shard registries: extract() leaves a
 * vacant slot behind and adopt() reuses the lowest vacant slot, so a
 * shard's slot indices stay stable for its resident streams while a
 * migrated-in stream keeps its fleet-global StreamState::id.
 */
class StreamRegistry
{
  public:
    /**
     * Register one stream.
     * @return its slot (0-based; equals the stream id in
     *         single-server use where slots are dense).
     */
    int addStream(const StreamParams& params,
                  const pipeline::GovernorParams& governorParams,
                  const SloParams& sloParams = {});

    /**
     * Adopt an existing stream (migration import). Reuses the lowest
     * vacant slot, appending when none is vacant.
     * @return the slot it landed in.
     */
    int adopt(std::unique_ptr<StreamState> stream);

    /**
     * Remove the stream at `slot` (migration export), leaving the
     * slot vacant. Fatal when the slot is already vacant.
     */
    std::unique_ptr<StreamState> extract(int slot);

    /** Slot count, including vacant slots. */
    std::size_t size() const { return streams_.size(); }

    /** Occupied slots. */
    std::size_t active() const;

    StreamState& stream(int slot) { return *streams_[slot]; }
    const StreamState& stream(int slot) const
    {
        return *streams_[slot];
    }

    /** Stream at `slot`, or nullptr when the slot is vacant. */
    StreamState* find(int slot);
    const StreamState* find(int slot) const;

    /** The lowest-slot occupied stream, or nullptr when empty. */
    const StreamState* firstActive() const;

    /** Sum of `arrived` over all streams. */
    std::int64_t totalArrived() const;

    /**
     * The slot with the largest admission slack among those whose
     * governor still has a level to give (mode < cap). Ties resolve
     * to the lowest slot, keeping the policy deterministic. Returns
     * -1 when every stream is already at or beyond the cap.
     */
    int mostSlackStream(pipeline::OperatingMode cap) const;

  private:
    std::vector<std::unique_ptr<StreamState>> streams_;
};

} // namespace ad::serve

#endif // AD_SERVE_STREAM_HH
