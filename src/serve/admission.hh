/**
 * @file
 * Multi-stream serving layer, part 3: deadline-aware admission
 * control and load shedding.
 *
 * When the offered load (streams x camera rate x inference cost)
 * exceeds what the engine can serve, *something* must give. Without
 * admission control it is the tail that gives: every frame queues,
 * every stream misses the 100 ms budget, and the machine produces
 * plenty of throughput but zero goodput (frames the vehicle can
 * still act on). The admission controller gives the machine a
 * better failure mode, in two tiers:
 *
 *  - **Per-frame shedding.** At arrival, the predicted completion
 *    (engine backlog + batching window + expected cost + headroom)
 *    is checked against the frame's absolute deadline. A frame that
 *    cannot make it is shed *now*, before it wastes engine time
 *    producing a result the vehicle will ignore.
 *
 *  - **Per-stream degradation.** When sustained backlog pressure
 *    crosses a threshold, the controller escalates the per-stream
 *    DegradationGovernor of the stream with the *most slack* first
 *    (largest margin between its observed tail latency and its
 *    budget): that stream runs the half-scale detector or coasts on
 *    tracking, cutting its engine demand the most while hurting the
 *    least. Streams already skirting their deadline are never the
 *    first to lose quality. Recovery rides the governor's own
 *    hysteresis and exponential backoff (no second mechanism).
 *
 * Slack comes from completion data: a peak-decay tail estimate per
 * stream, tightened by its SLO window's p99 (see StreamState). All
 * decisions are pure functions of explicit timestamps and observed
 * latencies -- no wall clock, fully deterministic.
 */

#ifndef AD_SERVE_ADMISSION_HH
#define AD_SERVE_ADMISSION_HH

#include <cstdint>

#include "serve/stream.hh"

namespace ad::serve {

/** Admission-control knobs. */
struct AdmissionParams
{
    bool enabled = true;       ///< master switch (off = admit all).
    /** Safety margin added to the predicted completion (ms). */
    double headroomMs = 5.0;
    /**
     * Worst-case multiplier on the expected engine cost in the
     * admission and dispatch-time deadline tests. The tail budget
     * is a guarantee, not an average: a frame is only served when
     * even a contention-spiked batch (see ModeledEngineParams::
     * spikeFactor) would finish inside its deadline. Trading shed
     * rate for tail predictability is the whole point of the layer.
     */
    double riskFactor = 2.2;
    /** Initial expected engine cost of one full request (ms). */
    double initialCostMs = 15.0;
    /** EWMA weight of new per-request cost observations. */
    double costEwmaAlpha = 0.2;
    /** Geometric decay of the per-stream peak latency estimate. */
    double tailDecay = 0.97;
    /**
     * Backlog pressure (predicted engine busy time / budget) above
     * which one most-slack stream is escalated per evaluation.
     */
    double degradePressure = 0.8;
    /**
     * Run the per-server pressure-escalation policy. The fleet layer
     * turns this off on multi-shard servers: which stream loses
     * quality first is then a fleet-wide decision (lowest criticality
     * across every shard), made by the FleetCoordinator instead of by
     * whichever shard happens to saturate.
     */
    bool pressureEnabled = true;
    /** Arrivals between pressure evaluations. */
    int evalPeriodFrames = 8;
    /**
     * Highest mode admission pressure may escalate a stream to.
     * SAFE_STOP stays reserved for the stream's own fault handling:
     * an oversubscribed server sheds work, it does not brake cars.
     */
    pipeline::OperatingMode maxPressureMode =
        pipeline::OperatingMode::TrackingOnly;
    /** Engine cost scale of a degraded (half-scale) inference. */
    double degradedCostScale = 0.25;
};

/** What to do with one arriving frame. */
enum class AdmitAction
{
    Admit, ///< enqueue for (possibly degraded) engine inference.
    Coast, ///< serve locally from tracking; no engine work.
    Shed,  ///< drop: it cannot make its deadline anyway.
};

/** Admission decision for one frame. */
struct AdmitDecision
{
    AdmitAction action = AdmitAction::Admit;
    double costScale = 1.0; ///< engine cost scale when admitted.
    bool degraded = false;  ///< admitted at degraded scale.
};

/**
 * The admission controller. Owns no streams -- it reads and
 * actuates StreamRegistry state -- and holds only the online cost
 * estimate plus the pressure-evaluation cadence.
 */
class AdmissionController
{
  public:
    AdmissionController(const AdmissionParams& params,
                        StreamRegistry& registry);

    /**
     * Decide one arriving frame.
     *
     * @param ticket the frame (stream, seq, arrival).
     * @param nowMs current virtual time.
     * @param engineBacklogMs predicted engine-busy time ahead of
     *        this request (in-flight remainder + queued work).
     * @param batchWindowMs worst-case batching hold (policy window).
     */
    AdmitDecision decide(const FrameTicket& ticket, double nowMs,
                         double engineBacklogMs, double batchWindowMs);

    /**
     * Feed back one completion: updates the stream's tail estimate,
     * watchdog and governor. Coasted frames pass engineServed =
     * false so the governor still sees its clean-frame stream (it
     * could never recover from TRACKING_ONLY otherwise) without
     * polluting the engine-served latency record.
     */
    void onCompletion(const FrameTicket& ticket, double latencyMs,
                      bool engineServed = true);

    /**
     * Feed back one executed batch to the online cost estimate:
     * `costMs` spread over `totalCostScale` work units.
     */
    void onBatchExecuted(double costMs, double totalCostScale);

    /**
     * Periodic pressure policy, called once per arrival: every
     * `evalPeriodFrames` arrivals, if backlog pressure exceeds the
     * threshold, escalate the most-slack stream one level (capped at
     * maxPressureMode).
     */
    void evaluatePressure(std::int64_t globalFrame,
                          double engineBacklogMs);

    /** Online estimate of one full request's engine cost (ms). */
    double expectedCostMs() const { return expectedCostMs_; }

    /** Streams escalated by pressure since construction. */
    std::int64_t pressureEscalations() const
    {
        return pressureEscalations_;
    }

    const AdmissionParams& params() const { return params_; }

  private:
    AdmissionParams params_;
    StreamRegistry& registry_;
    double expectedCostMs_;
    int arrivalsSinceEval_ = 0;
    std::int64_t pressureEscalations_ = 0;
};

} // namespace ad::serve

#endif // AD_SERVE_ADMISSION_HH
