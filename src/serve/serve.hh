/**
 * @file
 * Multi-stream serving layer, part 4: the server itself.
 *
 * MultiStreamServer multiplexes N vehicle streams over one shared
 * inference engine: arrivals flow through per-stream bounded
 * ingestion queues (freshest-frame drop), the deadline-aware
 * admission controller sheds or degrades what the machine cannot
 * serve in time, and the batch scheduler coalesces the admitted
 * requests of different streams into cross-stream NN batches.
 *
 * The server is a discrete-event loop over an explicit virtual
 * clock. What makes the clock tick is the engine: a pluggable
 * BatchEngine reports how long each batch took. Two engines ship:
 *
 *  - ModeledBatchEngine: seeded cost model (fixed + marginal per
 *    work unit, lognormal jitter, rare tail spikes), so scale
 *    sweeps over 32 streams x 100k frames run in milliseconds and
 *    are bit-reproducible; and
 *  - NnBatchEngine: the real thing -- Network::forwardBatch over
 *    the shared ThreadPool, timed with a Stopwatch, so the serving
 *    policies are exercised against genuine multithreaded kernels
 *    (this is the TSan target).
 *
 * Per-stream metrics are recorded into a server-local
 * MetricRegistry with labeled names ("serve.stream{id=3}.…") and
 * merged into the process-wide registry at the end of a run, so the
 * hot path never touches the global registry lock.
 */

#ifndef AD_SERVE_SERVE_HH
#define AD_SERVE_SERVE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/stats.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "serve/admission.hh"
#include "serve/batch_scheduler.hh"
#include "serve/stream.hh"

namespace ad {
class Config;
}

namespace ad::nn {
class Network;
struct KernelContext;
class Tensor;
}

namespace ad::serve {

/**
 * Executes one cross-stream batch and reports its engine-occupancy
 * cost in (virtual) milliseconds. Implementations may do real work.
 */
class BatchEngine
{
  public:
    virtual ~BatchEngine() = default;

    /** Run the batch; return how long the engine was busy (ms). */
    virtual double runBatch(const Batch& batch) = 0;
};

/** Cost-model knobs of the modeled engine. */
struct ModeledEngineParams
{
    /** Per-invocation fixed cost: weight streaming, launch, packing. */
    double fixedMs = 8.0;
    /** Marginal cost per work unit (one full-scale request). */
    double marginalMs = 9.0;
    /** Lognormal jitter sigma applied per batch (mean-preserving). */
    double jitterSigma = 0.08;
    /** Probability of a contention spike on one batch. */
    double spikeP = 0.002;
    /**
     * Multiplicative cost factor of a spike (weight eviction,
     * co-runner contention: the batch runs at half speed). The
     * admission controller's riskFactor must cover this for the
     * tail guarantee to hold.
     */
    double spikeFactor = 2.0;
    std::uint64_t seed = 17;

    /** Read the `engine.*` knobs (defaults from *this); callers
        derive the seed from the serve seed. */
    static ModeledEngineParams fromConfig(const Config& cfg);
};

/**
 * Seeded analytic engine: cost = fixed + marginal x total work
 * units, jittered. Deterministic for a given seed and call
 * sequence; never touches a real clock.
 */
class ModeledBatchEngine : public BatchEngine
{
  public:
    explicit ModeledBatchEngine(const ModeledEngineParams& params);

    double runBatch(const Batch& batch) override;

    /** Mean cost of a batch with the given total work units. */
    double meanCostMs(double totalCostScale) const;

  private:
    ModeledEngineParams params_;
    Rng rng_;
};

/**
 * Real-inference engine: stacks one prebuilt per-stream input
 * tensor per batch item and runs Network::forwardBatch under a
 * KernelContext (batch items shard across the ThreadPool), timing
 * the call with a wall-clock Stopwatch. Degraded cost scales are
 * honored by running the same network on the same input (the
 * measured path has no half-scale standby net); the point of this
 * engine is policy-under-real-kernels, not cost fidelity.
 */
class NnBatchEngine : public BatchEngine
{
  public:
    /**
     * @param net network shared by all streams (outlives the engine).
     * @param inputs one input tensor per stream id.
     * @param threads `nn.threads`-style request for the kernel pool.
     */
    NnBatchEngine(const nn::Network& net,
                  std::vector<nn::Tensor> inputs, int threads);
    ~NnBatchEngine() override;

    double runBatch(const Batch& batch) override;

    /**
     * Order-independent checksum over every output element produced
     * so far; two runs that served the same (stream, seq) set must
     * agree bit-for-bit regardless of how requests were batched.
     */
    double outputChecksum() const { return checksum_; }

  private:
    const nn::Network& net_;
    std::vector<nn::Tensor> inputs_;
    std::unique_ptr<nn::KernelContext> ctx_;
    double checksum_ = 0.0;
};

/** Server construction parameters. */
struct ServeParams
{
    int streams = 8;
    StreamParams stream;          ///< common per-stream knobs.
    BatchPolicy batch;
    AdmissionParams admission;
    pipeline::GovernorParams governor; ///< per-stream copy.
    /**
     * Stagger stream phases across one camera period (stream i
     * starts at i/N of the period) instead of arriving in lockstep.
     */
    bool stagger = true;
    /** Per-stream post-inference cost (fusion + planning glue), ms. */
    double postMeanMs = 1.5;
    double postJitterSigma = 0.2;
    /** Local serving cost of a coasted (tracking-only) frame, ms. */
    double coastMs = 2.0;
    std::uint64_t seed = 29;
    /** Prefix of metric names ("serve" unless a tool overrides). */
    std::string metricPrefix = "serve";
    /** Per-stream SLO accounting knobs. */
    SloParams slo;

    /**
     * Read the knobs adserve and adfleet share (defaults from
     * *this), the `gov.*` tuning keys included. The governors are
     * the admission controller's actuators: always on, budget =
     * deadline, so `--governor` and `gov.budget_ms` are not read.
     * Stream count, period and stagger are the caller's (adfleet's
     * come from its tape).
     */
    static ServeParams fromConfig(const Config& cfg);
};

/** Aggregate outcome of one serving run. */
struct ServeReport
{
    std::int64_t framesArrived = 0;
    std::int64_t framesAdmitted = 0;  ///< engine-served.
    std::int64_t framesDegraded = 0;  ///< admitted at degraded cost.
    std::int64_t framesCoasted = 0;   ///< served without the engine.
    std::int64_t framesShed = 0;      ///< admission + staleness drops.
    std::int64_t deadlineMisses = 0;  ///< engine-served, late.
    LatencySummary admittedLatency;   ///< arrival -> completion (ms).
    double durationMs = 0.0;          ///< virtual time span of the run.
    /** Engine-served frames completing inside the budget, per second. */
    double goodputFps = 0.0;
    /** All served frames (incl. coasted) inside budget, per second. */
    double totalGoodputFps = 0.0;
    double shedRate = 0.0;            ///< shed / arrived.
    std::int64_t batches = 0;
    double meanBatchSize = 0.0;
    double meanBatchWaitMs = 0.0;
    std::int64_t pressureEscalations = 0;
    /** Frames spent in each governor mode, summed over streams. */
    std::array<std::uint64_t, pipeline::kOperatingModeCount>
        framesInMode{};
    /** Final per-stream SLO snapshots, indexed by stream id. */
    std::vector<SloSnapshot> streamSlo;
    /** run()'s streams; 0 in a fleet shard's report, whose streams
        come and go by migration. */
    int streams = 0;
    /** run()'s camera frames per stream; 0 in a fleet shard's
        report, whose arrivals come from a tape. */
    std::int64_t framesPerStream = 0;

    /** Multi-line human-readable summary. */
    std::string toString() const;

    /** The report as JSON (the `--serve-json` document). */
    obs::json::Value toJson() const;

    /**
     * One message per broken invariant, naming it: admitted +
     * coasted + shed == arrived; SLO misses <= total; for run()
     * (framesPerStream > 0) also arrived == streams x
     * framesPerStream and one SLO entry per stream.
     */
    std::vector<std::string> violations() const;
};

/**
 * Callback surface for a supervising layer above one server. The
 * fleet tier registers one observer per shard to feed shard-level
 * SLO accounting (burn-rate rebalancing needs to see sheds, which
 * never reach a stream's completion-based SLO window) without the
 * server knowing anything about shards. All callbacks run on the
 * serving event loop at event time; a null observer costs one
 * branch per event.
 */
class ServeObserver
{
  public:
    virtual ~ServeObserver() = default;

    /** One frame finished (engine-served or coasted). */
    virtual void onCompletion(const StreamState& stream,
                              double latencyMs, bool engineServed) = 0;

    /**
     * One frame shed. `why` is "admission" (predicted late at
     * arrival), "stale" (evicted by the freshest-frame policy) or
     * "late" (dropped at dispatch).
     */
    virtual void onShed(const StreamState& stream, double nowMs,
                        const char* why) = 0;
};

/**
 * The multi-stream serving loop. Construction registers the
 * streams; run() plays `framesPerStream` camera frames per stream
 * through admission, batching and the engine on virtual time.
 *
 * The loop is also usable as a *steppable co-simulation*: the fleet
 * tier constructs per-shard servers with the ShardTag overload
 * (empty, streams arrive via importStream), feeds arrivals with
 * injectArrival and advances every shard's virtual clock in
 * lockstep epochs with stepUntil. run() is implemented on exactly
 * this machinery -- one event queue, one total event order -- so a
 * single-shard fleet run reproduces run() bit for bit.
 *
 * Ownership: the server holds one OwnershipToken per resident
 * stream and asserts it on every dispatch-side touch. exportStream
 * releases the token (migration handoff); a server that kept
 * dispatching a migrated-away stream dies on the stale token
 * instead of double-serving the vehicle.
 */
class MultiStreamServer
{
  public:
    /** Tag selecting the empty (fleet shard) construction path. */
    struct ShardTag
    {
    };

    MultiStreamServer(const ServeParams& params, BatchEngine& engine);

    /**
     * Fleet-shard server: starts with no streams (params.streams is
     * ignored); the fleet imports streams and injects arrivals.
     * @param shardId owner id stamped into ownership tokens.
     */
    MultiStreamServer(const ServeParams& params, BatchEngine& engine,
                      ShardTag, int shardId);

    /** Serve every stream for the given number of camera frames. */
    ServeReport run(std::int64_t framesPerStream);

    // ------------------------------------ fleet co-simulation API

    /** Feed one camera arrival of the stream at `slot`. */
    void injectArrival(int slot, std::int64_t seq, double timeMs);

    /** Process every pending event with time <= untilMs. */
    void stepUntil(double untilMs);

    /** Process every pending event (run to quiescence). */
    void drain();

    /** Time of the next pending event (+inf when idle). */
    double nextEventMs() const;

    /** Final accounting over resident streams; call once, at end. */
    ServeReport buildReport();

    /** Predicted engine-busy time ahead of a request arriving now. */
    double engineBacklogMs(double nowMs) const;

    /** Latest event time processed so far. */
    double lastEventMs() const { return lastEventMs_; }

    /** Register the supervising observer (nullptr to clear). */
    void setObserver(ServeObserver* observer) { observer_ = observer; }

    // ---------------------------------------- stream migration

    /**
     * True when the stream at `slot` is resident and quiescent (no
     * frame queued or in flight): only such streams may migrate, so
     * no pending event can ever reference a vacated slot.
     */
    bool migratable(int slot) const;

    /**
     * Hand the stream at `slot` off (releases this server's
     * ownership token and vacates the slot). Fatal unless
     * migratable(slot).
     */
    std::unique_ptr<StreamState> exportStream(int slot);

    /**
     * Adopt a stream handed off by another server; acquires a fresh
     * ownership token. @return the slot it landed in.
     */
    int importStream(std::unique_ptr<StreamState> stream);

    /**
     * Escalate the governor of the stream at `slot` one mode level
     * (fleet degradation arbitration; the per-server analogue is
     * AdmissionController::evaluatePressure). No-op above `cap`.
     * @return true when a level was actually taken.
     */
    bool escalateStream(int slot, std::int64_t frame,
                        pipeline::OperatingMode cap,
                        const char* reason);

    // ------------------------------------------------- accessors

    const StreamRegistry& registry() const { return registry_; }
    const BatchScheduler& scheduler() const { return scheduler_; }
    const AdmissionController& admission() const { return admission_; }

    /** Engine-served completion latencies recorded on this server. */
    const LatencyRecorder& admittedRecorder() const
    {
        return admittedRec_;
    }

    /** Engine-served frames that completed inside their budget. */
    std::int64_t onTimeServed() const { return onTimeServed_; }

    /** Coasted frames that completed inside their budget. */
    std::int64_t onTimeCoasted() const { return onTimeCoasted_; }

    /**
     * Server-local metric registry (per-stream labeled counters and
     * latency histograms). buildReport() merges it into the global
     * registry when metrics are enabled.
     */
    const obs::MetricRegistry& localMetrics() const { return local_; }

  private:
    /** One discrete event (ordered by time, kind, stream, seq). */
    struct Event
    {
        enum class Kind
        {
            Completion = 0,
            Arrival = 1,
            EngineCheck = 2
        };

        double timeMs = 0.0;
        Kind kind = Kind::Arrival;
        int stream = -1;
        std::int64_t seq = -1;
        double arrivalMs = 0.0;
        bool engineServed = false; ///< Completion: needed the engine.

        bool
        operator>(const Event& o) const
        {
            if (timeMs != o.timeMs)
                return timeMs > o.timeMs;
            if (kind != o.kind)
                return static_cast<int>(kind) >
                       static_cast<int>(o.kind);
            if (stream != o.stream)
                return stream > o.stream;
            return seq > o.seq;
        }
    };

    void processEvent(const Event& ev);
    double samplePost();
    void scheduleCheck(double at);
    void emitTransitions(double now);
    void promote(const FrameTicket& ticket, double now);
    void shedLate(const InferenceRequest& req, double now);
    void maybeDispatch(double now);
    /** Resident stream at `slot` with a current ownership token. */
    StreamState& ownedStream(int slot, const char* what);
    void publishMetrics();

    ServeParams params_;
    BatchEngine& engine_;
    StreamRegistry registry_;
    BatchScheduler scheduler_;
    AdmissionController admission_;
    Rng postRng_;
    obs::MetricRegistry local_;
    ServeObserver* observer_ = nullptr;
    int shardId_ = 0;

    std::priority_queue<Event, std::vector<Event>,
                        std::greater<Event>>
        events_;
    /** Self-schedule arrivals up to this many frames (run() mode);
        -1 in fleet mode, where arrivals are injected. */
    std::int64_t framesPerStream_ = -1;
    double engineFreeAtMs_ = 0.0;
    double pendingCheckMs_ = 0.0; ///< set to +inf in the ctor.
    std::int64_t globalArrivals_ = 0;
    LatencyRecorder admittedRec_;
    std::int64_t onTimeServed_ = 0;
    std::int64_t onTimeCoasted_ = 0;
    double lastEventMs_ = 0.0;
    std::vector<OwnershipToken> tokens_;  ///< by slot.
    std::vector<std::size_t> txSeen_;     ///< transitions emitted, by slot.
};

} // namespace ad::serve

#endif // AD_SERVE_SERVE_HH
