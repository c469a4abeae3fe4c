/**
 * @file
 * The end-to-end autonomous driving pipeline (Figure 1), measured
 * mode: camera frames flow into the object-detection engine (1a) and
 * the localization engine (1b) in parallel; detections feed the object
 * tracker (1c); tracked objects and the vehicle location fuse onto one
 * world coordinate space (2); the motion planner produces trajectories
 * (3); the mission planner re-routes only on deviation (4); and the
 * vehicle controller follows the plan (5).
 *
 * Per-stage latencies are recorded per frame; the end-to-end latency
 * composes as max(LOC, DET + TRA) + FUSION + MOTPLAN, reflecting the
 * parallel branches.
 *
 * Every frame runs through the frame-graph executor (frame_graph.hh)
 * over one declared stage DAG. At `pipeline.depth` 1 (the default)
 * each frame runs to completion on the calling thread, stages in
 * topological order; at depth D >= 2 stages of up to D consecutive
 * frames overlap on the worker pool. Outputs are deterministic at
 * every depth, worker count, and schedule seed, and with the governor
 * off they are bitwise-identical across depths.
 */

#ifndef AD_PIPELINE_PIPELINE_HH
#define AD_PIPELINE_PIPELINE_HH

#include <deque>
#include <memory>
#include <mutex>
#include <optional>

#include "common/stats.hh"
#include "detect/yolo.hh"
#include "obs/deadline.hh"
#include "fusion/fusion.hh"
#include "pipeline/fault_injector.hh"
#include "pipeline/frame_graph.hh"
#include "pipeline/governor.hh"
#include "planning/conformal.hh"
#include "planning/control.hh"
#include "planning/mission.hh"
#include "slam/localizer.hh"
#include "track/pool.hh"

namespace ad::pipeline {

/** Pipeline construction parameters. */
struct PipelineParams
{
    detect::DetectorParams detector;
    track::PoolParams trackerPool;
    slam::LocalizerParams localizer;
    planning::ConformalParams motionPlanner;
    planning::MissionParams mission;
    planning::ControlParams control;
    double laneCenterY = 5.25; ///< corridor centerline for MOTPLAN.

    /**
     * The `nn.threads` knob applied to every engine at once. 0 leaves
     * the per-engine `threads` fields untouched; any other value
     * overrides DET, TRA and LOC (1 = serial pre-parallel behavior,
     * < 0 = hardware concurrency). Outputs are identical either way.
     */
    int nnThreads = 0;

    /**
     * The `nn.precision` knob applied to both DNN engines at once:
     * Int8 lowers the DET and TRA networks to the quantized kernel
     * path (nn/quant.hh), including the governor's warm standby
     * detector, which inherits the detector params. Fp32 (the
     * default) leaves the per-engine `precision` fields untouched.
     * LOC has no DNN and is unaffected.
     */
    nn::Precision nnPrecision = nn::Precision::Fp32;

    /**
     * The `nn.fuse` knob applied to both DNN engines at once: run the
     * graph-lowering pass (fused conv/FC+activation epilogues, direct
     * convolutions; nn/fusion.hh) on the DET and TRA networks at
     * build. On by default; off keeps the unfused reference path.
     * Outputs are bitwise-identical either way.
     */
    bool nnFuse = true;

    /**
     * The `nn.arena` knob applied to both DNN engines at once: plan
     * each network's intermediates into one static arena at build so
     * the per-frame forward performs zero tensor allocations
     * (nn/planner.hh). On by default; bitwise-identical outputs.
     */
    bool nnArena = true;

    /**
     * Deadline watchdog knobs (100 ms budget by default). The monitor
     * observes every frame -- it is a handful of comparisons -- and
     * never influences engine behavior, so outputs are identical
     * whatever the budget.
     */
    obs::DeadlineParams deadline;

    /**
     * Fault injection (`fault.*` knobs / adrun `--faults`). Disabled
     * by default; when disabled the pipeline draws nothing from the
     * fault stream and behaves exactly as before.
     */
    FaultInjectorParams faults;

    /**
     * The `pipeline.depth` knob: max frames in flight (>= 1). 1 (the
     * default) runs each frame to completion on the calling thread,
     * so submitFrame() returns exactly that frame's output. D >= 2
     * overlaps stages of consecutive frames on the worker pool -- DET
     * of frame k runs while TRA/LOC/FUSION of frame k-1 are in flight
     * -- and outputs trail submissions by up to D-1 frames. Each
     * graph edge buffers at most D frames, so admission backpressure
     * is bounded. Outputs are deterministic (schedule-independent) at
     * every depth; the governor's actuation plan lags by D-1 frames
     * of feedback (see DESIGN.md).
     */
    int depth = 1;

    /**
     * The `pipeline.seed` knob: seed for the executor's dispatch-order
     * shuffle. 0 (default) dispatches ready stages deterministically
     * by (frame, topological rank); any other value perturbs only the
     * real dispatch order, never outputs -- the determinism tests
     * sweep it to prove schedule independence.
     */
    std::uint64_t scheduleSeed = 0;

    /**
     * Degradation governor (`gov.*` knobs / adrun `--governor`).
     * Disabled by default -- the pipeline then runs every stage every
     * frame (NOMINAL behavior, identical to the pre-governor system).
     * Enabling it also builds the warm standby detector at
     * `governor.degradedDetScale` input scale so DEGRADED-mode frames
     * never pay detector construction cost (the same warm-start rule
     * as the tracker pool, Section 3.1.2).
     */
    GovernorParams governor;
};

/** Wall-clock per-stage latencies of one frame (ms). */
struct StageLatencies
{
    double detMs = 0;
    double traMs = 0;
    double locMs = 0;
    double fusionMs = 0;
    double motPlanMs = 0;

    /** Parallel-branch composition (Figure 1). */
    double
    endToEndMs() const
    {
        const double perception = std::max(locMs, detMs + traMs);
        return perception + fusionMs + motPlanMs;
    }
};

/** Everything one frame produces. */
struct FrameOutput
{
    std::vector<detect::Detection> detections;
    std::vector<track::TrackedObject> tracks;
    slam::LocResult localization;
    fusion::FusedScene scene;
    planning::Trajectory trajectory;
    planning::ControlCommand command;
    StageLatencies latencies;
    bool missionReplanned = false;

    /** Governor operating mode during this frame. */
    OperatingMode mode = OperatingMode::Nominal;
    /** The camera delivered nothing this frame (injected drop). */
    bool frameDropped = false;
    /** The detection engine actually executed this frame. */
    bool detRan = false;
    /** Stale detections were reused (transient DET failure). */
    bool detFellBack = false;
    /** Pose was dead-reckoned (frame drop or transient LOC failure). */
    bool locFellBack = false;
    /** Tracks advanced by coasting rather than a full update. */
    bool traCoasted = false;

    /** Frame id (submit order); -1 before the pipeline assigns one. */
    std::int64_t frameId = -1;

    /**
     * The frame's pipelined latency on the virtual timeline: commit
     * minus arrival, which includes queueing behind earlier in-flight
     * frames. Equals latencies.endToEndMs() when frames do not queue.
     */
    double pipelinedMs = 0;
};

/**
 * The measured-mode end-to-end system. Holds non-owning pointers to
 * the prior map, camera and (optionally) road graph, which must
 * outlive the pipeline.
 */
class Pipeline
{
  public:
    /**
     * @param map prior map for localization.
     * @param camera camera geometry (shared with the renderer).
     * @param roadGraph optional road network for mission planning.
     * @param params tuning.
     */
    Pipeline(const slam::PriorMap* map, const sensors::Camera* camera,
             const planning::RoadGraph* roadGraph,
             const PipelineParams& params);

    /** Initialize the ego state and (if routable) the mission. */
    void reset(const Pose2& pose, const Vec2& velocity,
               const Vec2& destination);

    /**
     * Provide wheel odometry for the interval before the next frame.
     * The reading is buffered and applied to the localization
     * engine's motion model by the next submitted frame's LOC stage.
     */
    void feedOdometry(const sensors::OdometryReading& odometry);

    /**
     * Run one camera frame through all engines: the single per-frame
     * entry point. Blocks while `pipeline.depth` frames are in flight
     * and returns every frame that has committed since the last call,
     * in frame order. At depth 1 that is exactly this frame's output;
     * at depth D it is zero or more outputs trailing submissions by
     * up to D-1 frames.
     *
     * @param image the frame; copied, so it may be reused on return.
     * @param dt seconds since the previous frame.
     * @param egoSpeed current ego speed (for the controller).
     */
    std::vector<FrameOutput> submitFrame(const Image& image, double dt,
                                         double egoSpeed);

    /**
     * Block until every submitted frame has committed and return the
     * remaining outputs in frame order (always empty at depth 1).
     */
    std::vector<FrameOutput> drainAsync();

    /** The frame-graph executor (for benchmarks). */
    const FrameGraphExecutor& executor() const { return *exec_; }

    /** Per-stage latency recorders over all processed frames. */
    const LatencyRecorder& detLatency() const { return detRec_; }
    const LatencyRecorder& traLatency() const { return traRec_; }
    const LatencyRecorder& locLatency() const { return locRec_; }
    const LatencyRecorder& fusionLatency() const { return fusionRec_; }
    const LatencyRecorder& motPlanLatency() const { return motRec_; }
    const LatencyRecorder& endToEndLatency() const { return e2eRec_; }

    /**
     * Pipelined (commit minus arrival) latency per frame on the
     * virtual timeline; matches endToEndLatency() when frames do not
     * queue.
     */
    const LatencyRecorder& pipelinedLatency() const
    {
        return pipelinedRec_;
    }

    /** Aggregate cycle attribution for the Figure 7 breakdown. */
    struct CycleBreakdown
    {
        double detDnnMs = 0;
        double detOtherMs = 0;
        double traDnnMs = 0;
        double traOtherMs = 0;
        double locFeMs = 0;
        double locOtherMs = 0;
    };

    const CycleBreakdown& cycleBreakdown() const { return cycles_; }

    /** The 100 ms reaction-budget watchdog fed by every frame. */
    const obs::DeadlineMonitor& deadlineMonitor() const
    {
        return deadline_;
    }

    /** The degradation governor, or null when disabled. */
    const DegradationGovernor* governor() const
    {
        return governor_ ? &*governor_ : nullptr;
    }

    /** The fault injector, or null when disabled. */
    const FaultInjector* faultInjector() const
    {
        return faults_ ? &*faults_ : nullptr;
    }

    detect::YoloDetector& detector() { return detector_; }
    slam::Localizer& localizer() { return localizer_; }
    planning::MissionPlanner* missionPlanner()
    {
        return mission_ ? &*mission_ : nullptr;
    }

  private:
    /**
     * Everything one in-flight frame carries between stages. Stage
     * methods write disjoint fields; the executor's per-stage frame
     * ordering makes every engine see frames in submit order, so the
     * engines themselves need no locking.
     */
    struct FrameJob
    {
        std::int64_t id = -1;     ///< pipeline frame id.
        double traceStartUs = 0;  ///< wall-clock trace stamp at admission.
        double dt = 0;            ///< seconds since previous frame.
        double egoSpeed = 0;      ///< ego speed for the controller.
        double timeS = 0;         ///< mission clock at this frame (s).
        Image image;              ///< owned copy of the submitted frame.
        const Image* frame = nullptr; ///< input after SENSE.
        Image corrupted;          ///< corrupted copy when a fault fired.
        FaultPlan fault;          ///< this frame's fault draws.
        FramePlan plan;           ///< governor actuation plan.
        detect::DetectorTimings detTimings;
        track::PoolTimings traTimings;
        FrameOutput out;          ///< the result under construction.
        bool locStaleExceeded = false; ///< LOC blew the staleness bound.
        std::vector<sensors::OdometryReading> odom; ///< buffered input.
    };

    /** Sensor corruption (pixel faults) ahead of DET/LOC. */
    void stageSense(FrameJob& job);
    /** (1a) Object detection, with stale-detection fallback. */
    void stageDet(FrameJob& job);
    /** (1b) Localization, with dead-reckoning fallback. */
    void stageLoc(FrameJob& job);
    /** (1c) Object tracking (update, coast, or blind-coast). */
    void stageTra(FrameJob& job);
    /** (2) Fusion onto the world coordinate space. */
    void stageFusion(FrameJob& job);
    /** (3)(4)(5) Mission check, motion planning, vehicle control. */
    void stagePlan(FrameJob& job);

    /**
     * Frame-ordered epilogue: safe-stop escalation, cycle and latency
     * aggregation, deadline/governor feedback, flight recorder and
     * metrics. @p timing is the executor's virtual-timeline record.
     */
    void commitJob(FrameJob& job,
                   const FrameGraphExecutor::FrameTiming& timing);

    /** The job slot of executor frame @p execFrame. */
    FrameJob& slot(std::int64_t execFrame);

    /** Declare the stage DAG over this pipeline's stage methods. */
    FrameGraph buildGraph();

    /** (Re)create the executor and pre-stage the first plans. */
    void setupExecutor();

    /** Move every committed, uncollected output out, in frame order. */
    std::vector<FrameOutput> takeReady();

    PipelineParams params_;
    const sensors::Camera* camera_;
    detect::YoloDetector detector_;
    /** Warm standby at degraded input scale (governor enabled only). */
    std::optional<detect::YoloDetector> degradedDetector_;
    track::TrackerPool trackerPool_;
    slam::Localizer localizer_;
    fusion::FusionEngine fusion_;
    std::optional<planning::MissionPlanner> mission_;
    planning::VehicleController controller_;
    std::optional<FaultInjector> faults_;
    std::optional<DegradationGovernor> governor_;

    /** Fallback state: last good results + bounded staleness ages. */
    std::vector<detect::Detection> lastDetections_;
    Pose2 lastLocPose_;
    Vec2 lastLocVelocity_{0, 0};
    int detStaleFrames_ = 0;
    int locStaleFrames_ = 0;

    LatencyRecorder detRec_;
    LatencyRecorder traRec_;
    LatencyRecorder locRec_;
    LatencyRecorder fusionRec_;
    LatencyRecorder motRec_;
    LatencyRecorder e2eRec_;
    LatencyRecorder pipelinedRec_;
    CycleBreakdown cycles_;
    obs::DeadlineMonitor deadline_;
    double time_ = 0;
    std::int64_t frameIndex_ = 0;
    /** Governor transitions already copied to the flight recorder. */
    std::size_t govTransitionsSeen_ = 0;

    // --- Frame-graph state. ---
    std::vector<FrameJob> jobs_;  ///< ring, indexed frame % depth.
    /**
     * Staged governor plans: commit of frame j computes the plan for
     * frame j + depth (after observing j), and frame admission pops
     * the front. At depth 1 the plan for frame k sees every frame
     * before it; at depth D it lags D-1 frames of feedback but is
     * schedule-independent either way.
     */
    std::deque<FramePlan> planQueue_;
    std::vector<sensors::OdometryReading> pendingOdom_;
    const Image* pendingImage_ = nullptr; ///< staged for admission.
    double pendingDt_ = 0;
    double pendingSpeed_ = 0;
    std::mutex readyMutex_;          ///< guards ready_ only.
    std::deque<FrameOutput> ready_;  ///< committed, not yet collected.
    int detStage_ = -1, locStage_ = -1, traStage_ = -1;
    int fusionStage_ = -1, planStage_ = -1;
    /**
     * The executor; declared last so it is destroyed (and drained)
     * before any state its in-flight stage tasks touch.
     */
    std::unique_ptr<FrameGraphExecutor> exec_;
};

} // namespace ad::pipeline

#endif // AD_PIPELINE_PIPELINE_HH
