/**
 * @file
 * Explicit stage DAG and pipelined executor for the perception
 * pipeline. The paper's end-to-end pipeline (Section 3.1) is a fixed
 * dataflow graph -- DET and LOC consume the camera frame in parallel,
 * TRA consumes DET, FUSION joins TRA with LOC, and the motion planner
 * consumes the fused scene -- and its tail-latency analysis (Section
 * 2.4.2) holds each *frame* to the 100 ms budget, not the whole
 * pipeline to one frame at a time. FrameGraph makes that dataflow
 * explicit (stages declare their input edges by name), and
 * FrameGraphExecutor runs it: at depth 1 every stage of a frame runs
 * inline on the submitting thread, one frame at a time; at depth 2 or
 * more ready stages go to the shared worker pool so DET of frame k
 * can overlap TRA/LOC/FUSION of frame k+1, raising throughput toward
 * 1/max(stage) while each frame's latency still composes exactly as
 * at depth 1.
 *
 * Determinism contract: all virtual-timeline arithmetic (stage start,
 * duration, commit time) depends only on submit order and the stage
 * cost functions, never on real thread scheduling; admit and commit
 * callbacks fire in strict frame order under the executor lock. Given
 * deterministic stage functions, every depth, worker count, and
 * schedule seed therefore produces bitwise-identical outputs -- the
 * same discipline the serve-mode MultiStreamServer uses (see
 * docs/DESIGN.md "Deterministic concurrency").
 */

#ifndef AD_PIPELINE_FRAME_GRAPH_HH
#define AD_PIPELINE_FRAME_GRAPH_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "common/bounded_queue.hh"

namespace ad {

class ThreadPool;

namespace pipeline {

/**
 * A directed acyclic graph of named pipeline stages.
 *
 * Stages are added with the names of the stages they consume; edges
 * are resolved by name so the graph can be declared in any order.
 * validate() reports duplicate names, dangling inputs, and cycles
 * before an executor will accept the graph.
 */
class FrameGraph
{
  public:
    /** Dense stage index, assigned in addStage() call order. */
    using StageId = int;

    /**
     * Stage body: runs the stage's work for @p frame and returns the
     * stage's *virtual* cost in milliseconds (the measured engine
     * latency the virtual timeline composes, exactly what the serial
     * pipeline feeds into endToEndMs()).
     */
    using StageFn = std::function<double(std::int64_t frame)>;

    /**
     * Add a stage.
     *
     * @param name unique stage name ("DET", "FUSION", ...).
     * @param inputs names of the stages whose outputs this stage
     *        consumes; empty for a root stage fed by frame admission.
     * @param fn stage body (see StageFn).
     * @return the id of the new stage.
     */
    StageId addStage(std::string name, std::vector<std::string> inputs,
                     StageFn fn);

    /**
     * Check the graph is executable.
     *
     * @return std::nullopt when the graph is a well-formed DAG,
     *         otherwise a diagnostic naming the duplicate stage,
     *         unresolved input edge, or cycle.
     */
    std::optional<std::string> validate() const;

    /**
     * Stage ids in a deterministic topological order (Kahn's
     * algorithm, ties broken by lowest stage id). Requires
     * validate() to have returned std::nullopt.
     */
    std::vector<StageId> topologicalOrder() const;

    /** Number of stages added so far. */
    std::size_t stageCount() const { return stages_.size(); }

    /** Name of stage @p id. */
    const std::string& stageName(StageId id) const
    {
        return stages_[static_cast<std::size_t>(id)].name;
    }

    /**
     * Resolved input stage ids of stage @p id, in declaration order.
     * Requires validate() to have returned std::nullopt.
     */
    const std::vector<StageId>& inputs(StageId id) const
    {
        return stages_[static_cast<std::size_t>(id)].inputIds;
    }

    /** Stage ids that consume the output of stage @p id. */
    std::vector<StageId> consumers(StageId id) const;

    /** Run the body of stage @p id for @p frame (exposed for tests). */
    double runStage(StageId id, std::int64_t frame) const
    {
        return stages_[static_cast<std::size_t>(id)].fn(frame);
    }

  private:
    /** One declared stage: name, named edges, resolved edges, body. */
    struct Stage
    {
        std::string name;                    ///< unique stage name.
        std::vector<std::string> inputNames; ///< declared input edges.
        std::vector<StageId> inputIds;       ///< resolved by validate().
        StageFn fn;                          ///< stage body.
    };

    /** Resolve input names to ids; false when an edge is dangling. */
    bool resolveEdges() const;

    mutable std::vector<Stage> stages_;
};

/**
 * Pipelined executor: runs a FrameGraph over a stream of frames with
 * up to `depth` frames in flight. At depth 1 submit() runs the frame's
 * stages inline, one at a time in (frame, topological rank) order, and
 * returns once the frame has committed; no pool is used. At depth 2 or
 * more every ready stage is scheduled onto a shared ThreadPool.
 *
 * Each graph edge carries a bounded FIFO of frame ids (capacity =
 * depth); a stage is *ready* when every input edge has its next frame
 * available, and processes frames strictly in order. Virtual time for
 * a stage run starts at max(frame admission time, the stage's
 * previous end, all input ends) -- the standard pipelined-latency
 * recurrence -- and a frame commits at the max end over its stages.
 * Admission applies backpressure: submit() blocks while `depth`
 * frames are in flight, and a frame's virtual admission also waits
 * for the virtual commit of the frame `depth` positions earlier, so
 * the virtual and real pipelines agree on occupancy.
 *
 * Ordering guarantees (the determinism backbone): the admit callback
 * runs in submit order on the submitting thread; the commit callback
 * runs in frame order on whichever thread completes the frame (the
 * submitting thread at depth 1); both run under the executor lock, so
 * all cross-stage shared state that is mutated only in admit/commit is
 * updated in a schedule-independent order.
 */
class FrameGraphExecutor
{
  public:
    /** Executor configuration. */
    struct Params
    {
        /**
         * Max frames in flight (>= 1). 1 runs each frame inline on
         * the submitting thread; more overlaps frames on the pool.
         */
        int depth = 1;
        /**
         * Seed for the dispatch-order shuffle. 0 dispatches ready
         * stages in (frame, topological index) order; any other value
         * perturbs the real dispatch order (never the virtual
         * timeline) so tests can prove schedule independence.
         */
        std::uint64_t scheduleSeed = 0;
        /**
         * Worker pool at depth >= 2; nullptr uses
         * ad::sharedWorkerPool(). Never used at depth 1.
         */
        ThreadPool* pool = nullptr;
    };

    /** Virtual-timeline placement of one stage run. */
    struct StageTiming
    {
        double startMs = 0; ///< virtual start (ms on the mission clock).
        double durMs = 0;   ///< virtual cost returned by the stage fn.
        double endMs = 0;   ///< startMs + durMs.
    };

    /** Complete virtual-timeline record of one committed frame. */
    struct FrameTiming
    {
        std::int64_t frame = -1; ///< frame id (submit order).
        double arrivalMs = 0;    ///< submit-provided arrival time.
        double admitMs = 0;      ///< max(arrival, commit of frame-depth).
        double commitMs = 0;     ///< max stage end; pipeline latency is
                                 ///< commitMs - arrivalMs.
        std::vector<StageTiming> stages; ///< indexed by StageId.
    };

    /** Called in submit order, under the executor lock. */
    using AdmitFn = std::function<void(std::int64_t frame)>;

    /** Called in frame order, under the executor lock. */
    using CommitFn =
        std::function<void(std::int64_t frame, const FrameTiming&)>;

    /**
     * Build an executor over @p graph.
     *
     * @param graph the stage DAG; must pass FrameGraph::validate().
     * @param params depth / seed / pool configuration.
     * @param admit per-frame admission hook (may be empty).
     * @param commit per-frame commit hook (may be empty).
     * @throws std::invalid_argument when the graph fails validation
     *         or the depth is below 1.
     */
    FrameGraphExecutor(FrameGraph graph, Params params, AdmitFn admit,
                       CommitFn commit);

    /** Drains all in-flight frames, then destroys the executor. */
    ~FrameGraphExecutor();

    FrameGraphExecutor(const FrameGraphExecutor&) = delete;
    FrameGraphExecutor& operator=(const FrameGraphExecutor&) = delete;

    /**
     * Submit the next frame, blocking while `depth` frames are in
     * flight. Runs the admit hook, then enqueues the frame at every
     * root stage. At depth 1 the frame's stages run inline and the
     * frame has committed when this returns.
     *
     * @param arrivalMs the frame's arrival on the virtual mission
     *        clock, in milliseconds; must be non-decreasing.
     * @return the id assigned to the frame (0, 1, 2, ...).
     */
    std::int64_t submit(double arrivalMs);

    /** Block until every submitted frame has committed. */
    void drain();

    /** Frames committed so far. */
    std::int64_t framesCommitted() const;

    /** Virtual commit time of the most recently committed frame. */
    double lastCommitVirtualMs() const;

    /** Stage bodies that threw (each contributes zero virtual cost). */
    std::size_t stageErrorCount() const;

    /** Configured pipeline depth. */
    int depth() const { return params_.depth; }

  private:
    /** In-flight bookkeeping for one frame slot (frame % depth). */
    struct InFlight
    {
        std::int64_t frame = -1;
        double arrivalMs = 0;
        double admitMs = 0;
        std::vector<StageTiming> stages;
        std::size_t stagesDone = 0;
    };

    /** One stage run: (stage id, frame id). */
    using Task = std::pair<int, std::int64_t>;

    /**
     * Run @p tasks on the calling thread, outside the lock, plus every
     * task their completion hands back, until none is left.
     */
    void runInline(std::vector<Task> tasks);

    /** Run a stage body; returns its virtual cost (0 if it threw). */
    double runStage(int stage, std::int64_t frame);

    /**
     * Record a finished stage run and advance the graph; tasks to run
     * on this thread are appended to @p local.
     */
    void taskDone(int stage, std::int64_t frame, double durMs,
                  std::vector<Task>& local);

    /**
     * Dispatch ready stages in (frame, topological rank) order, or
     * shuffled under a schedule seed. At depth 1 only the first is
     * dispatched, appended to @p local; at depth >= 2 every ready
     * stage goes to the pool, and tasks the pool refuses (shutdown)
     * are appended to @p local.
     */
    void dispatchReadyLocked(std::vector<Task>& local);

    /** Commit finished frames in order; notifies waiters. */
    void commitFinishedLocked();

    FrameGraph graph_;
    Params params_;
    AdmitFn admit_;
    CommitFn commit_;
    ThreadPool* pool_ = nullptr; ///< null at depth 1 (inline).

    std::vector<int> topo_;       ///< stage ids in topological order.
    std::vector<int> topoIndex_;  ///< stage id -> topological rank.
    std::vector<std::vector<int>> consumers_; ///< stage -> consumers.
    /**
     * inQueues_[s][j]: frame ids delivered on stage s's j-th input
     * edge (a single admission queue when s is a root). All queues of
     * a stage advance in lockstep -- a frame is popped from every
     * input at once when the stage dispatches -- so their fronts
     * always agree. std::deque as the container because BoundedQueue
     * is neither movable nor copyable.
     */
    std::vector<std::deque<BoundedQueue<std::int64_t>>> inQueues_;

    mutable std::mutex mutex_;
    std::condition_variable slotFree_; ///< signaled on commit.
    std::condition_variable drained_;  ///< signaled when idle.
    std::vector<InFlight> slots_;      ///< ring, indexed frame % depth.
    std::vector<char> stageBusy_;      ///< stage id -> running now.
    std::vector<double> stageFreeMs_;  ///< stage id -> virtual free time.
    /** Virtual commit time of the frame last occupying each slot. */
    std::vector<double> slotCommitMs_;
    std::int64_t admitted_ = 0;  ///< frames submitted.
    std::int64_t committed_ = 0; ///< frames committed.
    double lastCommitMs_ = 0;
    std::size_t stageErrors_ = 0;
    std::mt19937_64 shuffleRng_;
};

} // namespace pipeline
} // namespace ad

#endif // AD_PIPELINE_FRAME_GRAPH_HH
