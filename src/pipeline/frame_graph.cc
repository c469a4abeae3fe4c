#include "pipeline/frame_graph.hh"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "common/logging.hh"
#include "common/parallel_for.hh"
#include "common/thread_pool.hh"
#include "obs/trace.hh"

namespace ad::pipeline {

// ---------------------------------------------------------------------------
// FrameGraph

FrameGraph::StageId
FrameGraph::addStage(std::string name, std::vector<std::string> inputs,
                     StageFn fn)
{
    const StageId id = static_cast<StageId>(stages_.size());
    stages_.push_back(
        {std::move(name), std::move(inputs), {}, std::move(fn)});
    return id;
}

bool
FrameGraph::resolveEdges() const
{
    for (Stage& s : stages_) {
        s.inputIds.clear();
        for (const std::string& in : s.inputNames) {
            StageId found = -1;
            for (std::size_t i = 0; i < stages_.size(); ++i)
                if (stages_[i].name == in) {
                    found = static_cast<StageId>(i);
                    break;
                }
            if (found < 0)
                return false;
            s.inputIds.push_back(found);
        }
    }
    return true;
}

std::optional<std::string>
FrameGraph::validate() const
{
    for (std::size_t i = 0; i < stages_.size(); ++i)
        for (std::size_t j = i + 1; j < stages_.size(); ++j)
            if (stages_[i].name == stages_[j].name)
                return "duplicate stage '" + stages_[i].name + "'";

    for (const Stage& s : stages_) {
        for (std::size_t a = 0; a < s.inputNames.size(); ++a) {
            if (s.inputNames[a] == s.name)
                return "stage '" + s.name +
                       "' lists itself as an input";
            for (std::size_t b = a + 1; b < s.inputNames.size(); ++b)
                if (s.inputNames[a] == s.inputNames[b])
                    return "stage '" + s.name + "' lists input '" +
                           s.inputNames[a] + "' twice";
            bool found = false;
            for (const Stage& t : stages_)
                if (t.name == s.inputNames[a]) {
                    found = true;
                    break;
                }
            if (!found)
                return "stage '" + s.name + "' input '" +
                       s.inputNames[a] + "' is not a declared stage";
        }
    }

    if (!resolveEdges())
        return "unresolved input edge"; // unreachable after the checks

    // Kahn's algorithm; anything left with a nonzero in-degree sits on
    // a cycle.
    std::vector<int> indeg(stages_.size(), 0);
    for (std::size_t i = 0; i < stages_.size(); ++i)
        indeg[i] = static_cast<int>(stages_[i].inputIds.size());
    std::size_t processed = 0;
    std::vector<char> emitted(stages_.size(), 0);
    for (;;) {
        int pick = -1;
        for (std::size_t i = 0; i < stages_.size(); ++i)
            if (!emitted[i] && indeg[i] == 0) {
                pick = static_cast<int>(i);
                break;
            }
        if (pick < 0)
            break;
        emitted[static_cast<std::size_t>(pick)] = 1;
        ++processed;
        for (std::size_t c = 0; c < stages_.size(); ++c)
            for (StageId in : stages_[c].inputIds)
                if (in == pick)
                    --indeg[c];
    }
    if (processed < stages_.size())
        for (std::size_t i = 0; i < stages_.size(); ++i)
            if (!emitted[i])
                return "cycle involving stage '" + stages_[i].name +
                       "'";
    return std::nullopt;
}

std::vector<FrameGraph::StageId>
FrameGraph::topologicalOrder() const
{
    std::vector<int> indeg(stages_.size(), 0);
    for (std::size_t i = 0; i < stages_.size(); ++i)
        indeg[i] = static_cast<int>(stages_[i].inputIds.size());
    std::vector<StageId> order;
    std::vector<char> emitted(stages_.size(), 0);
    while (order.size() < stages_.size()) {
        int pick = -1;
        for (std::size_t i = 0; i < stages_.size(); ++i)
            if (!emitted[i] && indeg[i] == 0) {
                pick = static_cast<int>(i);
                break;
            }
        if (pick < 0)
            break; // cycle; callers must validate() first.
        emitted[static_cast<std::size_t>(pick)] = 1;
        order.push_back(pick);
        for (std::size_t c = 0; c < stages_.size(); ++c)
            for (StageId in : stages_[c].inputIds)
                if (in == pick)
                    --indeg[c];
    }
    return order;
}

std::vector<FrameGraph::StageId>
FrameGraph::consumers(StageId id) const
{
    std::vector<StageId> out;
    for (std::size_t c = 0; c < stages_.size(); ++c)
        for (StageId in : stages_[c].inputIds)
            if (in == id)
                out.push_back(static_cast<StageId>(c));
    return out;
}

// ---------------------------------------------------------------------------
// FrameGraphExecutor

FrameGraphExecutor::FrameGraphExecutor(FrameGraph graph, Params params,
                                       AdmitFn admit, CommitFn commit)
    : graph_(std::move(graph)), params_(params),
      admit_(std::move(admit)), commit_(std::move(commit)),
      shuffleRng_(params.scheduleSeed)
{
    if (auto err = graph_.validate())
        throw std::invalid_argument("FrameGraphExecutor: " + *err);
    if (params_.depth < 1)
        throw std::invalid_argument(
            "FrameGraphExecutor: depth must be >= 1, got " +
            std::to_string(params_.depth));
    // Depth 1 runs every stage on the submitting thread and never
    // touches a pool, so a single-threaded caller starts no workers.
    if (params_.depth > 1)
        pool_ = params_.pool ? params_.pool : &sharedWorkerPool();

    const std::size_t n = graph_.stageCount();
    topo_ = graph_.topologicalOrder();
    topoIndex_.assign(n, 0);
    for (std::size_t r = 0; r < topo_.size(); ++r)
        topoIndex_[static_cast<std::size_t>(topo_[r])] =
            static_cast<int>(r);
    consumers_.resize(n);
    inQueues_.resize(n);
    const auto cap = static_cast<std::size_t>(params_.depth);
    for (std::size_t s = 0; s < n; ++s) {
        for (FrameGraph::StageId c : graph_.consumers(static_cast<FrameGraph::StageId>(s)))
            consumers_[s].push_back(c);
        inQueues_[s].resize(std::max<std::size_t>(
            1, graph_.inputs(static_cast<FrameGraph::StageId>(s)).size()));
    }
    slots_.resize(cap);
    for (InFlight& f : slots_)
        f.stages.resize(n);
    stageBusy_.assign(n, 0);
    stageFreeMs_.assign(n, 0.0);
    slotCommitMs_.assign(cap, 0.0);
}

FrameGraphExecutor::~FrameGraphExecutor()
{
    drain();
}

std::int64_t
FrameGraphExecutor::submit(double arrivalMs)
{
    std::vector<Task> local;
    std::int64_t frame = 0;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        slotFree_.wait(lock, [&] {
            return admitted_ - committed_ < params_.depth;
        });
        frame = admitted_++;
        const auto slot =
            static_cast<std::size_t>(frame % params_.depth);
        InFlight& f = slots_[slot];
        f.frame = frame;
        f.arrivalMs = arrivalMs;
        f.admitMs = std::max(arrivalMs, slotCommitMs_[slot]);
        f.stages.assign(graph_.stageCount(), StageTiming{});
        f.stagesDone = 0;
        if (admit_)
            admit_(frame);
        for (std::size_t s = 0; s < graph_.stageCount(); ++s)
            if (graph_.inputs(static_cast<FrameGraph::StageId>(s)).empty())
                pushEdgeLocked(s, 0, frame);
        dispatchReadyLocked(local);
    }
    runInline(std::move(local));
    return frame;
}

void
FrameGraphExecutor::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    drained_.wait(lock, [&] { return committed_ == admitted_; });
}

std::int64_t
FrameGraphExecutor::framesCommitted() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return committed_;
}

double
FrameGraphExecutor::lastCommitVirtualMs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return lastCommitMs_;
}

std::size_t
FrameGraphExecutor::stageErrorCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stageErrors_;
}

void
FrameGraphExecutor::runInline(std::vector<Task> tasks)
{
    while (!tasks.empty()) {
        std::vector<Task> next;
        for (const auto& [s, f] : tasks)
            taskDone(s, f, runStage(s, f), next);
        tasks = std::move(next);
    }
}

double
FrameGraphExecutor::runStage(int stage, std::int64_t frame)
{
    // Spans recorded by the stage body (and any nested NN-layer spans
    // on this thread) tag this frame, not the global one.
    obs::ScopedTraceFrame scope(frame);
    try {
        return graph_.runStage(stage, frame);
    } catch (const std::exception& e) {
        std::fprintf(stderr,
                     "[frame_graph] stage %s threw on frame %lld: "
                     "%s\n",
                     graph_.stageName(stage).c_str(),
                     static_cast<long long>(frame), e.what());
    } catch (...) {
        std::fprintf(stderr,
                     "[frame_graph] stage %s threw on frame %lld\n",
                     graph_.stageName(stage).c_str(),
                     static_cast<long long>(frame));
    }
    std::lock_guard<std::mutex> lock(mutex_);
    ++stageErrors_;
    return 0.0;
}

void
FrameGraphExecutor::taskDone(int stage, std::int64_t frame,
                             double durMs, std::vector<Task>& local)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto slot =
            static_cast<std::size_t>(frame % params_.depth);
        InFlight& f = slots_[slot];
        const auto si = static_cast<std::size_t>(stage);

        // Pipelined-latency recurrence: the stage starts when the
        // frame is admitted, the stage itself is free, and every
        // input is ready. All three operands are schedule-independent.
        double start = f.admitMs;
        start = std::max(start, stageFreeMs_[si]);
        for (FrameGraph::StageId in : graph_.inputs(stage))
            start = std::max(
                start, f.stages[static_cast<std::size_t>(in)].endMs);
        StageTiming& t = f.stages[si];
        t.startMs = start;
        t.durMs = durMs;
        t.endMs = start + durMs;
        stageFreeMs_[si] = t.endMs;
        ++f.stagesDone;
        stageBusy_[si] = 0;

        for (int c : consumers_[si]) {
            const auto& ins = graph_.inputs(c);
            for (std::size_t j = 0; j < ins.size(); ++j)
                if (ins[j] == stage)
                    pushEdgeLocked(static_cast<std::size_t>(c), j, frame);
        }
        commitFinishedLocked();
        dispatchReadyLocked(local);
    }
}

void
FrameGraphExecutor::dispatchReadyLocked(std::vector<Task>& local)
{
    struct Cand
    {
        std::int64_t frame;
        int topoIdx;
        int stage;
    };
    std::vector<Cand> cands;
    for (std::size_t s = 0; s < graph_.stageCount(); ++s) {
        if (stageBusy_[s])
            continue;
        bool ready = true;
        std::int64_t front = -1;
        for (const auto& q : inQueues_[s]) {
            if (q.empty()) {
                ready = false;
                break;
            }
            front = q.front(); // all fronts agree (lockstep pops).
        }
        if (ready)
            cands.push_back({front, topoIndex_[s],
                             static_cast<int>(s)});
    }
    if (cands.empty())
        return;
    std::sort(cands.begin(), cands.end(),
              [](const Cand& a, const Cand& b) {
                  return a.frame != b.frame ? a.frame < b.frame
                                            : a.topoIdx < b.topoIdx;
              });
    // The shuffle perturbs only the real dispatch order; the virtual
    // timeline and all admit/commit ordering are unaffected, which is
    // exactly what the determinism tests exercise.
    if (params_.scheduleSeed != 0)
        std::shuffle(cands.begin(), cands.end(), shuffleRng_);
    for (const Cand& c : cands) {
        const auto si = static_cast<std::size_t>(c.stage);
        for (auto& q : inQueues_[si])
            q.pop_front();
        stageBusy_[si] = 1;
        if (!pool_) {
            // Inline, one stage at a time: its completion dispatches
            // the next lowest-ranked ready stage.
            local.emplace_back(c.stage, c.frame);
            return;
        }
        if (!pool_->submit([this, s = c.stage, f = c.frame] {
                runInline({{s, f}});
            }))
            local.emplace_back(c.stage, c.frame);
    }
}

void
FrameGraphExecutor::commitFinishedLocked()
{
    while (committed_ < admitted_) {
        const auto slot =
            static_cast<std::size_t>(committed_ % params_.depth);
        InFlight& f = slots_[slot];
        if (f.frame != committed_ ||
            f.stagesDone != graph_.stageCount())
            break;
        FrameTiming timing;
        timing.frame = f.frame;
        timing.arrivalMs = f.arrivalMs;
        timing.admitMs = f.admitMs;
        timing.stages = f.stages;
        double commitMs = f.admitMs;
        for (const StageTiming& t : timing.stages)
            commitMs = std::max(commitMs, t.endMs);
        timing.commitMs = commitMs;
        slotCommitMs_[slot] = commitMs;
        lastCommitMs_ = commitMs;
        if (commit_)
            commit_(f.frame, timing);
        f.frame = -1;
        ++committed_;
        slotFree_.notify_all();
    }
    if (committed_ == admitted_)
        drained_.notify_all();
}

void
FrameGraphExecutor::pushEdgeLocked(std::size_t stage, std::size_t edge,
                                   std::int64_t frame)
{
    auto& q = inQueues_[stage][edge];
    // At most depth frames are admitted and uncommitted, and each
    // sits on a given edge at most once, so a fuller edge is a bug.
    if (q.size() >= static_cast<std::size_t>(params_.depth))
        panic("FrameGraphExecutor: input edge ", edge, " of stage '",
              graph_.stageName(static_cast<FrameGraph::StageId>(stage)),
              "' would hold more than depth = ", params_.depth,
              " frames");
    q.push_back(frame);
}

} // namespace ad::pipeline
