/**
 * @file
 * Unit tests for the frame-graph stage DAG and its pipelined
 * executor: graph validation (duplicates, dangling edges, cycles),
 * the exact virtual-timeline recurrence, admission backpressure,
 * frame-ordered admit/commit callbacks, schedule independence across
 * worker counts and dispatch seeds, stage-exception containment,
 * cross-thread trace-span frame tagging (ScopedTraceFrame), depth-1
 * inline execution, and rejection of a depth below 1.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hh"
#include "obs/trace.hh"
#include "pipeline/frame_graph.hh"

namespace {

using namespace ad;
using pipeline::FrameGraph;
using pipeline::FrameGraphExecutor;

TEST(FrameGraphValidate, AcceptsTheFigure1Dataflow)
{
    FrameGraph g;
    auto nop = [](std::int64_t) { return 0.0; };
    g.addStage("SENSE", {}, nop);
    g.addStage("DET", {"SENSE"}, nop);
    g.addStage("LOC", {"SENSE"}, nop);
    g.addStage("TRA", {"SENSE", "DET"}, nop);
    g.addStage("FUSION", {"TRA", "LOC"}, nop);
    g.addStage("MOTPLAN", {"FUSION", "LOC"}, nop);
    EXPECT_FALSE(g.validate().has_value());
    const auto order = g.topologicalOrder();
    ASSERT_EQ(order.size(), 6u);
    // SENSE first, MOTPLAN last.
    EXPECT_EQ(g.stageName(order.front()), "SENSE");
    EXPECT_EQ(g.stageName(order.back()), "MOTPLAN");
}

TEST(FrameGraphValidate, RejectsDuplicateStageName)
{
    FrameGraph g;
    auto nop = [](std::int64_t) { return 0.0; };
    g.addStage("A", {}, nop);
    g.addStage("A", {}, nop);
    const auto err = g.validate();
    ASSERT_TRUE(err.has_value());
    EXPECT_NE(err->find("duplicate"), std::string::npos);
}

TEST(FrameGraphValidate, RejectsMissingInputEdge)
{
    FrameGraph g;
    auto nop = [](std::int64_t) { return 0.0; };
    g.addStage("A", {}, nop);
    g.addStage("B", {"NOPE"}, nop);
    const auto err = g.validate();
    ASSERT_TRUE(err.has_value());
    EXPECT_NE(err->find("NOPE"), std::string::npos);
}

TEST(FrameGraphValidate, RejectsSelfInputAndCycle)
{
    FrameGraph self;
    auto nop = [](std::int64_t) { return 0.0; };
    self.addStage("A", {"A"}, nop);
    ASSERT_TRUE(self.validate().has_value());

    FrameGraph cyc;
    cyc.addStage("A", {"C"}, nop);
    cyc.addStage("B", {"A"}, nop);
    cyc.addStage("C", {"B"}, nop);
    const auto err = cyc.validate();
    ASSERT_TRUE(err.has_value());
    EXPECT_NE(err->find("cycle"), std::string::npos);
}

TEST(FrameGraphValidate, RejectsDuplicateEdge)
{
    FrameGraph g;
    auto nop = [](std::int64_t) { return 0.0; };
    g.addStage("A", {}, nop);
    g.addStage("B", {"A", "A"}, nop);
    ASSERT_TRUE(g.validate().has_value());
}

TEST(FrameGraphExecutorTest, RejectsInvalidGraphAtConstruction)
{
    FrameGraph g;
    g.addStage("A", {"A"}, [](std::int64_t) { return 0.0; });
    EXPECT_THROW(FrameGraphExecutor(g, {}, nullptr, nullptr),
                 std::invalid_argument);
}

TEST(FrameGraphExecutorTest, RejectsDepthBelowOne)
{
    FrameGraph g;
    g.addStage("A", {}, [](std::int64_t) { return 0.0; });
    for (const int depth : {0, -3}) {
        FrameGraphExecutor::Params ep;
        ep.depth = depth;
        try {
            FrameGraphExecutor exec(g, ep, nullptr, nullptr);
            ADD_FAILURE() << "depth " << depth << " was accepted";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(
                          "got " + std::to_string(depth)),
                      std::string::npos)
                << e.what();
        }
    }
}

/** The Figure 1 dataflow, each stage logging its name when it runs. */
FrameGraph
figure1Graph(std::vector<std::string>& ran,
             std::vector<std::thread::id>& threads)
{
    FrameGraph g;
    const auto stage = [&g, log = &ran, ids = &threads](
                           const char* name,
                           std::vector<std::string> inputs) {
        g.addStage(name, std::move(inputs),
                   [log, ids, name](std::int64_t) {
                       log->push_back(name);
                       ids->push_back(std::this_thread::get_id());
                       return 1.0;
                   });
    };
    stage("SENSE", {});
    stage("DET", {"SENSE"});
    stage("LOC", {"SENSE"});
    stage("TRA", {"SENSE", "DET"});
    stage("FUSION", {"TRA", "LOC"});
    stage("MOTPLAN", {"FUSION", "LOC"});
    return g;
}

TEST(FrameGraphExecutorTest, DepthOneRunsInlineInTopologicalOrder)
{
    // Depth 1 runs each frame on the submitting thread, stages in
    // topological rank order, committed before submit() returns; the
    // pool handed in is never used.
    std::vector<std::string> ran;
    std::vector<std::thread::id> threads;
    ThreadPool pool(2);
    FrameGraphExecutor::Params ep;
    ep.depth = 1;
    ep.pool = &pool;
    FrameGraphExecutor exec(figure1Graph(ran, threads), ep, nullptr,
                            nullptr);
    const std::vector<std::string> order = {"SENSE", "DET",    "LOC",
                                            "TRA",   "FUSION", "MOTPLAN"};
    for (int f = 0; f < 3; ++f) {
        ran.clear();
        exec.submit(static_cast<double>(f));
        EXPECT_EQ(exec.framesCommitted(), f + 1);
        EXPECT_EQ(ran, order) << "frame " << f;
    }
    ASSERT_EQ(threads.size(), 3 * order.size());
    for (const auto& id : threads)
        EXPECT_EQ(id, std::this_thread::get_id());
    EXPECT_EQ(pool.executedTaskCount(), 0u);
}

/** Threads in this process, from /proc (Linux). */
int
processThreadCount()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("Threads:", 0) == 0)
            return std::atoi(line.c_str() + 8);
    return -1;
}

TEST(FrameGraphExecutorTest, DepthOneStartsNoWorkerThreads)
{
    // In a fresh process (death tests re-execute the binary, so no
    // earlier test has started the shared pool), a default depth-1
    // executor must not start the shared worker pool.
    EXPECT_EXIT(
        {
            const int before = processThreadCount();
            std::vector<std::string> ran;
            std::vector<std::thread::id> threads;
            FrameGraphExecutor exec(figure1Graph(ran, threads), {},
                                    nullptr, nullptr);
            for (int f = 0; f < 4; ++f)
                exec.submit(static_cast<double>(f));
            const int after = processThreadCount();
            std::exit(before > 0 && after == before ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "");
}

/** Two-stage chain with fixed costs: the recurrence by hand. */
TEST(FrameGraphExecutorTest, VirtualTimelineMatchesRecurrence)
{
    FrameGraph g;
    g.addStage("A", {}, [](std::int64_t) { return 10.0; });
    g.addStage("B", {"A"}, [](std::int64_t) { return 20.0; });

    ThreadPool pool(2);
    FrameGraphExecutor::Params ep;
    ep.depth = 2;
    ep.pool = &pool;
    std::vector<FrameGraphExecutor::FrameTiming> timings;
    FrameGraphExecutor exec(
        g, ep, nullptr,
        [&](std::int64_t, const FrameGraphExecutor::FrameTiming& t) {
            timings.push_back(t);
        });
    for (int i = 0; i < 3; ++i)
        exec.submit(0.0);
    exec.drain();

    ASSERT_EQ(timings.size(), 3u);
    // frame 0: A 0-10, B 10-30, commit 30.
    EXPECT_DOUBLE_EQ(timings[0].stages[0].startMs, 0.0);
    EXPECT_DOUBLE_EQ(timings[0].stages[1].startMs, 10.0);
    EXPECT_DOUBLE_EQ(timings[0].commitMs, 30.0);
    // frame 1: admit 0 (depth 2), A 10-20 (A busy until 10),
    // B 30-50 (B busy until 30).
    EXPECT_DOUBLE_EQ(timings[1].admitMs, 0.0);
    EXPECT_DOUBLE_EQ(timings[1].stages[0].startMs, 10.0);
    EXPECT_DOUBLE_EQ(timings[1].stages[1].startMs, 30.0);
    EXPECT_DOUBLE_EQ(timings[1].commitMs, 50.0);
    // frame 2: admitted only at commit of frame 0 (virtual 30),
    // A 30-40, B 50-70: steady-state throughput = max stage = 20.
    EXPECT_DOUBLE_EQ(timings[2].admitMs, 30.0);
    EXPECT_DOUBLE_EQ(timings[2].stages[0].startMs, 30.0);
    EXPECT_DOUBLE_EQ(timings[2].commitMs, 70.0);
    EXPECT_DOUBLE_EQ(exec.lastCommitVirtualMs(), 70.0);
}

/** Diamond DAG: joins wait for the slower branch. */
TEST(FrameGraphExecutorTest, DiamondJoinWaitsForSlowBranch)
{
    FrameGraph g;
    g.addStage("R", {}, [](std::int64_t) { return 0.0; });
    g.addStage("X", {"R"}, [](std::int64_t) { return 10.0; });
    g.addStage("Y", {"R"}, [](std::int64_t) { return 4.0; });
    g.addStage("Z", {"X", "Y"}, [](std::int64_t) { return 2.0; });

    ThreadPool pool(3);
    FrameGraphExecutor::Params ep;
    ep.depth = 3;
    ep.pool = &pool;
    std::vector<double> commits;
    FrameGraphExecutor exec(
        g, ep, nullptr,
        [&](std::int64_t, const FrameGraphExecutor::FrameTiming& t) {
            commits.push_back(t.commitMs);
        });
    for (int i = 0; i < 3; ++i)
        exec.submit(0.0);
    exec.drain();
    // Z of frame k starts at X's end (the slow branch): 10k+10,
    // ends 10k+12.
    ASSERT_EQ(commits.size(), 3u);
    EXPECT_DOUBLE_EQ(commits[0], 12.0);
    EXPECT_DOUBLE_EQ(commits[1], 22.0);
    EXPECT_DOUBLE_EQ(commits[2], 32.0);
}

TEST(FrameGraphExecutorTest, AdmitAndCommitRunInFrameOrder)
{
    FrameGraph g;
    g.addStage("A", {}, [](std::int64_t) { return 1.0; });
    ThreadPool pool(4);
    FrameGraphExecutor::Params ep;
    ep.depth = 3;
    ep.pool = &pool;
    std::vector<std::int64_t> admits, commits;
    FrameGraphExecutor exec(
        g, ep, [&](std::int64_t f) { admits.push_back(f); },
        [&](std::int64_t f, const FrameGraphExecutor::FrameTiming&) {
            commits.push_back(f);
        });
    const int n = 20;
    for (int i = 0; i < n; ++i)
        exec.submit(static_cast<double>(i));
    exec.drain();
    ASSERT_EQ(admits.size(), static_cast<std::size_t>(n));
    ASSERT_EQ(commits.size(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        EXPECT_EQ(admits[static_cast<std::size_t>(i)], i);
        EXPECT_EQ(commits[static_cast<std::size_t>(i)], i);
    }
    EXPECT_EQ(exec.framesCommitted(), n);
}

TEST(FrameGraphExecutorTest, DepthOneSerializesFrames)
{
    FrameGraph g;
    std::atomic<int> inFlight{0};
    std::atomic<int> maxInFlight{0};
    g.addStage("A", {}, [&](std::int64_t) {
        const int now = ++inFlight;
        int seen = maxInFlight.load();
        while (now > seen &&
               !maxInFlight.compare_exchange_weak(seen, now))
            ;
        --inFlight;
        return 1.0;
    });
    ThreadPool pool(4);
    FrameGraphExecutor::Params ep;
    ep.depth = 1;
    ep.pool = &pool;
    FrameGraphExecutor exec(g, ep, nullptr, nullptr);
    for (int i = 0; i < 10; ++i)
        exec.submit(static_cast<double>(i));
    exec.drain();
    EXPECT_EQ(maxInFlight.load(), 1);
}

/**
 * The determinism backbone: a stateful stage (frame-ordered
 * accumulator feeding its own virtual cost) produces the identical
 * virtual timeline whatever the worker count or dispatch seed.
 */
TEST(FrameGraphExecutorTest, TimelineScheduleIndependent)
{
    const auto run = [](std::size_t workers, std::uint64_t seed,
                        int depth) {
        FrameGraph g;
        // Stage state evolves with frame order; any out-of-order
        // execution would change both the state stream and the costs.
        auto stateful = [state = 0.0](std::int64_t f) mutable {
            state = state * 0.5 + static_cast<double>(f % 7) + 1.0;
            return state;
        };
        g.addStage("A", {}, stateful);
        g.addStage("B", {"A"}, stateful);
        g.addStage("C", {"A"}, stateful);
        g.addStage("D", {"B", "C"}, stateful);
        ThreadPool pool(workers);
        FrameGraphExecutor::Params ep;
        ep.depth = depth;
        ep.scheduleSeed = seed;
        ep.pool = &pool;
        std::vector<double> stream;
        FrameGraphExecutor exec(
            g, ep, nullptr,
            [&](std::int64_t,
                const FrameGraphExecutor::FrameTiming& t) {
                stream.push_back(t.admitMs);
                stream.push_back(t.commitMs);
                for (const auto& s : t.stages) {
                    stream.push_back(s.startMs);
                    stream.push_back(s.durMs);
                }
            });
        for (int i = 0; i < 25; ++i)
            exec.submit(static_cast<double>(2 * i));
        exec.drain();
        return stream;
    };

    for (int depth : {1, 2, 3}) {
        const auto baseline = run(1, 0, depth);
        for (std::size_t workers : {std::size_t{2}, std::size_t{8}})
            EXPECT_EQ(run(workers, 0, depth), baseline)
                << "workers=" << workers << " depth=" << depth;
        for (std::uint64_t seed :
             {std::uint64_t{1}, std::uint64_t{42},
              std::uint64_t{0xdeadbeef}})
            EXPECT_EQ(run(4, seed, depth), baseline)
                << "seed=" << seed << " depth=" << depth;
    }
}

TEST(FrameGraphExecutorTest, ThrowingStageIsContainedAndCommits)
{
    FrameGraph g;
    g.addStage("A", {}, [](std::int64_t f) -> double {
        if (f == 1)
            throw std::runtime_error("boom");
        return 5.0;
    });
    g.addStage("B", {"A"}, [](std::int64_t) { return 1.0; });
    ThreadPool pool(2);
    FrameGraphExecutor::Params ep;
    ep.depth = 2;
    ep.pool = &pool;
    std::vector<std::int64_t> commits;
    FrameGraphExecutor exec(
        g, ep, nullptr,
        [&](std::int64_t f, const FrameGraphExecutor::FrameTiming&) {
            commits.push_back(f);
        });
    for (int i = 0; i < 3; ++i)
        exec.submit(0.0);
    exec.drain();
    EXPECT_EQ(commits, (std::vector<std::int64_t>{0, 1, 2}));
    EXPECT_EQ(exec.stageErrorCount(), 1u);
}

/**
 * ScopedTraceFrame: spans recorded inside overlapped stage tasks are
 * tagged with their own frame, not a global "current frame".
 */
TEST(FrameGraphExecutorTest, SpansCarryPerFrameIdsAcrossThreads)
{
    auto& rec = obs::tracer();
    rec.clear();
    rec.setEnabled(true);

    FrameGraph g;
    g.addStage("A", {}, [&](std::int64_t) {
        obs::TraceSpan span(rec, "work.A");
        return 1.0;
    });
    g.addStage("B", {"A"}, [&](std::int64_t) {
        obs::TraceSpan span(rec, "work.B");
        return 1.0;
    });
    {
        ThreadPool pool(3);
        FrameGraphExecutor::Params ep;
        ep.depth = 3;
        ep.pool = &pool;
        FrameGraphExecutor exec(g, ep, nullptr, nullptr);
        for (int i = 0; i < 6; ++i)
            exec.submit(static_cast<double>(i));
        exec.drain();
    }
    rec.setEnabled(false);

    int perFrame[6] = {0, 0, 0, 0, 0, 0};
    for (const auto& ev : rec.snapshot()) {
        ASSERT_GE(ev.frame, 0) << ev.name;
        ASSERT_LT(ev.frame, 6) << ev.name;
        ++perFrame[ev.frame];
    }
    // Two spans (A and B) tagged to each of the six frames.
    for (int f = 0; f < 6; ++f)
        EXPECT_EQ(perFrame[f], 2) << "frame " << f;
    rec.clear();
}

} // namespace
