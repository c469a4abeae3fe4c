#include "pipeline/pipeline.hh"

#include "common/logging.hh"
#include "common/time.hh"
#include "obs/flight.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sensors/corruption.hh"

namespace ad::pipeline {

namespace {

/**
 * Fan the pipeline-wide nn.threads / nn.precision / nn.fuse /
 * nn.arena overrides out to the engines.
 */
PipelineParams
applyNnOverrides(PipelineParams p)
{
    if (p.nnThreads != 0) {
        p.detector.threads = p.nnThreads;
        p.trackerPool.tracker.threads = p.nnThreads;
        p.localizer.threads = p.nnThreads;
    }
    if (p.nnPrecision != nn::Precision::Fp32) {
        p.detector.precision = p.nnPrecision;
        p.trackerPool.tracker.precision = p.nnPrecision;
    }
    p.detector.fuse = p.nnFuse;
    p.trackerPool.tracker.fuse = p.nnFuse;
    p.detector.arena = p.nnArena;
    p.trackerPool.tracker.arena = p.nnArena;
    return p;
}

/** Reject a bad `pipeline.depth` before any engine is built. */
PipelineParams
validated(PipelineParams p)
{
    if (p.depth < 1)
        fatal("config key 'pipeline.depth': must be >= 1, got ",
              p.depth);
    return p;
}

/** Virtual spike milliseconds injected on one stage this frame. */
double
spikeOn(const FaultPlan& fault, obs::Stage stage)
{
    return fault.spikeMs[static_cast<std::size_t>(stage)];
}

} // namespace

Pipeline::Pipeline(const slam::PriorMap* map,
                   const sensors::Camera* camera,
                   const planning::RoadGraph* roadGraph,
                   const PipelineParams& params)
    : params_(validated(applyNnOverrides(params))), camera_(camera),
      detector_(params_.detector), trackerPool_(params_.trackerPool),
      localizer_(map, camera, params_.localizer), fusion_(camera),
      controller_(params_.control), deadline_(params_.deadline)
{
    if (roadGraph)
        mission_.emplace(roadGraph, params_.mission);
    if (params_.faults.enabled)
        faults_.emplace(params_.faults);
    if (params_.governor.enabled) {
        governor_.emplace(params_.governor);
        // Warm standby detector at degraded scale: built now so
        // DEGRADED-mode frames never pay construction cost (the
        // tracker-pool warm-start rule, Section 3.1.2).
        degradedDetector_.emplace(params_.detector.scaledInput(
            params_.governor.degradedDetScale));
    }
    setupExecutor();
}

void
Pipeline::reset(const Pose2& pose, const Vec2& velocity,
                const Vec2& destination)
{
    exec_->drain();
    {
        std::lock_guard<std::mutex> lock(readyMutex_);
        ready_.clear();
    }
    pendingOdom_.clear();
    localizer_.reset(pose, velocity);
    if (mission_)
        mission_->plan(pose.pos, destination);
    controller_.reset();
    time_ = 0;
    lastLocPose_ = pose;
    lastLocVelocity_ = velocity;
    lastDetections_.clear();
    detStaleFrames_ = 0;
    locStaleFrames_ = 0;
    setupExecutor();
}

void
Pipeline::feedOdometry(const sensors::OdometryReading& odometry)
{
    // Applied by the next submitted frame's LOC stage, so the reading
    // lands between the same two frames at every depth.
    pendingOdom_.push_back(odometry);
}

FrameGraph
Pipeline::buildGraph()
{
    // The Figure 1 dataflow: DET and LOC consume the (possibly
    // corrupted) frame in parallel, TRA consumes DET, FUSION joins
    // TRA with LOC, and planning consumes the fused scene plus the
    // pose. Each stage fn returns its virtual cost so the executor's
    // timeline composes exactly like endToEndMs().
    //
    // onJob runs a body on frame f's job slot, tagging the spans it
    // records with the pipeline frame id (the executor's own ids
    // restart with every reset()).
    const auto onJob = [this](auto body) {
        return [this, body](std::int64_t f) {
            FrameJob& j = slot(f);
            obs::ScopedTraceFrame frame(j.id);
            return body(j);
        };
    };
    FrameGraph g;
    g.addStage("SENSE", {}, onJob([this](FrameJob& j) {
                   stageSense(j);
                   return 0.0;
               }));
    detStage_ = g.addStage("DET", {"SENSE"}, onJob([this](FrameJob& j) {
                               stageDet(j);
                               return j.out.latencies.detMs;
                           }));
    locStage_ = g.addStage("LOC", {"SENSE"}, onJob([this](FrameJob& j) {
                               stageLoc(j);
                               return j.out.latencies.locMs;
                           }));
    traStage_ =
        g.addStage("TRA", {"SENSE", "DET"}, onJob([this](FrameJob& j) {
                       stageTra(j);
                       return j.out.latencies.traMs;
                   }));
    fusionStage_ =
        g.addStage("FUSION", {"TRA", "LOC"}, onJob([this](FrameJob& j) {
                       stageFusion(j);
                       return j.out.latencies.fusionMs;
                   }));
    planStage_ =
        g.addStage("MOTPLAN", {"FUSION", "LOC"}, onJob([this](FrameJob& j) {
                       stagePlan(j);
                       return j.out.latencies.motPlanMs;
                   }));
    return g;
}

Pipeline::FrameJob&
Pipeline::slot(std::int64_t execFrame)
{
    return jobs_[static_cast<std::size_t>(execFrame % params_.depth)];
}

void
Pipeline::setupExecutor()
{
    // The old executor drains on destruction before the job ring it
    // reads is replaced.
    exec_.reset();
    jobs_ = std::vector<FrameJob>(static_cast<std::size_t>(params_.depth));
    planQueue_.clear();
    // Pre-stage the first `depth` plans from the governor's current
    // (fully observed, nothing in flight) state; commits keep the
    // queue topped up from then on.
    if (governor_)
        for (int i = 0; i < params_.depth; ++i)
            planQueue_.push_back(governor_->plan(frameIndex_ + i));

    FrameGraphExecutor::Params ep;
    ep.depth = params_.depth;
    ep.scheduleSeed = params_.scheduleSeed;
    exec_ = std::make_unique<FrameGraphExecutor>(
        buildGraph(), ep,
        // Admission (submit order, under the executor lock): draw the
        // frame's fault plan and pop its staged governor plan -- the
        // seeded draws happen in frame order whatever the workers do.
        [this](std::int64_t execFrame) {
            FrameJob& job = slot(execFrame);
            job = FrameJob{};
            job.id = frameIndex_++;
            job.dt = pendingDt_;
            job.egoSpeed = pendingSpeed_;
            job.timeS = time_;
            job.image = *pendingImage_;
            job.frame = &job.image;
            job.odom = std::move(pendingOdom_);
            pendingOdom_.clear();
            job.fault = faults_ ? faults_->planFrame() : FaultPlan{};
            if (governor_) {
                job.plan = planQueue_.front();
                planQueue_.pop_front();
            }
            job.out.frameId = job.id;
            job.out.mode = job.plan.mode;
            job.out.frameDropped = job.fault.dropFrame;
            if (obs::tracer().enabled())
                job.traceStartUs = obs::tracer().nowUs();
        },
        // Commit (frame order, under the executor lock): the shared
        // epilogue plus staging the plan for frame id + depth.
        [this](std::int64_t execFrame,
               const FrameGraphExecutor::FrameTiming& timing) {
            FrameJob& job = slot(execFrame);
            commitJob(job, timing);
            std::lock_guard<std::mutex> lock(readyMutex_);
            ready_.push_back(std::move(job.out));
        });
}

std::vector<FrameOutput>
Pipeline::submitFrame(const Image& image, double dt, double egoSpeed)
{
    time_ += dt;
    pendingImage_ = &image;
    pendingDt_ = dt;
    pendingSpeed_ = egoSpeed;
    exec_->submit(time_ * 1000.0);
    return takeReady();
}

std::vector<FrameOutput>
Pipeline::drainAsync()
{
    exec_->drain();
    return takeReady();
}

std::vector<FrameOutput>
Pipeline::takeReady()
{
    std::vector<FrameOutput> outs;
    std::lock_guard<std::mutex> lock(readyMutex_);
    while (!ready_.empty()) {
        outs.push_back(std::move(ready_.front()));
        ready_.pop_front();
    }
    return outs;
}

void
Pipeline::stageSense(FrameJob& job)
{
    // Sensor corruption reaches the engines through the pixels; the
    // frame is copied only when a corruption fault actually fired.
    if (!job.fault.dropFrame &&
        (job.fault.blackout || job.fault.noiseSigma > 0)) {
        job.corrupted = *job.frame;
        if (job.fault.blackout) {
            sensors::blackout(job.corrupted);
        } else {
            Rng noiseRng(job.fault.noiseSeed);
            sensors::addPixelNoise(job.corrupted, noiseRng,
                                   job.fault.noiseSigma);
        }
        job.frame = &job.corrupted;
    }
}

void
Pipeline::stageDet(FrameJob& job)
{
    // --- (1a) Object detection. ---
    FrameOutput& out = job.out;
    const int maxStale = params_.governor.maxStaleFrames;
    const bool wantDet = job.plan.runDet && !job.fault.dropFrame;
    if (wantDet && !job.fault.detFail) {
        obs::TraceSpan span(obs::tracer(), "DET");
        detect::YoloDetector& det =
            job.plan.degradedDet && degradedDetector_
                ? *degradedDetector_
                : detector_;
        out.detections = det.detect(*job.frame, &job.detTimings);
        out.detRan = true;
        lastDetections_ = out.detections;
        detStaleFrames_ = 0;
    } else if (wantDet) {
        // Transient DET failure: reuse the last good detections while
        // they are fresh enough (timeout-with-fallback).
        ++detStaleFrames_;
        if (detStaleFrames_ <= maxStale) {
            out.detections = lastDetections_;
            out.detFellBack = true;
        }
    }
    out.latencies.detMs =
        job.detTimings.totalMs + spikeOn(job.fault, obs::Stage::Det);
}

void
Pipeline::stageLoc(FrameJob& job)
{
    // --- (1b) Localization (logically parallel with DET). ---
    FrameOutput& out = job.out;
    for (const auto& odo : job.odom)
        localizer_.feedOdometry(odo);
    if (!job.fault.dropFrame && !job.fault.locFail) {
        obs::TraceSpan span(obs::tracer(), "LOC");
        out.localization = localizer_.localize(*job.frame, job.dt);
        if (out.localization.ok) {
            if (job.dt > 0)
                lastLocVelocity_ =
                    (out.localization.pose.pos - lastLocPose_.pos) *
                    (1.0 / job.dt);
            lastLocPose_ = out.localization.pose;
            locStaleFrames_ = 0;
        }
    } else {
        // LOC never ran: dead-reckon from the last good pose under
        // the bounded-staleness contract; blowing the bound forces
        // SAFE_STOP at commit (docs/OPERATING_MODES.md).
        lastLocPose_.pos += lastLocVelocity_ * job.dt;
        out.localization.pose = lastLocPose_;
        out.localization.ok = false;
        out.localization.lost = true;
        out.locFellBack = true;
        ++locStaleFrames_;
        if (governor_ &&
            locStaleFrames_ > params_.governor.maxStaleFrames)
            job.locStaleExceeded = true;
    }
    out.latencies.locMs = out.localization.timings.totalMs +
                          spikeOn(job.fault, obs::Stage::Loc);
}

void
Pipeline::stageTra(FrameJob& job)
{
    // --- (1c) Object tracking. ---
    FrameOutput& out = job.out;
    {
        obs::TraceSpan span(obs::tracer(), "TRA");
        if (job.fault.dropFrame || job.fault.traFail) {
            trackerPool_.coastBlind(&job.traTimings);
            out.traCoasted = true;
        } else if (!job.plan.runDet) {
            // Deliberately skipped detection (interval stretching /
            // TRACKING_ONLY): GOTURN coasting without miss counting.
            trackerPool_.coast(*job.frame, &job.traTimings);
            out.traCoasted = true;
        } else {
            trackerPool_.update(*job.frame, out.detections,
                                &job.traTimings);
        }
    }
    out.tracks = trackerPool_.tracks();
    out.latencies.traMs =
        job.traTimings.totalMs + spikeOn(job.fault, obs::Stage::Tra);
}

void
Pipeline::stageFusion(FrameJob& job)
{
    // --- (2) Fusion onto the world coordinate space. ---
    FrameOutput& out = job.out;
    {
        obs::TraceSpan span(obs::tracer(), "FUSION");
        out.scene = fusion_.fuse(out.tracks, out.localization.pose,
                                 job.dt, job.timeS);
    }
    out.latencies.fusionMs =
        fusion_.lastFuseMs() + spikeOn(job.fault, obs::Stage::Fusion);
}

void
Pipeline::stagePlan(FrameJob& job)
{
    FrameOutput& out = job.out;

    // --- (4) Mission planning: only on deviation. ---
    if (mission_)
        out.missionReplanned =
            mission_->checkDeviation(out.localization.pose.pos);

    // --- (3) Motion planning on the fused scene. ---
    {
        obs::TraceSpan span(obs::tracer(), "MOTPLAN");
        Stopwatch watch;
        std::vector<planning::PredictedObstacle> obstacles;
        obstacles.reserve(out.scene.objects.size());
        for (const auto& obj : out.scene.objects)
            obstacles.push_back(
                {obj.worldPos, obj.worldVelocity, 1.6});
        out.trajectory = planning::planConformal(
            out.localization.pose, params_.laneCenterY, obstacles,
            params_.motionPlanner);
        out.latencies.motPlanMs = watch.elapsedMs();
    }
    out.latencies.motPlanMs += spikeOn(job.fault, obs::Stage::MotPlan);

    // --- (5) Vehicle control. ---
    planning::VehicleState state;
    state.pose = out.localization.pose;
    state.speed = job.egoSpeed;
    out.command = controller_.control(state, out.trajectory, job.dt);
    if (job.plan.safeStop) {
        // SAFE_STOP actuation: hold the wheel straight and brake at
        // the controller's limit until the governor recovers.
        out.command.steering = 0.0;
        out.command.acceleration = -params_.control.maxBrake;
    }
}

void
Pipeline::commitJob(FrameJob& job,
                    const FrameGraphExecutor::FrameTiming& timing)
{
    FrameOutput& out = job.out;
    const std::int64_t frameId = job.id;

    // The wall-clock FRAME trace span: admission to commit.
    auto& tracerRef = obs::tracer();
    if (tracerRef.enabled())
        tracerRef.record("FRAME", "frame", job.traceStartUs,
                         tracerRef.nowUs() - job.traceStartUs, frameId);

    // Bounded-staleness escalation surfaced by the LOC stage; raised
    // here so the transition lands before this frame's observe().
    if (governor_ && job.locStaleExceeded)
        governor_->forceSafeStop(frameId, "stale:LOC");

    cycles_.detDnnMs += job.detTimings.dnnMs;
    cycles_.detOtherMs += job.detTimings.decodeMs;
    cycles_.locFeMs += out.localization.timings.feMs;
    cycles_.locOtherMs += out.localization.timings.totalMs -
                          out.localization.timings.feMs;
    cycles_.traDnnMs += job.traTimings.tracker.dnnMs;
    cycles_.traOtherMs +=
        job.traTimings.totalMs - job.traTimings.tracker.dnnMs;

    detRec_.record(out.latencies.detMs);
    traRec_.record(out.latencies.traMs);
    locRec_.record(out.latencies.locMs);
    fusionRec_.record(out.latencies.fusionMs);
    motRec_.record(out.latencies.motPlanMs);
    e2eRec_.record(out.latencies.endToEndMs());
    out.pipelinedMs = timing.commitMs - timing.arrivalMs;
    pipelinedRec_.record(out.pipelinedMs);

    // Deadline watchdog: every frame, whatever the obs switches say
    // (observe() is a few comparisons and mutates nothing the engines
    // read). Injected virtual spikes are included in the sample, so
    // the watchdog and governor see faults exactly as they would see
    // real stalls. Both consume the *composition* latency -- the
    // per-frame cost independent of pipelining -- so their decisions
    // are identical at every depth.
    const obs::FrameLatencySample sample{
        out.latencies.detMs, out.latencies.traMs, out.latencies.locMs,
        out.latencies.fusionMs, out.latencies.motPlanMs};
    deadline_.observe(frameId, sample);
    if (governor_)
        governor_->observe(frameId, sample);

    // Flight recorder: the frame's history on the pipeline's virtual
    // timeline (ms of simulated time), so a deterministic run yields
    // a deterministic post-mortem. Purely observational -- nothing
    // the engines read is touched. Six spans per frame at the
    // executor's virtual stage times: admission shift plus
    // cross-frame stage contention, the actual pipelined schedule.
    auto& fl = obs::flight();
    if (fl.enabled()) {
        const double t0 = job.timeS * 1000.0;
        const double e2e = out.latencies.endToEndMs();
        // DET->TRA chain on track 1, LOC on track 2: the parallel
        // perception branches partially overlap on the shared
        // timeline, so each branch nests on its own track.
        struct SpanRow
        {
            const char* name;
            double start;
            double dur;
            int track;
        };
        auto stage = [&](const char* name, int id, int track) {
            const auto& t = timing.stages[static_cast<std::size_t>(id)];
            return SpanRow{name, t.startMs, t.durMs, track};
        };
        const SpanRow spans[] = {
            {"FRAME", timing.admitMs, timing.commitMs - timing.admitMs,
             0},
            stage("DET", detStage_, 1),
            stage("TRA", traStage_, 1),
            stage("LOC", locStage_, 2),
            stage("FUSION", fusionStage_, 0),
            stage("MOTPLAN", planStage_, 0),
        };
        const bool perfOn = tracerRef.perfSpansEnabled();
        for (const auto& sp : spans) {
            fl.recordSpan(0, sp.name, frameId, sp.start, sp.dur,
                          sp.track);
            // Re-emit the wall-clock perf delta sampled over this
            // stage's trace span at the stage's virtual position.
            if (perfOn)
                if (const obs::PerfDelta* d =
                        obs::latestPerfDelta(sp.name))
                    fl.recordPerf(0, sp.name, frameId, sp.start,
                                  sp.dur, *d);
        }
        fl.recordMetric(0, "e2e_ms", frameId, t0, e2e);
        if (job.fault.dropFrame)
            fl.noteFault(0, "drop_frame", frameId, t0);
        if (job.fault.detFail)
            fl.noteFault(0, "det_fail", frameId, t0);
        if (job.fault.locFail)
            fl.noteFault(0, "loc_fail", frameId, t0);
        if (job.fault.traFail)
            fl.noteFault(0, "tra_fail", frameId, t0);
        if (job.fault.blackout)
            fl.noteFault(0, "blackout", frameId, t0);
        if (job.fault.noiseSigma > 0)
            fl.noteFault(0, "pixel_noise", frameId, t0);
        if (governor_) {
            const auto& tx = governor_->transitions();
            for (; govTransitionsSeen_ < tx.size();
                 ++govTransitionsSeen_) {
                const auto& t = tx[govTransitionsSeen_];
                fl.recordTransition(0, t.reason.c_str(), t.frame, t0,
                                    static_cast<int>(t.from),
                                    static_cast<int>(t.to),
                                    modeName(t.from), modeName(t.to));
                if (t.to == OperatingMode::SafeStop)
                    fl.noteSafeStop(0, t.frame, t0);
            }
        }
        if (e2e > params_.deadline.budgetMs)
            fl.noteDeadlineMiss(0, frameId, t0 + e2e, e2e,
                                e2e - params_.deadline.budgetMs);
    }

    if (obs::metricsEnabled()) {
        auto& reg = obs::metrics();
        reg.counter("pipeline.frames").add();
        reg.histogram("pipeline.det_ms").record(out.latencies.detMs);
        reg.histogram("pipeline.tra_ms").record(out.latencies.traMs);
        reg.histogram("pipeline.loc_ms").record(out.latencies.locMs);
        reg.histogram("pipeline.fusion_ms")
            .record(out.latencies.fusionMs);
        reg.histogram("pipeline.motplan_ms")
            .record(out.latencies.motPlanMs);
        reg.histogram("pipeline.e2e_ms")
            .record(out.latencies.endToEndMs());
        reg.histogram("pipeline.pipelined_ms").record(out.pipelinedMs);
        reg.counter("pipeline.mission_replans")
            .add(out.missionReplanned ? 1 : 0);
        reg.counter("pipeline.frames_dropped")
            .add(out.frameDropped ? 1 : 0);
        reg.counter("pipeline.det_skipped")
            .add(!job.plan.runDet ? 1 : 0);
        reg.counter("pipeline.det_fallback")
            .add(out.detFellBack ? 1 : 0);
        reg.counter("pipeline.loc_fallback")
            .add(out.locFellBack ? 1 : 0);
        reg.counter("pipeline.tra_coasted")
            .add(out.traCoasted ? 1 : 0);
    }

    // Stage the governor plan for the frame `depth` ahead, computed
    // with exactly the feedback available now (frames <= this one).
    if (governor_)
        planQueue_.push_back(governor_->plan(frameId + params_.depth));
}

} // namespace ad::pipeline
