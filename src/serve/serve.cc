#include "serve/serve.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <queue>
#include <sstream>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/time.hh"
#include "nn/kernel_context.hh"
#include "nn/network.hh"
#include "obs/flight.hh"

namespace ad::serve {

// ----------------------------------------------------------------- params

namespace {

/**
 * fatal() naming the knob unless `ok`; `bound` spells the legal range.
 * Callers phrase `ok` so that NaN fails it.
 */
void
requireKnob(bool ok, const char* key, const char* bound, double value)
{
    if (!ok)
        fatal("config key '", key, "': must be ", bound, ", got ",
              value);
}

} // namespace

ModeledEngineParams
ModeledEngineParams::fromConfig(const Config& cfg)
{
    ModeledEngineParams p;
    p.fixedMs = cfg.getDouble("engine.fixed-ms", p.fixedMs);
    requireKnob(p.fixedMs >= 0, "engine.fixed-ms", ">= 0", p.fixedMs);
    p.marginalMs = cfg.getDouble("engine.marginal-ms", p.marginalMs);
    requireKnob(p.marginalMs > 0, "engine.marginal-ms", "> 0",
                p.marginalMs);
    p.jitterSigma = cfg.getDouble("engine.jitter", p.jitterSigma);
    requireKnob(p.jitterSigma >= 0, "engine.jitter", ">= 0",
                p.jitterSigma);
    p.spikeP = cfg.getDouble("engine.spike-p", p.spikeP);
    requireKnob(p.spikeP >= 0 && p.spikeP <= 1, "engine.spike-p",
                "in [0, 1]", p.spikeP);
    return p;
}

ServeParams
ServeParams::fromConfig(const Config& cfg)
{
    ServeParams p;
    p.stream.deadlineMs =
        cfg.getDouble("deadline-ms", p.stream.deadlineMs);
    requireKnob(p.stream.deadlineMs > 0, "deadline-ms", "> 0",
                p.stream.deadlineMs);
    // 0 is legal: never queue, serve only the frame in hand.
    p.stream.queueDepth = cfg.getInt("queue-depth", p.stream.queueDepth);
    requireKnob(p.stream.queueDepth >= 0, "queue-depth", ">= 0",
                p.stream.queueDepth);
    p.batch.maxBatch = cfg.getInt("batch-max", p.batch.maxBatch);
    requireKnob(p.batch.maxBatch >= 1, "batch-max", ">= 1",
                p.batch.maxBatch);
    p.batch.maxWaitMs = cfg.getDouble("window-ms", p.batch.maxWaitMs);
    requireKnob(p.batch.maxWaitMs >= 0, "window-ms", ">= 0",
                p.batch.maxWaitMs);
    p.admission.enabled = cfg.getBool("admission", p.admission.enabled);
    p.seed = static_cast<std::uint64_t>(
        cfg.getInt("seed", static_cast<int>(p.seed)));
    // `--governor` and `gov.budget_ms` stay unread, so passing them
    // warns: the governors are always on, budget = deadline.
    p.governor.enabled = true;
    p.governor.budgetMs = p.stream.deadlineMs;
    p.governor.readTuning(cfg);
    p.slo.windowFrames = cfg.getInt("slo.window", p.slo.windowFrames);
    requireKnob(p.slo.windowFrames >= 1, "slo.window", ">= 1",
                p.slo.windowFrames);
    p.slo.targetMissRate =
        cfg.getDouble("slo.target-miss-rate", p.slo.targetMissRate);
    requireKnob(p.slo.targetMissRate > 0 && p.slo.targetMissRate <= 1,
                "slo.target-miss-rate", "in (0, 1]",
                p.slo.targetMissRate);
    return p;
}

// ---------------------------------------------------------------- engines

ModeledBatchEngine::ModeledBatchEngine(const ModeledEngineParams& params)
    : params_(params), rng_(params.seed)
{
    if (params.fixedMs < 0 || params.marginalMs <= 0)
        fatal("ModeledBatchEngine: invalid cost model");
}

double
ModeledBatchEngine::meanCostMs(double totalCostScale) const
{
    return params_.fixedMs + params_.marginalMs * totalCostScale;
}

double
ModeledBatchEngine::runBatch(const Batch& batch)
{
    // Fixed draw count per call (jitter, spike) keeps the cost
    // stream a pure function of (seed, call index).
    const double jitter = rng_.lognormal(
        -0.5 * params_.jitterSigma * params_.jitterSigma,
        params_.jitterSigma);
    const bool spike = rng_.bernoulli(params_.spikeP);
    double cost = meanCostMs(batch.totalCostScale()) * jitter;
    if (spike)
        cost *= params_.spikeFactor;
    return cost;
}

NnBatchEngine::NnBatchEngine(const nn::Network& net,
                             std::vector<nn::Tensor> inputs,
                             int threads)
    : net_(net), inputs_(std::move(inputs)),
      ctx_(std::make_unique<nn::KernelContext>(
          nn::kernelContext(threads)))
{
    if (inputs_.empty())
        fatal("NnBatchEngine: no per-stream inputs");
}

NnBatchEngine::~NnBatchEngine() = default;

double
NnBatchEngine::runBatch(const Batch& batch)
{
    std::vector<nn::Tensor> ins;
    ins.reserve(batch.size());
    for (const auto& item : batch.items)
        ins.push_back(
            inputs_[static_cast<std::size_t>(item.ticket.stream) %
                    inputs_.size()]);
    Stopwatch watch;
    const std::vector<nn::Tensor> outs =
        net_.forwardBatch(ins, *ctx_);
    const double ms = watch.elapsedMs();
    // Order-independent output digest: XOR of each item's summed
    // output bit pattern -- identical whatever the batching was.
    std::uint64_t digest = 0;
    std::memcpy(&digest, &checksum_, sizeof(double));
    for (const auto& out : outs) {
        double sum = 0.0;
        for (std::size_t i = 0; i < out.size(); ++i)
            sum += out.data()[i];
        std::uint64_t bits = 0;
        std::memcpy(&bits, &sum, sizeof(double));
        digest ^= bits;
    }
    std::memcpy(&checksum_, &digest, sizeof(double));
    return ms;
}

// ----------------------------------------------------------------- report

std::string
ServeReport::toString() const
{
    std::ostringstream oss;
    oss << "serve: " << framesArrived << " frames arrived, "
        << framesAdmitted << " engine-served (" << framesDegraded
        << " degraded), " << framesCoasted << " coasted, "
        << framesShed << " shed (" << 100.0 * shedRate << "%)\n";
    oss << "  admitted latency: " << admittedLatency.toString()
        << "\n";
    oss << "  deadline misses (engine-served): " << deadlineMisses
        << ", goodput " << goodputFps << " fps (total "
        << totalGoodputFps << " fps)\n";
    oss << "  batches: " << batches << ", mean size " << meanBatchSize
        << ", mean wait " << meanBatchWaitMs << " ms, "
        << pressureEscalations << " pressure escalations\n";
    oss << "  mode residency:";
    for (std::size_t m = 0; m < pipeline::kOperatingModeCount; ++m)
        oss << ' '
            << pipeline::modeName(
                   static_cast<pipeline::OperatingMode>(m))
            << '=' << framesInMode[m];
    oss << '\n';
    if (!streamSlo.empty()) {
        double worstP99 = -1.0, maxBurn = 0.0, meanGoodput = 0.0;
        for (const auto& s : streamSlo) {
            worstP99 = std::max(worstP99, s.p99Ms);
            maxBurn = std::max(maxBurn, s.burnRate);
            meanGoodput += s.goodputRatio;
        }
        meanGoodput /= static_cast<double>(streamSlo.size());
        oss << "  slo: worst window p99 " << worstP99
            << " ms, max burn rate " << maxBurn
            << ", mean goodput ratio " << meanGoodput << '\n';
    }
    return oss.str();
}

obs::json::Value
ServeReport::toJson() const
{
    obs::json::Array slo;
    for (std::size_t i = 0; i < streamSlo.size(); ++i) {
        const SloSnapshot& s = streamSlo[i];
        slo.emplace_back(obs::json::Object{
            {"stream", i}, {"window", s.window}, {"p50_ms", s.p50Ms},
            {"p99_ms", s.p99Ms}, {"p999_ms", s.p999Ms},
            {"miss_rate", s.missRate}, {"burn_rate", s.burnRate},
            {"goodput_ratio", s.goodputRatio}, {"misses", s.misses},
            {"total", s.total}});
    }
    obs::json::Object modes;
    for (std::size_t m = 0; m < pipeline::kOperatingModeCount; ++m)
        modes[pipeline::modeName(
            static_cast<pipeline::OperatingMode>(m))] = framesInMode[m];
    return obs::json::Object{
        {"streams", streams}, {"frames_per_stream", framesPerStream},
        {"arrived", framesArrived}, {"admitted", framesAdmitted},
        {"degraded", framesDegraded}, {"coasted", framesCoasted},
        {"shed", framesShed}, {"deadline_misses", deadlineMisses},
        {"mean_ms", admittedLatency.mean}, {"p50_ms", admittedLatency.p50},
        {"p99_ms", admittedLatency.p99},
        {"p9999_ms", admittedLatency.p9999},
        {"worst_ms", admittedLatency.worst}, {"goodput_fps", goodputFps},
        {"total_goodput_fps", totalGoodputFps}, {"shed_rate", shedRate},
        {"batches", batches}, {"mean_batch_size", meanBatchSize},
        {"mean_batch_wait_ms", meanBatchWaitMs},
        {"pressure_escalations", pressureEscalations},
        {"duration_ms", durationMs}, {"frames_in_mode", std::move(modes)},
        {"slo", std::move(slo)}};
}

std::vector<std::string>
ServeReport::violations() const
{
    std::vector<std::string> out;
    auto n = [](auto v) { return std::to_string(v); };
    const std::int64_t resolved =
        framesAdmitted + framesCoasted + framesShed;
    if (resolved != framesArrived)
        out.push_back("frame conservation: admitted + coasted + shed = " +
                      n(resolved) + " != arrived " + n(framesArrived));
    for (std::size_t i = 0; i < streamSlo.size(); ++i)
        if (streamSlo[i].misses > streamSlo[i].total)
            out.push_back("slo[" + n(i) + "]: misses " +
                          n(streamSlo[i].misses) + " > total " +
                          n(streamSlo[i].total));
    if (framesPerStream == 0)
        return out; // a fleet shard: no fixed inputs to check.
    if (framesArrived != streams * framesPerStream)
        out.push_back("arrivals: arrived " + n(framesArrived) +
                      " != streams x frames " +
                      n(streams * framesPerStream));
    if (streamSlo.size() != static_cast<std::size_t>(streams))
        out.push_back("slo entries: " + n(streamSlo.size()) + " for " +
                      n(streams) + " streams");
    return out;
}

// ----------------------------------------------------------------- server

MultiStreamServer::MultiStreamServer(const ServeParams& params,
                                     BatchEngine& engine)
    : params_(params), engine_(engine), scheduler_(params.batch),
      admission_(params.admission, registry_),
      postRng_(params.seed ^ 0xa5a5a5a5a5a5a5a5ull),
      pendingCheckMs_(std::numeric_limits<double>::infinity())
{
    if (params.streams < 1)
        fatal("MultiStreamServer: need at least one stream");
    for (int i = 0; i < params.streams; ++i) {
        StreamParams sp = params.stream;
        if (params.stagger)
            sp.phaseMs = sp.framePeriodMs * i / params.streams;
        const int slot =
            registry_.addStream(sp, params.governor, params.slo);
        tokens_.push_back(
            registry_.stream(slot).acquireOwnership(shardId_));
        txSeen_.push_back(0);
    }
    // One flight ring per stream so a post-mortem isolates the
    // misbehaving vehicle's recent history.
    obs::flight().ensureStreams(params.streams);
}

MultiStreamServer::MultiStreamServer(const ServeParams& params,
                                     BatchEngine& engine, ShardTag,
                                     int shardId)
    : params_(params), engine_(engine), scheduler_(params.batch),
      admission_(params.admission, registry_),
      postRng_(params.seed ^ 0xa5a5a5a5a5a5a5a5ull),
      shardId_(shardId),
      pendingCheckMs_(std::numeric_limits<double>::infinity())
{
    // Empty shard: the fleet imports streams and ensures flight
    // rings for the whole fleet-global stream space itself.
}

double
MultiStreamServer::samplePost()
{
    return params_.postMeanMs *
           postRng_.lognormal(-0.5 * params_.postJitterSigma *
                                  params_.postJitterSigma,
                              params_.postJitterSigma);
}

double
MultiStreamServer::engineBacklogMs(double nowMs) const
{
    return std::max(0.0, engineFreeAtMs_ - nowMs) +
           scheduler_.pendingCostScale() *
               admission_.expectedCostMs();
}

void
MultiStreamServer::scheduleCheck(double at)
{
    if (at >= pendingCheckMs_)
        return;
    pendingCheckMs_ = at;
    events_.push(
        Event{at, Event::Kind::EngineCheck, -1, -1, 0.0, false});
}

StreamState&
MultiStreamServer::ownedStream(int slot, const char* what)
{
    StreamState* s = registry_.find(slot);
    if (!s)
        fatal(std::string("MultiStreamServer: ") + what +
              " touched vacant slot " + std::to_string(slot) +
              " (stream migrated away with events pending?)");
    s->assertOwnership(tokens_[static_cast<std::size_t>(slot)], what);
    return *s;
}

// Governor transitions can land on any stream (pressure escalation
// picks the most-slack one), so the flight diff scans every stream;
// the no-transition case is one size compare each.
void
MultiStreamServer::emitTransitions(double now)
{
    auto& fl = obs::flight();
    if (!fl.enabled())
        return;
    for (std::size_t i = 0; i < registry_.size(); ++i) {
        const StreamState* s = registry_.find(static_cast<int>(i));
        if (!s)
            continue;
        const auto& tx = s->governor.transitions();
        auto& seen = txSeen_[i];
        for (; seen < tx.size(); ++seen) {
            const auto& t = tx[seen];
            fl.recordTransition(s->id, t.reason.c_str(), t.frame, now,
                                static_cast<int>(t.from),
                                static_cast<int>(t.to),
                                pipeline::modeName(t.from),
                                pipeline::modeName(t.to));
            if (t.to == pipeline::OperatingMode::SafeStop)
                fl.noteSafeStop(s->id, t.frame, now);
        }
    }
}

void
MultiStreamServer::promote(const FrameTicket& ticket, double now)
{
    StreamState& s = ownedStream(ticket.stream, "promote");
    const AdmitDecision d = admission_.decide(
        ticket, now, engineBacklogMs(now), params_.batch.maxWaitMs);
    auto& fl = obs::flight();
    if (fl.enabled()) {
        const char* action = d.action == AdmitAction::Shed
                                 ? "shed"
                                 : d.action == AdmitAction::Coast
                                       ? "coast"
                                       : "admit";
        fl.recordAdmission(s.id, action, ticket.seq, now, d.costScale,
                           d.degraded);
    }
    switch (d.action) {
    case AdmitAction::Shed:
        ++s.stats.shedAdmission;
        if (observer_)
            observer_->onShed(s, now, "admission");
        break;
    case AdmitAction::Coast: {
        ++s.stats.coasted;
        s.inFlight = true;
        events_.push(Event{now + params_.coastMs,
                           Event::Kind::Completion, ticket.stream,
                           ticket.seq, ticket.arrivalMs, false});
        break;
    }
    case AdmitAction::Admit: {
        ++s.stats.admitted;
        if (d.degraded)
            ++s.stats.degraded;
        InferenceRequest req;
        req.ticket = ticket;
        req.enqueueMs = now;
        req.deadlineMs = ticket.deadlineMs(s.params);
        req.costScale = d.costScale;
        req.degraded = d.degraded;
        scheduler_.enqueue(req);
        s.inFlight = true;
        break;
    }
    }
}

// A frame shed after admission (it queued too long): undo its admit
// accounting and free the stream for its next waiter.
void
MultiStreamServer::shedLate(const InferenceRequest& req, double now)
{
    StreamState& s = ownedStream(req.ticket.stream, "shedLate");
    --s.stats.admitted;
    if (req.degraded)
        --s.stats.degraded;
    ++s.stats.shedLate;
    obs::flight().recordAdmission(s.id, "shed_late", req.ticket.seq,
                                  now, req.costScale, req.degraded);
    if (observer_)
        observer_->onShed(s, now, "late");
    s.inFlight = false;
    while (!s.inFlight) {
        const auto next = s.queue.pop();
        if (!next)
            break;
        promote(*next, now);
    }
}

// Dispatch a batch if one is due; otherwise arrange a wake-up.
void
MultiStreamServer::maybeDispatch(double now)
{
    while (true) {
        if (engineFreeAtMs_ > now) {
            scheduleCheck(engineFreeAtMs_);
            return;
        }
        const auto at = scheduler_.nextDispatchMs(now);
        if (!at)
            return;
        if (*at > now) {
            scheduleCheck(*at);
            return;
        }
        auto batch = scheduler_.tryDispatch(now);
        if (!batch)
            return;
        // Late shed: the tail guarantee is enforced here, at the
        // last decision point before engine time is spent. A frame
        // stays in the batch only if even a risk-inflated
        // (contention-spiked) batch cost meets its deadline;
        // anything else would either miss anyway or drag the whole
        // batch's completion past its co-batched peers'.
        const double risk = params_.admission.riskFactor;
        const double perUnit = admission_.expectedCostMs();
        for (bool changed = params_.admission.enabled; changed;) {
            changed = false;
            const double worstDoneMs =
                now + risk * perUnit * batch->totalCostScale() +
                params_.postMeanMs + params_.admission.headroomMs;
            for (std::size_t i = 0; i < batch->items.size(); ++i) {
                if (worstDoneMs <= batch->items[i].deadlineMs)
                    continue;
                shedLate(batch->items[i], now);
                batch->items.erase(batch->items.begin() +
                                   static_cast<std::ptrdiff_t>(i));
                changed = true;
                break;
            }
        }
        if (batch->items.empty())
            continue; // everything was too late; try the rest.
        const double cost = engine_.runBatch(*batch);
        admission_.onBatchExecuted(cost, batch->totalCostScale());
        // Keep the batcher's dispatch-by bound in step with the
        // measured cost: reserve worst-case inference + post +
        // headroom.
        scheduler_.setLatestStartSlackMs(
            risk * admission_.expectedCostMs() + params_.postMeanMs +
            params_.admission.headroomMs);
        engineFreeAtMs_ = now + cost;
        for (const auto& item : batch->items) {
            const double post = samplePost();
            events_.push(Event{now + cost + post,
                               Event::Kind::Completion,
                               item.ticket.stream, item.ticket.seq,
                               item.ticket.arrivalMs, true});
        }
        scheduleCheck(engineFreeAtMs_);
        return;
    }
}

void
MultiStreamServer::processEvent(const Event& ev)
{
    const double now = ev.timeMs;
    lastEventMs_ = std::max(lastEventMs_, now);

    switch (ev.kind) {
    case Event::Kind::Arrival: {
        StreamState& s = ownedStream(ev.stream, "arrival");
        ++s.stats.arrived;
        if (framesPerStream_ > 0 && ev.seq + 1 < framesPerStream_) {
            const double next = now + s.params.framePeriodMs;
            events_.push(Event{next, Event::Kind::Arrival, ev.stream,
                               ev.seq + 1, next, false});
        }
        admission_.evaluatePressure(globalArrivals_++,
                                    engineBacklogMs(now));
        const FrameTicket ticket{ev.stream, ev.seq, now};
        if (s.inFlight) {
            if (const auto evicted = s.queue.push(ticket)) {
                ++s.stats.shedStale;
                if (observer_)
                    observer_->onShed(s, now, "stale");
            }
        } else {
            promote(ticket, now);
        }
        break;
    }
    case Event::Kind::Completion: {
        StreamState& s = ownedStream(ev.stream, "completion");
        const double latency = now - ev.arrivalMs;
        admission_.onCompletion(
            FrameTicket{ev.stream, ev.seq, ev.arrivalMs}, latency,
            ev.engineServed);
        auto& fl = obs::flight();
        if (fl.enabled())
            fl.recordSpan(s.id, ev.engineServed ? "serve" : "coast",
                          ev.seq, ev.arrivalMs, latency);
        if (ev.engineServed) {
            ++s.stats.completed;
            admittedRec_.record(latency);
            if (latency > s.params.deadlineMs) {
                ++s.stats.missedDeadline;
                fl.noteDeadlineMiss(s.id, ev.seq, now, latency,
                                    latency - s.params.deadlineMs);
            } else {
                ++onTimeServed_;
            }
        } else if (latency <= s.params.deadlineMs) {
            ++onTimeCoasted_;
        }
        if (observer_)
            observer_->onCompletion(s, latency, ev.engineServed);
        s.inFlight = false;
        // Drain: a promoted frame may itself be shed, freeing the
        // stream for the next waiter.
        while (!s.inFlight) {
            const auto next = s.queue.pop();
            if (!next)
                break;
            promote(*next, now);
        }
        break;
    }
    case Event::Kind::EngineCheck:
        pendingCheckMs_ = std::numeric_limits<double>::infinity();
        break;
    }
    maybeDispatch(now);
    emitTransitions(now);
}

void
MultiStreamServer::injectArrival(int slot, std::int64_t seq,
                                 double timeMs)
{
    if (!registry_.find(slot))
        fatal("MultiStreamServer: injectArrival into vacant slot " +
              std::to_string(slot));
    events_.push(
        Event{timeMs, Event::Kind::Arrival, slot, seq, timeMs, false});
}

void
MultiStreamServer::stepUntil(double untilMs)
{
    while (!events_.empty() && events_.top().timeMs <= untilMs) {
        const Event ev = events_.top();
        events_.pop();
        processEvent(ev);
    }
}

void
MultiStreamServer::drain()
{
    stepUntil(std::numeric_limits<double>::infinity());
}

double
MultiStreamServer::nextEventMs() const
{
    return events_.empty() ? std::numeric_limits<double>::infinity()
                           : events_.top().timeMs;
}

bool
MultiStreamServer::migratable(int slot) const
{
    const StreamState* s = registry_.find(slot);
    return s && !s->inFlight && s->queue.empty();
}

std::unique_ptr<StreamState>
MultiStreamServer::exportStream(int slot)
{
    if (!migratable(slot))
        fatal("MultiStreamServer: exportStream(" +
              std::to_string(slot) +
              "): stream is absent or not quiescent");
    StreamState& s = registry_.stream(slot);
    s.releaseOwnership(tokens_[static_cast<std::size_t>(slot)]);
    tokens_[static_cast<std::size_t>(slot)] = OwnershipToken{};
    txSeen_[static_cast<std::size_t>(slot)] = 0;
    return registry_.extract(slot);
}

int
MultiStreamServer::importStream(std::unique_ptr<StreamState> stream)
{
    if (!stream)
        fatal("MultiStreamServer: importStream of null stream");
    StreamState& ref = *stream;
    const int slot = registry_.adopt(std::move(stream));
    const auto idx = static_cast<std::size_t>(slot);
    if (idx >= tokens_.size()) {
        tokens_.resize(idx + 1);
        txSeen_.resize(idx + 1, 0);
    }
    tokens_[idx] = ref.acquireOwnership(shardId_);
    // The stream's governor history was already emitted to flight by
    // the previous owner; only new transitions are ours to emit.
    txSeen_[idx] = ref.governor.transitions().size();
    return slot;
}

bool
MultiStreamServer::escalateStream(int slot, std::int64_t frame,
                                  pipeline::OperatingMode cap,
                                  const char* reason)
{
    StreamState& s = ownedStream(slot, "escalate");
    const pipeline::OperatingMode mode = s.governor.mode();
    if (mode >= cap)
        return false;
    s.governor.requestEscalation(
        frame,
        static_cast<pipeline::OperatingMode>(static_cast<int>(mode) +
                                             1),
        reason);
    return true;
}

ServeReport
MultiStreamServer::run(std::int64_t framesPerStream)
{
    framesPerStream_ = framesPerStream;
    for (int i = 0; i < params_.streams; ++i) {
        const StreamState& s = registry_.stream(i);
        events_.push(Event{s.params.phaseMs, Event::Kind::Arrival, i,
                           0, s.params.phaseMs, false});
    }
    drain();
    ServeReport report = buildReport();
    report.streams = params_.streams;
    report.framesPerStream = framesPerStream;
    return report;
}

ServeReport
MultiStreamServer::buildReport()
{
    ServeReport report;
    report.streamSlo.reserve(registry_.size());
    for (std::size_t i = 0; i < registry_.size(); ++i) {
        StreamState* stream = registry_.find(static_cast<int>(i));
        if (!stream)
            continue;
        stream->slo.refresh();
        report.streamSlo.push_back(stream->slo.snapshot());
        const StreamStats& st = stream->stats;
        report.framesArrived += st.arrived;
        report.framesAdmitted += st.admitted;
        report.framesDegraded += st.degraded;
        report.framesCoasted += st.coasted;
        report.framesShed +=
            st.shedAdmission + st.shedStale + st.shedLate;
        report.deadlineMisses += st.missedDeadline;
        const auto& inMode = stream->governor.framesInMode();
        for (std::size_t m = 0; m < pipeline::kOperatingModeCount;
             ++m)
            report.framesInMode[m] += inMode[m];
    }
    report.admittedLatency = admittedRec_.summary();
    report.durationMs = lastEventMs_;
    if (lastEventMs_ > 0) {
        report.goodputFps = 1000.0 * onTimeServed_ / lastEventMs_;
        report.totalGoodputFps =
            1000.0 * (onTimeServed_ + onTimeCoasted_) / lastEventMs_;
    }
    if (report.framesArrived > 0)
        report.shedRate = static_cast<double>(report.framesShed) /
                          report.framesArrived;
    report.batches = scheduler_.batchesFormed();
    report.meanBatchSize = scheduler_.meanBatchSize();
    report.meanBatchWaitMs = scheduler_.meanWaitMs();
    report.pressureEscalations = admission_.pressureEscalations();

    publishMetrics();
    return report;
}

void
MultiStreamServer::publishMetrics()
{
    // Per-stream labeled metrics land in the server-local registry;
    // one merge at the end of the run touches the global lock once
    // instead of once per frame. Labels use the fleet-global stream
    // id, so a migrated stream keeps one metric series across shards
    // (the per-shard series are distinguished by metricPrefix).
    const std::string& prefix = params_.metricPrefix;
    for (std::size_t i = 0; i < registry_.size(); ++i) {
        const StreamState* sp = registry_.find(static_cast<int>(i));
        if (!sp)
            continue;
        const StreamState& s = *sp;
        const std::string id = std::to_string(s.id);
        local_
            .counter(obs::labeled(prefix + ".frames_arrived",
                                  "stream", id))
            .add(static_cast<std::uint64_t>(s.stats.arrived));
        local_
            .counter(obs::labeled(prefix + ".frames_admitted",
                                  "stream", id))
            .add(static_cast<std::uint64_t>(s.stats.admitted));
        local_
            .counter(
                obs::labeled(prefix + ".frames_shed", "stream", id))
            .add(static_cast<std::uint64_t>(s.stats.shedAdmission +
                                            s.stats.shedStale +
                                            s.stats.shedLate));
        local_
            .counter(obs::labeled(prefix + ".deadline_misses",
                                  "stream", id))
            .add(static_cast<std::uint64_t>(s.stats.missedDeadline));
        local_
            .histogram(
                obs::labeled(prefix + ".latency_ms", "stream", id))
            .mergeFrom(s.servedLatency);
        local_
            .gauge(obs::labeled(prefix + ".slack_ms", "stream", id))
            .set(s.slackMs());
        const SloSnapshot& slo = s.slo.snapshot();
        local_
            .gauge(obs::labeled(prefix + ".slo.p50_ms", "stream", id))
            .set(slo.p50Ms);
        local_
            .gauge(obs::labeled(prefix + ".slo.p99_ms", "stream", id))
            .set(slo.p99Ms);
        local_
            .gauge(
                obs::labeled(prefix + ".slo.p999_ms", "stream", id))
            .set(slo.p999Ms);
        local_
            .gauge(
                obs::labeled(prefix + ".slo.burn_rate", "stream", id))
            .set(slo.burnRate);
        local_
            .gauge(obs::labeled(prefix + ".slo.goodput_ratio",
                                "stream", id))
            .set(slo.goodputRatio);
        local_
            .gauge(
                obs::labeled(prefix + ".slo.miss_rate", "stream", id))
            .set(slo.missRate);
    }
    if (obs::metricsEnabled())
        obs::metrics().merge(local_);
}

} // namespace ad::serve
