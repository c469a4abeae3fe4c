#include "fleet/fleet.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>
#include <thread>

#include "common/config.hh"
#include "common/logging.hh"
#include "obs/flight.hh"
#include "obs/metrics.hh"

namespace ad::fleet {

// ----------------------------------------------------------------- params

RebalanceParams
RebalanceParams::fromConfig(const Config& cfg)
{
    RebalanceParams p;
    p.enabled = cfg.getBool("fleet.rebalance.enabled", p.enabled);
    p.periodMs =
        cfg.getDouble("fleet.rebalance.period-ms", p.periodMs);
    p.divergence =
        cfg.getDouble("fleet.rebalance.divergence", p.divergence);
    p.minBurn = cfg.getDouble("fleet.rebalance.min-burn", p.minBurn);
    p.maxMovesPerEpoch =
        cfg.getInt("fleet.rebalance.max-moves", p.maxMovesPerEpoch);
    p.shedPressure = cfg.getDouble("fleet.rebalance.shed-pressure",
                                   p.shedPressure);
    p.maxEscalationsPerEpoch = cfg.getInt(
        "fleet.rebalance.max-escalations", p.maxEscalationsPerEpoch);
    return p;
}

FleetParams
FleetParams::fromConfig(const Config& cfg)
{
    FleetParams p;
    p.shards = cfg.getInt("serve.shards", p.shards);
    p.maxStreamsPerShard =
        cfg.getInt("fleet.admit.max-streams-per-shard",
                   p.maxStreamsPerShard);
    p.parallel = cfg.getBool("fleet.parallel", p.parallel);
    p.rebalance = RebalanceParams::fromConfig(cfg);
    return p;
}

// --------------------------------------------------------------- registry

FleetRegistry::FleetRegistry(int streams, int shards)
    : shards_(shards)
{
    if (streams < 1 || shards < 1)
        fatal("FleetRegistry: need >= 1 stream and >= 1 shard");
    locs_.resize(static_cast<std::size_t>(streams));
}

void
FleetRegistry::place(int stream, int shard, int slot)
{
    if (stream < 0 ||
        static_cast<std::size_t>(stream) >= locs_.size() ||
        shard < 0 || shard >= shards_ || slot < 0)
        fatal("FleetRegistry: invalid placement");
    locs_[static_cast<std::size_t>(stream)] = Loc{shard, slot};
}

std::vector<int>
FleetRegistry::streamsOf(int shard) const
{
    std::vector<int> out;
    for (std::size_t g = 0; g < locs_.size(); ++g)
        if (locs_[g].shard == shard)
            out.push_back(static_cast<int>(g));
    return out;
}

// ------------------------------------------------------------ coordinator

FleetCoordinator::FleetCoordinator(const FleetParams& params,
                                   const ScenarioLoadGen& load)
    : rebalance_(params.rebalance)
{
    const int n = load.params().streams;
    admitted_.assign(static_cast<std::size_t>(n), true);
    streamsAdmitted_ = n;
    if (params.maxStreamsPerShard <= 0)
        return;
    const int cap = params.maxStreamsPerShard * params.shards;
    if (cap >= n)
        return;
    // Global admission rejects fleet-wide lowest-criticality streams
    // first (ties: the highest id loses), independent of which shard
    // they would have landed on.
    std::vector<int> ids(static_cast<std::size_t>(n));
    std::iota(ids.begin(), ids.end(), 0);
    std::sort(ids.begin(), ids.end(), [&load](int a, int b) {
        const int ca = load.criticality(a);
        const int cb = load.criticality(b);
        if (ca != cb)
            return ca < cb;
        return a > b;
    });
    for (int i = 0; i < n - cap; ++i)
        admitted_[static_cast<std::size_t>(ids[static_cast<
            std::size_t>(i)])] = false;
    streamsAdmitted_ = cap;
}

std::vector<FleetCoordinator::Candidate>
FleetCoordinator::pickVictims(std::vector<Candidate> candidates) const
{
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                  if (a.criticality != b.criticality)
                      return a.criticality < b.criticality;
                  if (a.slackMs != b.slackMs)
                      return a.slackMs > b.slackMs;
                  return a.stream < b.stream;
              });
    const auto cap = static_cast<std::size_t>(
        std::max(0, rebalance_.maxEscalationsPerEpoch));
    if (candidates.size() > cap)
        candidates.resize(cap);
    return candidates;
}

// ----------------------------------------------------------------- report

std::string
FleetReport::toString() const
{
    std::ostringstream os;
    os << "fleet: " << shards << " shards, " << streamsAdmitted << "/"
       << streamsRequested << " streams admitted, " << framesArrived
       << " frames arrived\n";
    os << "  " << framesAdmitted << " engine-served ("
       << framesDegraded << " degraded), " << framesCoasted
       << " coasted, " << framesShed << " shed ("
       << 100.0 * shedRate << "%), " << deadlineMisses
       << " deadline misses\n";
    os << "  admitted latency: " << admittedLatency.toString()
       << "\n";
    os << "  goodput " << goodputFps << " fps (total "
       << totalGoodputFps << " fps) over " << durationMs << " ms, "
       << epochs << " epochs\n";
    os << "  " << migrations << " migrations, " << fleetEscalations
       << " fleet escalations\n";
    for (const auto& r : shardRows)
        os << "  shard " << r.shard << ": " << r.streamsFinal
           << " streams (" << r.migrationsIn << " in, "
           << r.migrationsOut << " out), " << r.arrivalsInjected
           << " arrivals, p99.99 " << r.admittedLatency.p9999
           << " ms, goodput " << r.goodputFps << " fps, burn "
           << r.burnRate << "\n";
    return os.str();
}

obs::json::Value
FleetReport::toJson() const
{
    obs::json::Array rows;
    for (std::size_t k = 0; k < shardRows.size(); ++k) {
        const ShardSummary& r = shardRows[k];
        obs::json::Object row{
            {"shard", r.shard}, {"streams_final", r.streamsFinal},
            {"injected", r.arrivalsInjected},
            {"completions", r.completions}, {"sheds", r.sheds},
            {"goodput_fps", r.goodputFps}, {"burn_rate", r.burnRate},
            {"migrations_in", r.migrationsIn},
            {"migrations_out", r.migrationsOut}};
        if (k < shardReports.size())
            row["serve"] = shardReports[k].toJson();
        rows.emplace_back(std::move(row));
    }
    obs::json::Array log;
    for (const Migration& m : migrationLog)
        log.emplace_back(obs::json::Object{
            {"epoch", m.epoch}, {"t_ms", m.tMs}, {"stream", m.stream},
            {"from", m.fromShard}, {"to", m.toShard},
            {"burn_from", m.burnFrom}, {"burn_to", m.burnTo}});
    return obs::json::Object{
        {"shards", shards}, {"streams", streamsRequested},
        {"streams_admitted", streamsAdmitted},
        {"arrived", framesArrived}, {"admitted", framesAdmitted},
        {"degraded", framesDegraded}, {"coasted", framesCoasted},
        {"shed", framesShed}, {"deadline_misses", deadlineMisses},
        {"p50_ms", admittedLatency.p50}, {"p99_ms", admittedLatency.p99},
        {"p9999_ms", admittedLatency.p9999},
        {"worst_ms", admittedLatency.worst}, {"goodput_fps", goodputFps},
        {"total_goodput_fps", totalGoodputFps}, {"shed_rate", shedRate},
        {"duration_ms", durationMs}, {"epochs", epochs},
        {"migrations", migrations}, {"fleet_escalations", fleetEscalations},
        {"shard_rows", std::move(rows)}, {"migration_log", std::move(log)}};
}

std::vector<std::string>
FleetReport::violations() const
{
    std::vector<std::string> out;
    auto n = [](auto v) { return std::to_string(v); };
    const std::int64_t resolved =
        framesAdmitted + framesCoasted + framesShed;
    if (resolved != framesArrived)
        out.push_back("frame conservation: admitted + coasted + shed = " +
                      n(resolved) + " != arrived " + n(framesArrived));
    if (shards < 1 || streamsAdmitted > streamsRequested)
        out.push_back("fleet shape: " + n(shards) + " shards, " +
                      n(streamsAdmitted) + " of " + n(streamsRequested) +
                      " streams admitted");
    if (shardRows.size() != static_cast<std::size_t>(shards))
        out.push_back("shard rows: " + n(shardRows.size()) + " for " +
                      n(shards) + " shards");
    std::int64_t injected = 0;
    std::int64_t resident = 0;
    for (const ShardSummary& r : shardRows) {
        // Migrations only move quiescent streams, so every arrival
        // injected into a shard is resolved on it.
        if (r.arrivalsInjected != r.completions + r.sheds)
            out.push_back("shard " + n(r.shard) +
                          " conservation: injected " +
                          n(r.arrivalsInjected) +
                          " != completions + sheds " +
                          n(r.completions + r.sheds));
        injected += r.arrivalsInjected;
        resident += r.streamsFinal;
    }
    if (injected != framesArrived)
        out.push_back("injected total: " + n(injected) + " != arrived " +
                      n(framesArrived));
    if (resident != streamsAdmitted)
        out.push_back("resident streams: " + n(resident) +
                      " != streams admitted " + n(streamsAdmitted));
    if (static_cast<std::int64_t>(migrationLog.size()) != migrations)
        out.push_back("migration log: " + n(migrationLog.size()) +
                      " entries for " + n(migrations) + " migrations");
    auto shard = [this](int k) { return k >= 0 && k < shards; };
    for (std::size_t i = 0; i < migrationLog.size(); ++i) {
        const Migration& m = migrationLog[i];
        if (!shard(m.fromShard) || !shard(m.toShard) ||
            m.fromShard == m.toShard || m.stream < 0 ||
            m.stream >= streamsRequested)
            out.push_back("migration_log[" + n(i) + "]: stream " +
                          n(m.stream) + " from shard " + n(m.fromShard) +
                          " to " + n(m.toShard) + " is not a valid move");
    }
    for (std::size_t k = 0; k < shardReports.size(); ++k)
        for (const std::string& v : shardReports[k].violations())
            out.push_back("shard " + n(k) + " " + v);
    return out;
}

// ------------------------------------------------------------------ shard

/**
 * One engine replica: its server, its (possibly owned) engine, the
 * shard-level SLO accountant fed by the server's observer hooks,
 * and event-time counters for per-shard conservation checks.
 */
struct ShardedServer::Shard final : serve::ServeObserver
{
    Shard(const serve::SloParams& sloParams, double budgetMs)
        : slo(sloParams, budgetMs), budgetMs(budgetMs)
    {
    }

    void
    onCompletion(const serve::StreamState& s, double latencyMs,
                 bool engineServed) override
    {
        ++completions;
        slo.observe(latencyMs,
                    engineServed && latencyMs <= s.params.deadlineMs);
    }

    void
    onShed(const serve::StreamState&, double, const char*) override
    {
        ++sheds;
        // A shed frame burns the shard's SLO budget exactly like a
        // miss: the vehicle got nothing inside its deadline. The
        // shard SLO's percentiles are not latencies of anything
        // real; only its burn rate is read (by the rebalancer).
        slo.observe(2.0 * budgetMs, false);
    }

    std::unique_ptr<serve::ModeledBatchEngine> ownedEngine;
    serve::BatchEngine* engine = nullptr;
    std::unique_ptr<serve::MultiStreamServer> server;
    serve::StreamSlo slo;
    double budgetMs;
    std::int64_t completions = 0;
    std::int64_t sheds = 0;
    std::int64_t injected = 0;
    std::int64_t migrationsIn = 0;
    std::int64_t migrationsOut = 0;
};

// ----------------------------------------------------------------- server

ShardedServer::ShardedServer(const FleetParams& params,
                             const ScenarioLoadGen& load)
    : ShardedServer(params, load, {})
{
}

ShardedServer::ShardedServer(const FleetParams& params,
                             const ScenarioLoadGen& load,
                             std::vector<serve::BatchEngine*> engines)
    : params_(params), load_(load),
      registry_(load.params().streams, params.shards),
      coordinator_(params, load)
{
    if (params.shards < 1)
        fatal("ShardedServer: need at least one shard");
    if (!engines.empty() &&
        engines.size() != static_cast<std::size_t>(params.shards))
        fatal("ShardedServer: need one engine per shard");

    for (int k = 0; k < params.shards; ++k) {
        auto shard = std::make_unique<Shard>(
            params.serve.slo, params.serve.stream.deadlineMs);
        if (engines.empty()) {
            serve::ModeledEngineParams ep = params.engine;
            ep.seed = params.engine.seed +
                      static_cast<std::uint64_t>(k);
            shard->ownedEngine =
                std::make_unique<serve::ModeledBatchEngine>(ep);
            shard->engine = shard->ownedEngine.get();
        } else {
            shard->engine = engines[static_cast<std::size_t>(k)];
        }
        serve::ServeParams sp = params.serve;
        sp.seed = params.serve.seed + static_cast<std::uint64_t>(k);
        sp.metricPrefix =
            params.serve.metricPrefix + ".shard" + std::to_string(k);
        // Which stream loses quality first is a fleet decision on a
        // multi-shard fleet (see arbitrate()); a single shard *is*
        // the fleet, so the per-server pressure policy stands and a
        // 1-shard run reproduces MultiStreamServer exactly.
        sp.admission.pressureEnabled = params.shards == 1;
        shard->server = std::make_unique<serve::MultiStreamServer>(
            sp, *shard->engine,
            serve::MultiStreamServer::ShardTag{}, k);
        shard->server->setObserver(shard.get());
        shards_.push_back(std::move(shard));
    }
    registerStreams();
}

ShardedServer::~ShardedServer() = default;

void
ShardedServer::registerStreams()
{
    const LoadGenParams& lp = load_.params();
    // One flight ring per fleet-global stream id: a vehicle's ring
    // follows it across shards (migrations land in it too).
    obs::flight().ensureStreams(lp.streams);
    const std::vector<bool>& admitted = coordinator_.admitted();
    int placed = 0;
    for (int g = 0; g < lp.streams; ++g) {
        if (!admitted[static_cast<std::size_t>(g)])
            continue;
        const int k = placed % params_.shards; // round-robin.
        serve::StreamParams sp = params_.serve.stream;
        sp.framePeriodMs = lp.periodMs;
        sp.phaseMs = load_.phaseMs(g);
        auto stream = std::make_unique<serve::StreamState>(
            g, sp, params_.serve.governor, params_.serve.slo);
        const int slot = shards_[static_cast<std::size_t>(k)]
                             ->server->importStream(std::move(stream));
        registry_.place(g, k, slot);
        ++placed;
    }
}

void
ShardedServer::stepShardsTo(double untilMs)
{
    if (params_.parallel && shards_.size() > 1) {
        // Shards share no mutable state between epoch boundaries
        // (separate registries, schedulers, RNGs; flight rings are
        // internally synchronized), so stepping them on one thread
        // each is bit-identical to stepping them in sequence for
        // modeled engines — and the contention target for measured
        // ones.
        std::vector<std::thread> threads;
        threads.reserve(shards_.size());
        for (auto& shard : shards_)
            threads.emplace_back([&server = *shard->server,
                                  untilMs] {
                server.stepUntil(untilMs);
            });
        for (auto& t : threads)
            t.join();
    } else {
        for (auto& shard : shards_)
            shard->server->stepUntil(untilMs);
    }
}

void
ShardedServer::coordinate(std::int64_t epoch, double nowMs)
{
    std::vector<double> burns;
    burns.reserve(shards_.size());
    for (auto& shard : shards_) {
        shard->slo.refresh();
        burns.push_back(shard->slo.snapshot().burnRate);
    }
    if (params_.shards > 1)
        arbitrate(epoch, nowMs);
    if (params_.rebalance.enabled && params_.shards > 1)
        rebalance(epoch, nowMs, burns);
}

void
ShardedServer::arbitrate(std::int64_t epoch, double nowMs)
{
    const double budget = params_.serve.stream.deadlineMs;
    const pipeline::OperatingMode cap =
        params_.serve.admission.maxPressureMode;
    std::vector<FleetCoordinator::Candidate> candidates;
    for (int k = 0; k < params_.shards; ++k) {
        Shard& shard = *shards_[static_cast<std::size_t>(k)];
        const double pressure =
            shard.server->engineBacklogMs(nowMs) / budget;
        if (pressure <= params_.rebalance.shedPressure)
            continue;
        for (const int g : registry_.streamsOf(k)) {
            const int slot = registry_.slotOf(g);
            const serve::StreamState* s =
                shard.server->registry().find(slot);
            if (!s || s->governor.mode() >= cap)
                continue;
            candidates.push_back(FleetCoordinator::Candidate{
                g, k, slot, load_.criticality(g), s->slackMs()});
        }
    }
    for (const auto& v :
         coordinator_.pickVictims(std::move(candidates))) {
        if (shards_[static_cast<std::size_t>(v.shard)]
                ->server->escalateStream(v.slot, epoch, cap,
                                         "fleet:arbitrate"))
            ++fleetEscalations_;
    }
}

void
ShardedServer::rebalance(std::int64_t epoch, double nowMs,
                         const std::vector<double>& burns)
{
    std::vector<double> sorted = burns;
    std::sort(sorted.begin(), sorted.end());
    const double median = sorted[sorted.size() / 2];
    const double hotThreshold =
        params_.rebalance.divergence *
        std::max(median, params_.rebalance.minBurn);

    int cold = 0;
    for (int k = 1; k < params_.shards; ++k)
        if (burns[static_cast<std::size_t>(k)] <
            burns[static_cast<std::size_t>(cold)])
            cold = k;

    int movesLeft = params_.rebalance.maxMovesPerEpoch;
    for (int h = 0; h < params_.shards && movesLeft > 0; ++h) {
        const double burn = burns[static_cast<std::size_t>(h)];
        if (h == cold || burn <= hotThreshold ||
            burn <= burns[static_cast<std::size_t>(cold)])
            continue;

        // Work-stealing steals the *most slack* streams: they are
        // quiescent most often, their demand relocates cleanly, and
        // the vehicles closest to their deadline keep their warm
        // shard. Ties resolve by id — deterministic.
        struct Cand
        {
            double slackMs;
            int stream;
        };
        std::vector<Cand> cands;
        Shard& hot = *shards_[static_cast<std::size_t>(h)];
        for (const int g : registry_.streamsOf(h)) {
            const int slot = registry_.slotOf(g);
            if (!hot.server->migratable(slot))
                continue;
            cands.push_back(Cand{
                hot.server->registry().find(slot)->slackMs(), g});
        }
        std::sort(cands.begin(), cands.end(),
                  [](const Cand& a, const Cand& b) {
                      if (a.slackMs != b.slackMs)
                          return a.slackMs > b.slackMs;
                      return a.stream < b.stream;
                  });
        for (const Cand& c : cands) {
            if (movesLeft == 0)
                break;
            const int slot = registry_.slotOf(c.stream);
            auto stream = hot.server->exportStream(slot);
            const int newSlot =
                shards_[static_cast<std::size_t>(cold)]
                    ->server->importStream(std::move(stream));
            registry_.place(c.stream, cold, newSlot);
            ++hot.migrationsOut;
            ++shards_[static_cast<std::size_t>(cold)]->migrationsIn;
            migrationLog_.push_back(Migration{
                epoch, nowMs, c.stream, h, cold, burn,
                burns[static_cast<std::size_t>(cold)]});
            obs::flight().recordMigration(c.stream, epoch, nowMs, h,
                                          cold);
            --movesLeft;
        }
    }
}

FleetReport
ShardedServer::run()
{
    if (ran_)
        fatal("ShardedServer: run() may only be called once");
    ran_ = true;

    const std::vector<ArrivalEvent>& tape = load_.schedule();
    const double epochMs = params_.rebalance.periodMs;
    if (epochMs <= 0.0)
        fatal("ShardedServer: rebalance period must be positive");

    std::size_t next = 0;
    std::int64_t epoch = 0;
    const auto pendingWork = [&]() {
        if (next < tape.size())
            return true;
        for (const auto& shard : shards_)
            if (shard->server->nextEventMs() !=
                std::numeric_limits<double>::infinity())
                return true;
        return false;
    };

    while (pendingWork()) {
        const double boundary =
            epochMs * static_cast<double>(epoch + 1);
        while (next < tape.size() && tape[next].tMs <= boundary) {
            const ArrivalEvent& a = tape[next++];
            if (!registry_.placed(a.stream))
                continue; // rejected by global admission.
            const int k = registry_.shardOf(a.stream);
            shards_[static_cast<std::size_t>(k)]
                ->server->injectArrival(registry_.slotOf(a.stream),
                                        a.seq, a.tMs);
            ++shards_[static_cast<std::size_t>(k)]->injected;
        }
        stepShardsTo(boundary);
        if (pendingWork())
            coordinate(epoch, boundary);
        ++epoch;
    }

    // ------------------------------------------------- assemble
    FleetReport report;
    report.shards = params_.shards;
    report.streamsRequested = load_.params().streams;
    report.streamsAdmitted = coordinator_.streamsAdmitted();
    report.epochs = epoch;
    report.migrations =
        static_cast<std::int64_t>(migrationLog_.size());
    report.fleetEscalations = fleetEscalations_;
    report.migrationLog = migrationLog_;

    LatencyRecorder merged;
    std::int64_t onTimeServed = 0;
    std::int64_t onTimeCoasted = 0;
    for (auto& shard : shards_) {
        serve::ServeReport sr = shard->server->buildReport();
        report.framesArrived += sr.framesArrived;
        report.framesAdmitted += sr.framesAdmitted;
        report.framesDegraded += sr.framesDegraded;
        report.framesCoasted += sr.framesCoasted;
        report.framesShed += sr.framesShed;
        report.deadlineMisses += sr.deadlineMisses;
        merged.merge(shard->server->admittedRecorder());
        report.durationMs = std::max(report.durationMs,
                                     shard->server->lastEventMs());
        onTimeServed += shard->server->onTimeServed();
        onTimeCoasted += shard->server->onTimeCoasted();
        report.shardReports.push_back(std::move(sr));
    }
    report.admittedLatency = merged.summary();
    if (report.durationMs > 0) {
        report.goodputFps =
            1000.0 * onTimeServed / report.durationMs;
        report.totalGoodputFps = 1000.0 *
                                 (onTimeServed + onTimeCoasted) /
                                 report.durationMs;
    }
    if (report.framesArrived > 0)
        report.shedRate = static_cast<double>(report.framesShed) /
                          report.framesArrived;

    for (int k = 0; k < params_.shards; ++k) {
        Shard& shard = *shards_[static_cast<std::size_t>(k)];
        shard.slo.refresh();
        ShardSummary row;
        row.shard = k;
        row.streamsFinal =
            static_cast<int>(shard.server->registry().active());
        row.arrivalsInjected = shard.injected;
        row.completions = shard.completions;
        row.sheds = shard.sheds;
        row.admittedLatency =
            shard.server->admittedRecorder().summary();
        if (report.durationMs > 0)
            row.goodputFps = 1000.0 * shard.server->onTimeServed() /
                             report.durationMs;
        row.burnRate = shard.slo.snapshot().burnRate;
        row.migrationsIn = shard.migrationsIn;
        row.migrationsOut = shard.migrationsOut;
        report.shardRows.push_back(row);
    }

    report.streamSlo.resize(
        static_cast<std::size_t>(report.streamsRequested));
    for (int g = 0; g < report.streamsRequested; ++g) {
        if (!registry_.placed(g))
            continue;
        const serve::StreamState* s =
            shards_[static_cast<std::size_t>(registry_.shardOf(g))]
                ->server->registry()
                .find(registry_.slotOf(g));
        if (s) // buildReport() already refreshed every stream SLO.
            report.streamSlo[static_cast<std::size_t>(g)] =
                s->slo.snapshot();
    }

    publishMetrics(report);
    return report;
}

void
ShardedServer::publishMetrics(const FleetReport& report)
{
    if (!obs::metricsEnabled())
        return;
    obs::MetricRegistry local;
    for (const auto& row : report.shardRows) {
        const std::string id = std::to_string(row.shard);
        local.gauge(obs::labeled("fleet.shard.burn_rate", "shard", id))
            .set(row.burnRate);
        local.gauge(obs::labeled("fleet.shard.p9999_ms", "shard", id))
            .set(row.admittedLatency.p9999);
        local
            .gauge(
                obs::labeled("fleet.shard.goodput_fps", "shard", id))
            .set(row.goodputFps);
        local
            .counter(obs::labeled("fleet.shard.arrivals", "shard", id))
            .add(static_cast<std::uint64_t>(row.arrivalsInjected));
        local.counter(obs::labeled("fleet.shard.sheds", "shard", id))
            .add(static_cast<std::uint64_t>(row.sheds));
        local
            .counter(obs::labeled("fleet.shard.migrations_in",
                                  "shard", id))
            .add(static_cast<std::uint64_t>(row.migrationsIn));
        local
            .counter(obs::labeled("fleet.shard.migrations_out",
                                  "shard", id))
            .add(static_cast<std::uint64_t>(row.migrationsOut));
    }
    local.counter("fleet.migrations")
        .add(static_cast<std::uint64_t>(report.migrations));
    local.counter("fleet.escalations")
        .add(static_cast<std::uint64_t>(report.fleetEscalations));
    local.counter("fleet.streams_rejected")
        .add(static_cast<std::uint64_t>(report.streamsRequested -
                                        report.streamsAdmitted));
    local.gauge("fleet.goodput_fps").set(report.goodputFps);
    local.gauge("fleet.p9999_ms").set(report.admittedLatency.p9999);
    obs::metrics().merge(local);
}

} // namespace ad::fleet
