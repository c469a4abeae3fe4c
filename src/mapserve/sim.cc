#include "mapserve/sim.hh"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <limits>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/parallel_for.hh"
#include "obs/flight.hh"

namespace ad::mapserve {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** SplitMix64 finalizer (vehicle placement hashing). */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

double
uniformOf(std::uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

void
appendLine(std::string& out, const char* fmt, ...)
#if defined(__GNUC__)
    __attribute__((format(printf, 2, 3)))
#endif
    ;

void
appendLine(std::string& out, const char* fmt, ...)
{
    char line[256];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(line, sizeof(line), fmt, args);
    va_end(args);
    out += line;
}

/** FNV-1a over the version-stamp log (determinism fingerprint). */
std::uint64_t
logFnv(const std::string& s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace

MapServeSimParams
MapServeSimParams::fromConfig(const Config& cfg)
{
    MapServeSimParams p;
    p.world.worldTiles =
        cfg.getInt("mapserve.world-tiles", p.world.worldTiles);
    p.world.tileSizeM =
        cfg.getDouble("mapserve.tile-size-m", p.world.tileSizeM);
    p.world.pointsPerTile = cfg.getInt("mapserve.points-per-tile",
                                       p.world.pointsPerTile);
    p.world.driftBits =
        cfg.getInt("mapserve.drift-bits", p.world.driftBits);
    p.world.seed = static_cast<std::uint64_t>(cfg.getInt(
        "mapserve.world-seed", static_cast<int>(p.world.seed)));
    p.server = TileServerParams::fromConfig(cfg);
    p.client = MapClientParams::fromConfig(cfg);
    p.driftPerMin =
        cfg.getDouble("mapserve.drift-per-min", p.driftPerMin);
    p.updateThresholdBits = cfg.getDouble(
        "mapserve.update-threshold-bits", p.updateThresholdBits);
    p.updates = cfg.getBool("mapserve.updates", p.updates);
    p.warmupMs = cfg.getDouble("mapserve.warmup-ms", p.warmupMs);
    p.decodeThreads =
        cfg.getInt("mapserve.decode-threads", p.decodeThreads);
    p.seed = static_cast<std::uint64_t>(
        cfg.getInt("mapserve.seed", static_cast<int>(p.seed)));
    return p;
}

std::string
MapServeReport::toString() const
{
    std::string out;
    appendLine(out,
               "map-serve: %d vehicles, %lld frames over %.0f ms\n",
               vehicles, static_cast<long long>(frames), durationMs);
    appendLine(out,
               "  frames: %lld warm (%.2f%%), %lld stalled "
               "(%lld cold starts, %lld steady), %lld coasted\n",
               static_cast<long long>(framesWarm),
               100.0 * prefetchHitRate,
               static_cast<long long>(framesStalled),
               static_cast<long long>(coldStarts),
               static_cast<long long>(steadyStalls),
               static_cast<long long>(framesCoasted));
    appendLine(out,
               "  prefetch: %lld issued, %lld shed, %lld late; "
               "stale: %lld reads, %lld refreshes\n",
               static_cast<long long>(prefetchIssued),
               static_cast<long long>(prefetchShed),
               static_cast<long long>(prefetchLate),
               static_cast<long long>(staleReads),
               static_cast<long long>(staleRefreshes));
    appendLine(out,
               "  server: %lld served / %lld batches, cache "
               "%lld/%lld hits, %.2fx compression\n",
               static_cast<long long>(server.served),
               static_cast<long long>(server.batches),
               static_cast<long long>(server.cacheHits),
               static_cast<long long>(server.cacheHits +
                                      server.cacheMisses),
               compressionRatio);
    appendLine(out,
               "  updates: %lld pushed, %lld merged over %lld "
               "epochs (%lld tile versions)\n",
               static_cast<long long>(updatesPushed),
               static_cast<long long>(server.updatesMerged),
               static_cast<long long>(server.mergeEpochs),
               static_cast<long long>(server.tilesMerged));
    out += "  fetch   " + fetchLatency.toString();
    out += "\n  demand  " + demandLatency.toString();
    out += "\n  stall   " + stallMs.toString();
    appendLine(out, "\n  appearance err: peak %.2f bits, final %.2f "
                    "bits over %zu epochs\n",
               peakErrBits, finalErrBits, epochErrBits.size());
    return out;
}

obs::json::Value
MapServeReport::toJson() const
{
    obs::json::Object o{
        {"vehicles", vehicles}, {"frames", frames}, {"warm", framesWarm},
        {"stalled", framesStalled}, {"coasted", framesCoasted},
        {"steady_stalls", steadyStalls}, {"cold_starts", coldStarts},
        {"prefetch_issued", prefetchIssued},
        {"prefetch_shed", prefetchShed}, {"prefetch_late", prefetchLate},
        {"stale_reads", staleReads}, {"stale_refreshes", staleRefreshes},
        {"updates_pushed", updatesPushed},
        {"updates_merged", server.updatesMerged},
        {"merge_epochs", server.mergeEpochs},
        {"tiles_merged", server.tilesMerged},
        {"submitted", server.submitted}, {"served", server.served},
        {"admission_shed", server.admissionShed},
        {"queue_evictions", server.queueEvictions},
        {"batches", server.batches}, {"cache_hits", server.cacheHits},
        {"cache_misses", server.cacheMisses},
        {"bytes_served", server.bytesServed},
        {"raw_bytes", server.rawBytes},
        {"compression_ratio", compressionRatio},
        {"hit_rate", prefetchHitRate}, {"peak_err_bits", peakErrBits},
        {"final_err_bits", finalErrBits},
        {"epoch_err_bits",
         obs::json::Array(epochErrBits.begin(), epochErrBits.end())},
        {"duration_ms", durationMs}};
    for (const auto& [name, s] : {std::pair{"fetch_", fetchLatency},
                                  std::pair{"demand_", demandLatency},
                                  std::pair{"stall_", stallMs}}) {
        const std::string prefix = name;
        o[prefix + "count"] = s.count;
        o[prefix + "mean_ms"] = s.mean;
        o[prefix + "p50_ms"] = s.p50;
        o[prefix + "p99_ms"] = s.p99;
        o[prefix + "p9999_ms"] = s.p9999;
    }
    char fnv[17];
    std::snprintf(fnv, sizeof(fnv), "%016llx",
                  static_cast<unsigned long long>(logFnv(versionLog)));
    o["version_log_fnv"] = std::string(fnv);
    return o;
}

std::vector<std::string>
MapServeReport::violations() const
{
    std::vector<std::string> out;
    auto n = [](std::int64_t v) { return std::to_string(v); };
    if (vehicles < 1 || frames < 1)
        out.push_back("run shape: " + n(vehicles) + " vehicles, " +
                      n(frames) + " frames");
    if (framesWarm + framesStalled + framesCoasted != frames)
        out.push_back("frame conservation: warm + stalled + coasted = " +
                      n(framesWarm + framesStalled + framesCoasted) +
                      " != frames " + n(frames));
    if (steadyStalls + coldStarts != framesStalled)
        out.push_back("stall split: steady + cold = " +
                      n(steadyStalls + coldStarts) + " != stalled " +
                      n(framesStalled));
    const std::int64_t resolved =
        server.served + server.admissionShed + server.queueEvictions;
    if (resolved != server.submitted)
        out.push_back("request conservation: served + shed + evicted = " +
                      n(resolved) + " != submitted " + n(server.submitted));
    if (server.cacheHits + server.cacheMisses != server.served)
        out.push_back("cache accounting: hits + misses = " +
                      n(server.cacheHits + server.cacheMisses) +
                      " != served " + n(server.served));
    if (server.served > 0 &&
        (server.bytesServed <= 0 || server.bytesServed > server.rawBytes))
        out.push_back("compression accounting: " +
                      n(server.bytesServed) + " bytes served of " +
                      n(server.rawBytes) + " raw");
    if (server.updatesMerged > updatesPushed)
        out.push_back("update accounting: merged " +
                      n(server.updatesMerged) + " > pushed " +
                      n(updatesPushed));
    return out;
}

MapServeSim::MapServeSim(const MapServeSimParams& params,
                         const fleet::ScenarioLoadGen& load)
    : params_(params), load_(load), world_(params.world),
      server_(params.server, world_)
{
    const int vehicles = load_.params().streams;
    if (vehicles < 1)
        fatal("MapServeSim: need at least one vehicle");
    clients_.reserve(static_cast<std::size_t>(vehicles));
    x0_.resize(static_cast<std::size_t>(vehicles));
    y0_.resize(static_cast<std::size_t>(vehicles));
    speed_.resize(static_cast<std::size_t>(vehicles));
    stalledUntil_.assign(static_cast<std::size_t>(vehicles), 0.0);
    stallStartMs_.assign(static_cast<std::size_t>(vehicles), 0.0);
    hadWarmFrame_.assign(static_cast<std::size_t>(vehicles), false);
    reqSeq_.assign(static_cast<std::size_t>(vehicles), 0);
    updSeq_.assign(static_cast<std::size_t>(vehicles), 0);
    for (int v = 0; v < vehicles; ++v) {
        clients_.emplace_back(params_.client);
        // Lane placement: a hash of (seed, vehicle) -- independent
        // of the tape and of every other vehicle.
        const std::uint64_t h =
            mix64(params_.seed ^
                  (0x9e3779b97f4a7c15ull *
                   (static_cast<std::uint64_t>(v) + 1)));
        x0_[static_cast<std::size_t>(v)] =
            uniformOf(h) * world_.extentM();
        y0_[static_cast<std::size_t>(v)] =
            uniformOf(mix64(h)) * world_.extentM();
        speed_[static_cast<std::size_t>(v)] = load_.speedMps(v);
    }
    if (params_.decodeThreads > 0)
        decodePool_ = std::make_unique<ThreadPool>(
            static_cast<std::size_t>(params_.decodeThreads));
    pendingDispatchMs_ = kInf;
    report_.vehicles = vehicles;
}

double
MapServeSim::appearanceAt(double now) const
{
    return std::min(1.0, params_.driftPerMin * now / 60000.0);
}

MapServeReport
MapServeSim::run()
{
    const auto& tape = load_.schedule();
    for (const fleet::ArrivalEvent& a : tape)
        events_.push(
            Event{a.tMs, Event::Kind::Arrival, a.stream, a.seq});
    if (!tape.empty()) {
        const double lastMs = tape.back().tMs;
        std::int64_t k = 1;
        for (double t = params_.server.mergePeriodMs;
             t <= lastMs + params_.server.mergePeriodMs;
             t += params_.server.mergePeriodMs)
            events_.push(Event{t, Event::Kind::Merge, -1, k++});
    }

    while (!events_.empty()) {
        const Event ev = events_.top();
        events_.pop();
        lastEventMs_ = ev.timeMs;
        switch (ev.kind) {
        case Event::Kind::Merge:
            onMerge(ev.timeMs);
            break;
        case Event::Kind::BatchDone:
            onBatchDone(static_cast<std::size_t>(ev.seq), ev.timeMs);
            scheduleDispatch(ev.timeMs);
            break;
        case Event::Kind::Arrival:
            onArrival(ev.vehicle, ev.seq, ev.timeMs);
            scheduleDispatch(ev.timeMs);
            break;
        case Event::Kind::Dispatch: {
            pendingDispatchMs_ = kInf;
            auto batch = server_.dispatch(ev.timeMs);
            if (batch) {
                const auto index = inFlightBatches_.size();
                const double doneMs = batch->doneMs;
                inFlightBatches_.push_back(std::move(*batch));
                events_.push(
                    Event{doneMs, Event::Kind::BatchDone, -1,
                          static_cast<std::int64_t>(index)});
            }
            scheduleDispatch(ev.timeMs);
            break;
        }
        }
    }
    flushEpochError();

    report_.durationMs = lastEventMs_;
    report_.fetchLatency = fetchRec_.summary();
    report_.demandLatency = demandRec_.summary();
    report_.stallMs = stallRec_.summary();
    report_.server = server_.stats();
    for (const MapClient& c : clients_) {
        report_.clients.hits += c.stats().hits;
        report_.clients.evictions += c.stats().evictions;
        report_.clients.installs += c.stats().installs;
    }
    const std::int64_t looked =
        report_.framesWarm + report_.framesStalled;
    report_.prefetchHitRate =
        looked > 0 ? static_cast<double>(report_.framesWarm) /
                         static_cast<double>(looked)
                   : 0.0;
    report_.compressionRatio =
        report_.server.bytesServed > 0
            ? static_cast<double>(report_.server.rawBytes) /
                  static_cast<double>(report_.server.bytesServed)
            : 0.0;
    for (const double e : report_.epochErrBits)
        report_.peakErrBits = std::max(report_.peakErrBits, e);
    report_.finalErrBits = report_.epochErrBits.empty()
                               ? 0.0
                               : report_.epochErrBits.back();
    report_.versionLog = server_.versionLog();

    local_.counter("mapserve.frames")
        .add(static_cast<std::uint64_t>(report_.frames));
    local_.counter("mapserve.frames.stalled")
        .add(static_cast<std::uint64_t>(report_.framesStalled));
    local_.counter("mapserve.prefetch.issued")
        .add(static_cast<std::uint64_t>(report_.prefetchIssued));
    local_.counter("mapserve.prefetch.shed")
        .add(static_cast<std::uint64_t>(report_.prefetchShed));
    local_.counter("mapserve.updates.pushed")
        .add(static_cast<std::uint64_t>(report_.updatesPushed));
    local_.counter("mapserve.server.served")
        .add(static_cast<std::uint64_t>(report_.server.served));
    local_.counter("mapserve.server.cache-hits")
        .add(static_cast<std::uint64_t>(report_.server.cacheHits));
    local_.histogram("mapserve.fetch-ms").mergeFrom(fetchRec_);
    if (obs::MetricRegistry::instance().enabled())
        obs::MetricRegistry::instance().merge(local_);
    return report_;
}

void
MapServeSim::scheduleDispatch(double now)
{
    const double at = server_.nextDispatchMs(now);
    if (!(at < pendingDispatchMs_))
        return;
    pendingDispatchMs_ = at;
    events_.push(Event{at, Event::Kind::Dispatch, -1, 0});
}

void
MapServeSim::submitFetch(int v, TileId tile, bool prefetch,
                         double now, double deadlineMs)
{
    TileRequest request;
    request.vehicle = v;
    request.seq = reqSeq_[static_cast<std::size_t>(v)]++;
    request.tile = tile;
    request.prefetch = prefetch;
    request.arrivalMs = now;
    request.deadlineMs = deadlineMs;
    TileRequest evicted;
    bool hadEviction = false;
    const SubmitOutcome outcome =
        server_.submit(request, now, &evicted, &hadEviction);
    // A freshest-drop eviction silently removed an earlier request
    // of this vehicle: clear its in-flight mark so the tile can be
    // re-requested (the prefetch-miss fallback path).
    if (hadEviction)
        clients_[static_cast<std::size_t>(evicted.vehicle)]
            .clearInFlight(evicted.tile);
    if (outcome == SubmitOutcome::Queued) {
        clients_[static_cast<std::size_t>(v)].markInFlight(tile);
        if (prefetch)
            ++report_.prefetchIssued;
    } else if (prefetch) {
        ++report_.prefetchShed;
    }
}

void
MapServeSim::prefetchPath(int v, TileId current, double x,
                          double now)
{
    if (!params_.client.prefetch)
        return;
    const auto vi = static_cast<std::size_t>(v);
    MapClient& client = clients_[vi];
    // Warm every tile under the predicted path, not just the
    // endpoint: at high speed the horizon spans more than one
    // boundary and skipping the intermediate tile would stall
    // there. Half-tile steps cannot miss a crossing.
    const double aheadM =
        speed_[vi] * params_.client.horizonMs / 1000.0;
    const double step = params_.world.tileSizeM * 0.5;
    // Sample from the horizon endpoint downward so a horizon
    // shorter than one step still prefetches (the slowest vehicle
    // must not lose its lookahead to sampling granularity).
    for (double d = aheadM; d > 0.0; d -= step) {
        const TileId ahead = world_.tileFor(x + d, y0_[vi]);
        if (ahead == current || client.peek(ahead) != nullptr ||
            client.inFlight(ahead))
            continue;
        // Deadline: when the vehicle actually reaches the tile.
        const double needMs = now + d / speed_[vi] * 1000.0;
        submitFetch(v, ahead, /*prefetch=*/true, now, needMs);
    }
}

void
MapServeSim::pushRefresh(int v, TileId tile, float appearance,
                         double now)
{
    const int points = world_.params().pointsPerTile;
    for (int i = 0; i < points; ++i) {
        DeltaUpdate u;
        u.tile = tile;
        u.pointId = i;
        u.vehicle = v;
        u.seq = updSeq_[static_cast<std::size_t>(v)]++;
        u.tMs = now;
        u.appearance = appearance;
        u.desc = world_.observed(tile, i, appearance);
        server_.pushUpdate(u);
        ++report_.updatesPushed;
    }
    clients_[static_cast<std::size_t>(v)].notePushed(tile,
                                                    appearance);
}

void
MapServeSim::onArrival(int v, std::int64_t seq, double now)
{
    ++report_.frames;
    const auto vi = static_cast<std::size_t>(v);
    if (stalledUntil_[vi] > now) {
        ++report_.framesCoasted;
        return;
    }
    const double x =
        world_.wrap(x0_[vi] + speed_[vi] * now / 1000.0);
    const double y = y0_[vi];
    const float a = static_cast<float>(appearanceAt(now));
    const TileId tile = world_.tileFor(x, y);
    MapClient& client = clients_[vi];

    const Tile* entry = client.find(tile);
    if (entry != nullptr) {
        ++report_.framesWarm;
        hadWarmFrame_[vi] = true;
        // Staleness: the server merged a newer epoch of this tile.
        // The stale copy still localizes (bounded staleness) but a
        // background refresh brings the vehicle onto the new epoch.
        const std::uint64_t serverVersion = server_.tileVersion(tile);
        if (serverVersion > entry->version) {
            ++report_.staleReads;
            if (!client.inFlight(tile)) {
                submitFetch(v, tile, /*prefetch=*/true, now,
                            now + params_.client.horizonMs);
                ++report_.staleRefreshes;
            }
        }
        const double errBits = world_.meanHammingBits(*entry, a);
        epochErrSum_ += errBits;
        ++epochErrCount_;
        if (params_.updates &&
            errBits > params_.updateThresholdBits) {
            // One refresh burst per appearance step: re-push only
            // once live appearance has moved another threshold's
            // worth past the last report.
            const float last = client.lastPushed(tile);
            const double stepGap =
                params_.updateThresholdBits /
                static_cast<double>(world_.params().driftBits);
            if (last < 0.0f ||
                static_cast<double>(a - last) > stepGap)
                pushRefresh(v, tile, a, now);
        }
    } else {
        // Cold tile: localization blocks on a demand fetch and the
        // vehicle coasts until it lands.
        ++report_.framesStalled;
        // Steady-state only after the warmup window and the
        // vehicle's first warm frame: the first acquisition -- and
        // any crossing still congested by the fleet-wide cold
        // start -- is the cold-start transient.
        if (hadWarmFrame_[vi] && now >= params_.warmupMs)
            ++report_.steadyStalls;
        else
            ++report_.coldStarts;
        if (client.inFlight(tile))
            ++report_.prefetchLate;
        auto& flight = obs::FlightRecorder::instance();
        if (flight.enabled())
            flight.recordTileStall(v, seq, now, tile.x, tile.y);
        stallStartMs_[vi] = now;
        stalledUntil_[vi] = kInf;
        submitFetch(v, tile, /*prefetch=*/false, now, now);
        // The vehicle keeps moving while it coasts on the demand
        // fetch: warm the path ahead in the same breath so a
        // boundary crossed during the stall lands on a tile that
        // rode the same batch instead of stalling again.
        prefetchPath(v, tile, x, now);
        return;
    }

    if (params_.client.prefetch)
        prefetchPath(v, tile, x, now);
}

void
MapServeSim::onBatchDone(std::size_t index, double now)
{
    BatchResult& batch = inFlightBatches_[index];
    const std::size_t n = batch.served.size();
    std::vector<Tile> decoded(n);
    const auto decodeRange = [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
            decoded[i] = decodeTile(batch.served[i].request.tile,
                                    batch.served[i].version,
                                    batch.served[i].payload);
    };
    if (decodePool_ != nullptr && n > 1)
        parallelFor(decodePool_.get(), 0, n, 1, decodeRange);
    else
        decodeRange(0, n);

    for (std::size_t i = 0; i < n; ++i) {
        const ServedTile& served = batch.served[i];
        const int v = served.request.vehicle;
        const auto vi = static_cast<std::size_t>(v);
        const double latency = now - served.request.arrivalMs;
        fetchRec_.record(latency);
        if (!served.request.prefetch)
            demandRec_.record(latency);
        clients_[vi].install(std::move(decoded[i]));
        if (!served.request.prefetch && stalledUntil_[vi] > now) {
            stalledUntil_[vi] = now;
            stallRec_.record(now - stallStartMs_[vi]);
        }
    }
    batch = BatchResult{}; // free served payloads eagerly.
}

void
MapServeSim::onMerge(double now)
{
    flushEpochError();
    server_.merge(now);
}

void
MapServeSim::flushEpochError()
{
    if (epochErrCount_ > 0)
        report_.epochErrBits.push_back(
            epochErrSum_ / static_cast<double>(epochErrCount_));
    epochErrSum_ = 0.0;
    epochErrCount_ = 0;
}

} // namespace ad::mapserve
