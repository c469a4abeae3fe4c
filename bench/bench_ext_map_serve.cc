/**
 * @file
 * Extension bench: multi-vehicle tiled map service. The paper's
 * Section 2.4.3 prices a US-scale prior map at ~41 TB -- no vehicle
 * carries it, so localization pages tiles from a shared map service
 * and every cold tile is a LOC stall on the critical path. This
 * sweep measures what the map tier buys: vehicle counts {32 .. 512}
 * with pose-driven prefetch on and off over one scenario-replay
 * tape per fleet size, plus a drift/update convergence pair and a
 * triple-run determinism check.
 *
 * Claims under test (ISSUE 10 acceptance, enforced here and in
 * tools/check_bench_json.py):
 *
 *  - stalls: every prefetch-on row has *zero* steady-state cold-tile
 *    stalls at the default prefetch horizon, while the prefetch-off
 *    baseline at >= 256 vehicles stalls steadily (the bar proves the
 *    prefetcher, not a trivially stall-free configuration);
 *  - latency: demand-fetch p99 -- the fetches a stalled vehicle
 *    blocks on -- stays inside the budget at >= 256 vehicles;
 *  - convergence: with appearance drift, crowd-sourced delta updates
 *    end the run with strictly less map error than a frozen map,
 *    and the compressed tile transport beats the raw encoding;
 *  - determinism: three runs of the same seeded scenario produce
 *    bitwise-identical version-stamp logs and run reports (JSON);
 *  - every report the sweep produces passes
 *    MapServeReport::violations.
 *
 * Emits BENCH_map.json (override with --map-json=PATH). Fully
 * virtual-clocked: wall time never enters any figure.
 *
 * Usage:
 *   bench_ext_map_serve [--horizon-ms=10000] [--budget-ms=1000]
 *                       [--seed=31] [--map-json=PATH]
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/config.hh"
#include "fleet/loadgen.hh"
#include "mapserve/sim.hh"
#include "obs/json.hh"

namespace {

using namespace ad;

fleet::LoadGenParams
tape(int streams, double horizonMs, std::uint64_t seed)
{
    fleet::LoadGenParams lp;
    lp.streams = streams;
    lp.horizonMs = horizonMs;
    lp.seed = seed;
    return lp;
}

mapserve::MapServeSimParams
simParams(bool prefetch)
{
    mapserve::MapServeSimParams sp;
    // A fleet-sized server DRAM tier: the working set of a few
    // hundred vehicles' routes; the 41 TB store sits behind missMs.
    sp.server.cacheTiles = 256;
    sp.driftPerMin = 2.0; // keep the update loop hot in every row.
    sp.client.prefetch = prefetch;
    return sp;
}

struct SweepRow
{
    int vehicles = 0;
    bool prefetch = false;
    mapserve::MapServeReport report;
};

void
writeJson(const char* path, const std::vector<SweepRow>& rows,
          double horizonMs, double budgetMs, std::uint64_t seed,
          double errOn, double errOff, double peakErr,
          std::int64_t pushed, std::int64_t merged,
          double compression, bool convergencePass, int stallRows,
          bool stallPass, std::int64_t baselineSteady,
          int latencyRows, bool latencyPass, bool logIdentical,
          bool summaryIdentical, std::int64_t mergeEpochs)
{
    std::FILE* f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"map_serve\",\n"
                 "  \"horizon_ms\": %.1f,\n"
                 "  \"budget_ms\": %.1f,\n"
                 "  \"seed\": %llu,\n  \"rows\": [",
                 horizonMs, budgetMs,
                 static_cast<unsigned long long>(seed));
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const SweepRow& r = rows[i];
        const auto& rep = r.report;
        std::fprintf(
            f,
            "%s\n    {\"vehicles\": %d, \"prefetch\": %s, "
            "\"frames\": %lld, \"warm\": %lld, \"stalled\": %lld, "
            "\"steady_stalls\": %lld, \"cold_starts\": %lld, "
            "\"prefetch_issued\": %lld, \"prefetch_late\": %lld, "
            "\"stale_reads\": %lld, \"hit_rate\": %.6f, "
            "\"fetch_p99_ms\": %.3f, \"demand_p99_ms\": %.3f, "
            "\"stall_p99_ms\": %.3f, \"cache_hits\": %lld, "
            "\"cache_misses\": %lld, \"compression_ratio\": %.4f}",
            i ? "," : "", r.vehicles, r.prefetch ? "true" : "false",
            static_cast<long long>(rep.frames),
            static_cast<long long>(rep.framesWarm),
            static_cast<long long>(rep.framesStalled),
            static_cast<long long>(rep.steadyStalls),
            static_cast<long long>(rep.coldStarts),
            static_cast<long long>(rep.prefetchIssued),
            static_cast<long long>(rep.prefetchLate),
            static_cast<long long>(rep.staleReads),
            rep.prefetchHitRate, rep.fetchLatency.p99,
            rep.demandLatency.p99, rep.stallMs.p99,
            static_cast<long long>(rep.server.cacheHits),
            static_cast<long long>(rep.server.cacheMisses),
            rep.compressionRatio);
    }
    std::fprintf(
        f,
        "\n  ],\n"
        "  \"convergence\": {\"drift_per_min\": 2.0, "
        "\"final_err_updates_on\": %.4f, "
        "\"final_err_updates_off\": %.4f, "
        "\"peak_err_bits\": %.4f, \"updates_pushed\": %lld, "
        "\"updates_merged\": %lld, \"compression_ratio\": %.4f, "
        "\"pass\": %s},\n"
        "  \"determinism\": {\"runs\": 3, "
        "\"version_log_identical\": %s, "
        "\"summary_identical\": %s, \"merge_epochs\": %lld},\n"
        "  \"acceptance\": {\"stall_rows_checked\": %d, "
        "\"stall_pass\": %s, \"baseline_steady_stalls\": %lld, "
        "\"latency_rows_checked\": %d, \"latency_pass\": %s, "
        "\"convergence_pass\": %s, \"determinism_pass\": %s}\n}\n",
        errOn, errOff, peakErr, static_cast<long long>(pushed),
        static_cast<long long>(merged), compression,
        convergencePass ? "true" : "false",
        logIdentical ? "true" : "false",
        summaryIdentical ? "true" : "false",
        static_cast<long long>(mergeEpochs), stallRows,
        stallPass ? "true" : "false",
        static_cast<long long>(baselineSteady), latencyRows,
        latencyPass ? "true" : "false",
        convergencePass ? "true" : "false",
        (logIdentical && summaryIdentical) ? "true" : "false");
    std::fclose(f);
    char resolved[4096];
    if (path[0] != '/' && ::realpath(path, resolved))
        std::printf("wrote map-serve sweep to %s\n", resolved);
    else
        std::printf("wrote map-serve sweep to %s\n", path);
}

} // namespace

int
main(int argc, char** argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    const double horizonMs = cfg.getDouble("horizon-ms", 10000.0);
    const double budgetMs = cfg.getDouble("budget-ms", 1000.0);
    const std::uint64_t seed =
        static_cast<std::uint64_t>(cfg.getInt("seed", 31));
    const std::string jsonPath =
        cfg.getString("map-json", "BENCH_map.json");
    cfg.warnUnreadKeys();

    bench::printHeader(
        "Map-service scaling sweep (extension)",
        "tiled prior-map serving with pose-driven prefetch, "
        "compressed transport and crowd-sourced delta updates");
    std::printf("horizon %.0f ms, demand p99 budget %.0f ms, "
                "seed %llu\n\n",
                horizonMs, budgetMs,
                static_cast<unsigned long long>(seed));
    std::printf("%9s %9s %8s %8s %7s %7s %12s %12s\n", "vehicles",
                "prefetch", "warm %", "steady", "cold", "late",
                "fetch p99", "demand p99");

    const int vehicleCounts[] = {32, 64, 256, 512};
    std::vector<SweepRow> rows;
    std::size_t violations = 0;
    bool stallPass = true;
    int stallRows = 0;
    std::int64_t baselineSteady = 0;
    bool latencyPass = true;
    int latencyRows = 0;
    for (const int vehicles : vehicleCounts) {
        const fleet::ScenarioLoadGen load(
            tape(vehicles, horizonMs, seed));
        for (const bool prefetch : {true, false}) {
            mapserve::MapServeSim sim(simParams(prefetch), load);
            SweepRow row;
            row.vehicles = vehicles;
            row.prefetch = prefetch;
            row.report = sim.run();
            const auto& r = row.report;
            violations += bench::printViolations(r.violations());
            std::printf(
                "%9d %9s %7.2f%% %8lld %7lld %7lld %10.1fms "
                "%10.1fms%s\n",
                vehicles, prefetch ? "on" : "off",
                100.0 * r.prefetchHitRate,
                static_cast<long long>(r.steadyStalls),
                static_cast<long long>(r.coldStarts),
                static_cast<long long>(r.prefetchLate),
                r.fetchLatency.p99, r.demandLatency.p99,
                prefetch && r.steadyStalls == 0
                    ? "  [stall-free]"
                    : "");
            if (prefetch) {
                ++stallRows;
                if (r.steadyStalls != 0)
                    stallPass = false;
                if (vehicles >= 256) {
                    ++latencyRows;
                    if (r.demandLatency.p99 > budgetMs)
                        latencyPass = false;
                }
            } else if (vehicles >= 256) {
                baselineSteady += r.steadyStalls;
            }
            rows.push_back(std::move(row));
        }
    }
    // The zero bar proves nothing if the workload never stalls a
    // prefetch-less vehicle: the baseline must stall steadily.
    if (baselineSteady == 0)
        stallPass = false;
    std::printf("\nstall bar: %d prefetch-on rows steady-stall-free, "
                "no-prefetch baseline %lld steady stalls -> %s\n",
                stallRows, static_cast<long long>(baselineSteady),
                stallPass ? "PASS" : "FAIL");
    std::printf("latency bar: demand p99 <= %.0f ms on %d rows at "
                ">= 256 vehicles -> %s\n",
                budgetMs, latencyRows, latencyPass ? "PASS" : "FAIL");

    // Convergence: the same drifting world with the update loop on
    // and off. Updates must end with strictly less map error, over
    // a compressed transport that actually compresses.
    double errOn = 0.0, errOff = 0.0, peakErr = 0.0;
    double compression = 0.0;
    std::int64_t pushed = 0, merged = 0;
    {
        const fleet::ScenarioLoadGen load(tape(24, horizonMs, seed));
        const mapserve::MapServeReport on =
            mapserve::MapServeSim(simParams(true), load).run();
        mapserve::MapServeSimParams frozen = simParams(true);
        frozen.updates = false;
        const mapserve::MapServeReport off =
            mapserve::MapServeSim(frozen, load).run();
        violations += bench::printViolations(on.violations());
        violations += bench::printViolations(off.violations());
        errOn = on.finalErrBits;
        errOff = off.finalErrBits;
        peakErr = on.peakErrBits;
        pushed = on.updatesPushed;
        merged = on.server.updatesMerged;
        compression = on.compressionRatio;
    }
    const bool convergencePass =
        errOn < errOff && pushed > 0 && merged > 0 &&
        compression > 1.0;
    std::printf("convergence: final err %.2f bits with updates vs "
                "%.2f frozen (%lld pushed, %lld merged), %.2fx "
                "compression -> %s\n",
                errOn, errOff, static_cast<long long>(pushed),
                static_cast<long long>(merged), compression,
                convergencePass ? "PASS" : "FAIL");

    // Determinism: three runs over the same seeded tape must agree
    // bit for bit on the version-stamp log and the run report, and
    // the compared log must be non-empty (drift keeps merges hot).
    std::vector<std::string> logs, summaries;
    std::int64_t mergeEpochs = 0;
    {
        const fleet::ScenarioLoadGen load(tape(16, horizonMs, seed));
        for (int run = 0; run < 3; ++run) {
            const mapserve::MapServeReport r =
                mapserve::MapServeSim(simParams(true), load).run();
            violations += bench::printViolations(r.violations());
            logs.push_back(r.versionLog);
            summaries.push_back(obs::json::dump(r.toJson()));
            mergeEpochs = r.server.mergeEpochs;
        }
    }
    const bool logIdentical = logs[0] == logs[1] &&
                              logs[1] == logs[2] &&
                              !logs[0].empty();
    const bool summaryIdentical =
        summaries[0] == summaries[1] && summaries[1] == summaries[2];
    std::printf("determinism over 3 runs: version log %s, "
                "summary %s\n",
                logIdentical ? "identical" : "DIVERGED",
                summaryIdentical ? "identical" : "DIVERGED");

    std::printf("report invariants: %zu violations\n", violations);

    const bool pass = stallPass && latencyPass && convergencePass &&
                      logIdentical && summaryIdentical &&
                      violations == 0;
    std::printf(
        "\nverdict: %s\n",
        pass ? "PASS: prefetch eliminates steady-state cold-tile "
               "stalls, demand p99 holds the budget at fleet scale, "
               "updates converge the drifting map, and the service "
               "is bit-reproducible"
             : "FAIL: a map-service acceptance bar was missed");

    writeJson(jsonPath.c_str(), rows, horizonMs, budgetMs, seed,
              errOn, errOff, peakErr, pushed, merged, compression,
              convergencePass, stallRows, stallPass, baselineSteady,
              latencyRows, latencyPass, logIdentical,
              summaryIdentical, mergeEpochs);
    return pass ? 0 : 1;
}
