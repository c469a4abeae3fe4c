/**
 * @file
 * Extension bench: fleet-scale shard sweep. One machine serves a few
 * dozen vehicles inside the paper's tail constraint (p99.99 <=
 * 100 ms, Section 2.4.2); a fleet operator signs up thousands. This
 * sweep measures what sharding the serving stack over engine
 * replicas buys: shards {1, 2, 4} x streams {64 .. 4096} over one
 * scenario-replay tape (bursts, diurnal ramp, stragglers, and a hot
 * block aimed at one shard -- the tape is generated per stream count
 * only, so every shard count serves the identical arrival sequence).
 *
 * Claims under test (ISSUE 9 acceptance, enforced here and in
 * tools/check_bench_json.py):
 *
 *  - tail: every multi-shard row at >= 512 streams holds the
 *    admitted fleet-wide p99.99 inside the budget -- admission sheds
 *    what the replicas cannot serve, it never serves frames late;
 *  - scaling: at 512 streams, 4-shard goodput is >= 0.8x linear
 *    (4x the 1-shard goodput) -- replicas are independent, so
 *    goodput scales with the engine count, less only the hot-block
 *    skew the rebalancer has to chase;
 *  - determinism: three runs of the same seeded scenario produce
 *    bitwise-identical migration logs and fleet reports (JSON);
 *  - every report the sweep produces passes FleetReport::violations.
 *
 * Emits BENCH_fleet.json (override with --fleet-json=PATH): one row
 * per (shards, streams) with fleet-wide and per-shard p99.99 /
 * goodput / migration counts, plus the scaling and determinism
 * sections. Fully virtual-clocked.
 *
 * Usage:
 *   bench_ext_fleet_scale [--horizon-ms=8000] [--budget-ms=100]
 *                         [--seed=29] [--fleet-json=PATH]
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/config.hh"
#include "fleet/fleet.hh"
#include "obs/json.hh"

namespace {

using namespace ad;

fleet::LoadGenParams
scenario(int streams, double horizonMs, std::uint64_t seed)
{
    fleet::LoadGenParams lp;
    lp.streams = streams;
    lp.horizonMs = horizonMs;
    lp.seed = seed;
    lp.burstP = 0.03;
    lp.rampAmplitude = 0.2;
    lp.rampPeriodMs = horizonMs;
    lp.stragglerFraction = 0.05;
    // The hot block runs modulo 4 regardless of the shard count
    // under test, so the tape is identical across shard counts; at
    // 4 shards the whole block lands on shard 1 (round-robin), the
    // hot-shard case the rebalancer has to drain.
    lp.hotModulus = 4;
    lp.hotResidue = 1;
    lp.hotFactor = 4.0;
    lp.hotStartMs = 0.25 * horizonMs;
    lp.hotEndMs = 0.75 * horizonMs;
    return lp;
}

fleet::FleetParams
fleetParams(int shards, double budgetMs, std::uint64_t seed)
{
    fleet::FleetParams fp;
    fp.shards = shards;
    fp.serve.stream.deadlineMs = budgetMs;
    fp.serve.seed = seed;
    fp.serve.governor.enabled = true;
    fp.serve.governor.budgetMs = budgetMs;
    fp.engine.seed = seed * 2654435761u + 1;
    fp.rebalance.periodMs = 500.0;
    return fp;
}

struct SweepRow
{
    int shards = 0;
    int streams = 0;
    fleet::FleetReport report;
};

void
writeJson(const char* path, const std::vector<SweepRow>& rows,
          double horizonMs, double budgetMs, std::uint64_t seed,
          double goodput1, double goodput4, double scalingRatio,
          bool scalingPass, bool tailPass, int tailRows,
          bool logIdentical, bool summaryIdentical,
          std::int64_t determinismMigrations)
{
    std::FILE* f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"fleet_scale\",\n"
                 "  \"engine\": \"modeled\",\n"
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
            "%s\n    {\"shards\": %d, \"streams\": %d, "
            "\"streams_admitted\": %d, "
            "\"arrived\": %lld, \"admitted\": %lld, "
            "\"shed\": %lld, \"deadline_misses\": %lld, "
            "\"p50_ms\": %.3f, \"p99_ms\": %.3f, "
            "\"p9999_ms\": %.3f, \"worst_ms\": %.3f, "
            "\"goodput_fps\": %.3f, \"total_goodput_fps\": %.3f, "
            "\"shed_rate\": %.6f, \"epochs\": %lld, "
            "\"migrations\": %lld, \"fleet_escalations\": %lld, "
            "\"shard_rows\": [",
            i ? "," : "", r.shards, r.streams, rep.streamsAdmitted,
            static_cast<long long>(rep.framesArrived),
            static_cast<long long>(rep.framesAdmitted),
            static_cast<long long>(rep.framesShed),
            static_cast<long long>(rep.deadlineMisses),
            rep.admittedLatency.p50, rep.admittedLatency.p99,
            rep.admittedLatency.p9999, rep.admittedLatency.worst,
            rep.goodputFps, rep.totalGoodputFps, rep.shedRate,
            static_cast<long long>(rep.epochs),
            static_cast<long long>(rep.migrations),
            static_cast<long long>(rep.fleetEscalations));
        for (std::size_t k = 0; k < rep.shardRows.size(); ++k) {
            const auto& row = rep.shardRows[k];
            std::fprintf(
                f,
                "%s{\"shard\": %d, \"streams_final\": %d, "
                "\"p9999_ms\": %.3f, \"goodput_fps\": %.3f, "
                "\"burn_rate\": %.4f, \"migrations_in\": %lld, "
                "\"migrations_out\": %lld}",
                k ? ", " : "", row.shard, row.streamsFinal,
                row.admittedLatency.p9999, row.goodputFps,
                row.burnRate,
                static_cast<long long>(row.migrationsIn),
                static_cast<long long>(row.migrationsOut));
        }
        std::fprintf(f, "]}");
    }
    std::fprintf(
        f,
        "\n  ],\n"
        "  \"scaling\": {\"streams\": 512, "
        "\"goodput_1shard_fps\": %.3f, "
        "\"goodput_4shard_fps\": %.3f, "
        "\"ratio_vs_linear\": %.4f, \"bar\": 0.8, \"pass\": %s},\n"
        "  \"determinism\": {\"runs\": 3, "
        "\"migration_log_identical\": %s, "
        "\"summary_identical\": %s, \"migrations\": %lld},\n"
        "  \"acceptance\": {\"tail_rows_checked\": %d, "
        "\"tail_pass\": %s, \"scaling_pass\": %s, "
        "\"determinism_pass\": %s}\n}\n",
        goodput1, goodput4, scalingRatio,
        scalingPass ? "true" : "false",
        logIdentical ? "true" : "false",
        summaryIdentical ? "true" : "false",
        static_cast<long long>(determinismMigrations), tailRows,
        tailPass ? "true" : "false", scalingPass ? "true" : "false",
        (logIdentical && summaryIdentical) ? "true" : "false");
    std::fclose(f);
    char resolved[4096];
    if (path[0] != '/' && ::realpath(path, resolved))
        std::printf("wrote fleet sweep to %s\n", resolved);
    else
        std::printf("wrote fleet sweep to %s\n", path);
}

} // namespace

int
main(int argc, char** argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    const double horizonMs = cfg.getDouble("horizon-ms", 8000.0);
    const double budgetMs = cfg.getDouble("budget-ms", 100.0);
    const std::uint64_t seed =
        static_cast<std::uint64_t>(cfg.getInt("seed", 29));
    const std::string jsonPath =
        cfg.getString("fleet-json", "BENCH_fleet.json");
    cfg.warnUnreadKeys();

    bench::printHeader(
        "Fleet shard-scaling sweep (extension)",
        "sharded serving over engine replicas with slack-aware "
        "rebalancing, scenario-replay load, modeled engines");
    std::printf("horizon %.0f ms, budget %.0f ms, seed %llu\n\n",
                horizonMs, budgetMs,
                static_cast<unsigned long long>(seed));
    std::printf("%7s %8s %10s %10s %9s %7s %7s %7s\n", "shards",
                "streams", "p99.99 ms", "goodput", "shed %", "moves",
                "escal", "epochs");

    // 32 streams at 4 shards is ~8 per shard: near engine capacity,
    // the regime where the hot block makes one shard diverge and the
    // rebalancer actually moves streams. From 64 up every shard is
    // saturated and admission (not migration) carries the tail.
    const int shardCounts[] = {1, 2, 4};
    const int streamCounts[] = {32, 64, 256, 512, 1024, 4096};
    std::vector<SweepRow> rows;
    std::size_t violations = 0;
    double goodput1 = 0.0, goodput4 = 0.0;
    bool tailPass = true;
    int tailRows = 0;
    for (const int streams : streamCounts) {
        const fleet::ScenarioLoadGen load(
            scenario(streams, horizonMs, seed));
        for (const int shards : shardCounts) {
            fleet::ShardedServer server(
                fleetParams(shards, budgetMs, seed), load);
            SweepRow row;
            row.shards = shards;
            row.streams = streams;
            row.report = server.run();
            const auto& r = row.report;
            violations += bench::printViolations(r.violations());
            std::printf(
                "%7d %8d %10.3f %10.3f %9.2f %7lld %7lld %7lld%s\n",
                shards, streams, r.admittedLatency.p9999,
                r.goodputFps, 100.0 * r.shedRate,
                static_cast<long long>(r.migrations),
                static_cast<long long>(r.fleetEscalations),
                static_cast<long long>(r.epochs),
                r.admittedLatency.p9999 <= budgetMs
                    ? "  [meets tail]"
                    : "");
            if (shards >= 2 && streams >= 512) {
                ++tailRows;
                if (r.admittedLatency.p9999 > budgetMs)
                    tailPass = false;
            }
            if (streams == 512 && shards == 1)
                goodput1 = r.goodputFps;
            if (streams == 512 && shards == 4)
                goodput4 = r.goodputFps;
            rows.push_back(std::move(row));
        }
    }

    const double scalingRatio =
        goodput1 > 0.0 ? goodput4 / (4.0 * goodput1) : 0.0;
    const bool scalingPass = scalingRatio >= 0.8;
    std::printf("\nscaling at 512 streams: 1 shard %.3f fps, "
                "4 shards %.3f fps -> %.4fx linear %s\n",
                goodput1, goodput4, scalingRatio,
                scalingPass ? "[>= 0.8 bar]" : "[BELOW 0.8 bar]");

    // Determinism: the same seeded scenario three times over must
    // produce bitwise-identical migration logs and fleet reports.
    // Uses the near-capacity hot-shard config so the log being
    // compared is non-empty -- determinism over no migrations would
    // prove nothing.
    std::vector<std::string> logs, summaries;
    std::int64_t determinismMigrations = 0;
    {
        fleet::LoadGenParams lp = scenario(32, horizonMs, seed);
        lp.hotFactor = 6.0;
        const fleet::ScenarioLoadGen load(lp);
        for (int run = 0; run < 3; ++run) {
            fleet::ShardedServer server(
                fleetParams(4, budgetMs, seed), load);
            const fleet::FleetReport r = server.run();
            violations += bench::printViolations(r.violations());
            const obs::json::Value doc = r.toJson();
            logs.push_back(obs::json::dump(*doc.find("migration_log")));
            summaries.push_back(obs::json::dump(doc));
            determinismMigrations = r.migrations;
        }
    }
    const bool logIdentical = logs[0] == logs[1] &&
                              logs[1] == logs[2] &&
                              determinismMigrations > 0;
    const bool summaryIdentical =
        summaries[0] == summaries[1] && summaries[1] == summaries[2];
    std::printf("determinism over 3 runs: migration log %s (%lld "
                "moves), summary %s\n",
                logIdentical ? "identical" : "DIVERGED",
                static_cast<long long>(determinismMigrations),
                summaryIdentical ? "identical" : "DIVERGED");

    const bool tailOk = tailPass && tailRows > 0;
    std::printf("report invariants: %zu violations\n", violations);
    std::printf(
        "\nverdict: %s\n",
        (tailOk && scalingPass && logIdentical && summaryIdentical &&
         violations == 0)
            ? "PASS: multi-shard rows at >= 512 streams hold the "
              "admitted p99.99 budget, 1->4 shard goodput is >= "
              "0.8x linear, and the fleet is bit-reproducible"
            : "FAIL: a fleet acceptance bar was missed");

    writeJson(jsonPath.c_str(), rows, horizonMs, budgetMs, seed,
              goodput1, goodput4, scalingRatio, scalingPass, tailOk,
              tailRows, logIdentical, summaryIdentical,
              determinismMigrations);
    return (tailOk && scalingPass && logIdentical && summaryIdentical &&
            violations == 0)
               ? 0
               : 1;
}
