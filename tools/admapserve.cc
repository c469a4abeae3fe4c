/**
 * @file
 * admapserve -- multi-vehicle tiled map-service runner. Plays the
 * fleet loadgen's arrival tape through the map-service co-sim
 * (mapserve/sim.hh): every vehicle's localization frames page prior-
 * map tiles from the shared TileServer (bounded per-vehicle queues,
 * cross-vehicle batching, deadline-aware admission, server-side LRU
 * cache), with pose-driven prefetch, compressed tile transport and
 * crowd-sourced delta updates under illumination drift.
 *
 * Usage:
 *   admapserve [--fleet.loadgen.streams=64]
 *              [--fleet.loadgen.horizon-ms=10000]
 *              [--mapserve.client.prefetch=1]
 *              [--mapserve.client.horizon-ms=3000]
 *              [--mapserve.server.cache-tiles=64]
 *              [--mapserve.drift-per-min=0.2] [...]
 *              [--map-json=out.json] [--summary] [--metrics]
 *              [--trace <file>] [--metrics-json=live.json]
 *
 * --map-json writes the run report as JSON (MapServeReport::toJson).
 * Every run checks the report's invariants
 * (MapServeReport::violations: frames = warm + stalled + coasted;
 * every submitted request is served, shed or evicted; cache hits +
 * misses = served; merged updates never exceed pushed ones; ...) and
 * exits 1, printing each violation, when one is broken.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/logging.hh"
#include "mapserve/sim.hh"
#include "obs/json.hh"
#include "obs/obs.hh"

int
main(int argc, char** argv)
{
    using namespace ad;
    const Config cfg = Config::fromArgs(argc, argv);
    const obs::ObsOptions obsOpt = obs::setupFromConfig(cfg);

    const fleet::LoadGenParams lp =
        fleet::LoadGenParams::fromConfig(cfg);
    const mapserve::MapServeSimParams sp =
        mapserve::MapServeSimParams::fromConfig(cfg);
    const bool summary = cfg.getBool("summary", false);
    const std::string jsonPath = cfg.getString("map-json");
    cfg.warnUnreadKeys();

    const fleet::ScenarioLoadGen load(lp);
    mapserve::MapServeSim sim(sp, load);
    const mapserve::MapServeReport report = sim.run();

    if (summary || obsOpt.any())
        std::fprintf(stderr, "%s", report.toString().c_str());

    if (!jsonPath.empty()) {
        std::ofstream out(jsonPath);
        if (!(out << obs::json::dump(report.toJson())))
            fatal("cannot write '", jsonPath, "'");
        std::fprintf(stderr, "map report: %s\n", jsonPath.c_str());
    }

    obs::finish(obsOpt, report.durationMs);
    const std::vector<std::string> violations = report.violations();
    for (const std::string& v : violations)
        std::fprintf(stderr, "admapserve: report violation: %s\n",
                     v.c_str());
    return violations.empty() ? 0 : 1;
}
