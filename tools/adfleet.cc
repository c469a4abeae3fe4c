/**
 * @file
 * adfleet -- fleet-scale sharded serving runner. Plays a
 * scenario-replay arrival tape (bursts, diurnal ramps, stragglers,
 * hot blocks; see fleet/loadgen.hh) through `serve.shards`
 * MultiStreamServer engine replicas co-simulated in lockstep
 * rebalancing epochs, with slack-aware stream migration and
 * fleet-wide degradation arbitration (fleet/fleet.hh), and reports
 * fleet plus per-shard serving outcomes.
 *
 * Usage:
 *   adfleet [--serve.shards=2] [--fleet.loadgen.streams=64]
 *           [--fleet.loadgen.horizon-ms=10000]
 *           [--fleet.loadgen.burst-p=0.05] [...]
 *           [--fleet.rebalance.period-ms=1000]
 *           [--fleet.admit.max-streams-per-shard=0]
 *           [--fleet.parallel=0]
 *           [--deadline-ms=100] [--queue-depth=1] [--batch-max=8]
 *           [--window-ms=6] [--admission=1] [--seed=29]
 *           [--engine.fixed-ms=8] [--engine.marginal-ms=9]
 *           [--fleet-json=out.json] [--summary] [--metrics]
 *
 * --fleet-json writes the fleet report as JSON
 * (FleetReport::toJson: fleet aggregates, per-shard rows with each
 * shard's serve report nested, the migration log). Every run checks
 * the report's invariants (FleetReport::violations: fleet and
 * per-shard frame conservation, migration-log sanity, ...) and exits
 * 1, printing each violation, when one is broken.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/logging.hh"
#include "fleet/fleet.hh"
#include "obs/json.hh"
#include "obs/obs.hh"

int
main(int argc, char** argv)
{
    using namespace ad;
    const Config cfg = Config::fromArgs(argc, argv);
    const obs::ObsOptions obsOpt = obs::setupFromConfig(cfg);

    const fleet::LoadGenParams lp = fleet::LoadGenParams::fromConfig(cfg);
    fleet::FleetParams fp = fleet::FleetParams::fromConfig(cfg);
    fp.serve = serve::ServeParams::fromConfig(cfg);
    // The serve template's camera period is the loadgen's: frame
    // deadlines and admission math must agree with the tape.
    fp.serve.stream.framePeriodMs = lp.periodMs;
    fp.engine = serve::ModeledEngineParams::fromConfig(cfg);
    fp.engine.seed = fp.serve.seed * 2654435761u + 1;
    const bool summary = cfg.getBool("summary", false);
    const std::string jsonPath = cfg.getString("fleet-json");
    cfg.warnUnreadKeys();

    const fleet::ScenarioLoadGen load(lp);
    fleet::ShardedServer server(fp, load);
    const fleet::FleetReport report = server.run();

    if (summary || obsOpt.any())
        std::fprintf(stderr, "%s", report.toString().c_str());

    if (!jsonPath.empty()) {
        std::ofstream out(jsonPath);
        if (!(out << obs::json::dump(report.toJson())))
            fatal("cannot write '", jsonPath, "'");
        std::fprintf(stderr, "fleet report: %s\n", jsonPath.c_str());
    }

    obs::finish(obsOpt, report.durationMs);
    const std::vector<std::string> violations = report.violations();
    for (const std::string& v : violations)
        std::fprintf(stderr, "adfleet: report violation: %s\n",
                     v.c_str());
    return violations.empty() ? 0 : 1;
}
