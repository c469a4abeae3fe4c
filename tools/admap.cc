/**
 * @file
 * admap -- prior-map utility. Builds maps by survey-driving a
 * synthetic scenario, inspects their storage characteristics (the
 * Section 2.4.3 constraint), shards them into on-disk tile stores and
 * answers radius queries.
 *
 * Usage:
 *   admap --cmd=build --scenario=highway --out=road.adm [--seed=1]
 *         [--lane=1] [--length=600]
 *   admap --cmd=info --map=road.adm
 *   admap --cmd=tile --map=road.adm --dir=tiles [--tile-size=50]
 *   admap --cmd=query --map=road.adm --x=100 --y=5 --radius=30
 */

#include <cstdio>
#include <fstream>

#include "common/config.hh"
#include "common/logging.hh"
#include "sensors/scenario.hh"
#include "slam/mapping.hh"
#include "slam/tiled_store.hh"
#include "vehicle/storage.hh"

namespace {

using namespace ad;

slam::PriorMap
loadMap(const std::string& path)
{
    if (path.empty())
        fatal("--map=<file> is required");
    std::ifstream is(path, std::ios::binary);
    if (!is)
        fatal("cannot open map file '", path, "'");
    return slam::PriorMap::load(is);
}

int
cmdBuild(const Config& cfg)
{
    const std::string out = cfg.getString("out");
    if (out.empty())
        fatal("--out=<file> is required");
    Rng rng(cfg.getInt("seed", 1));
    sensors::ScenarioParams sp;
    sp.roadLength = cfg.getDouble("length", 600.0);
    const std::string name = cfg.getString("scenario", "highway");
    const int lane = cfg.getInt("lane", 1);
    cfg.warnUnreadKeys();
    const sensors::Scenario scenario =
        name == "urban" ? sensors::makeUrbanScenario(rng, sp)
                        : sensors::makeHighwayScenario(rng, sp);
    sensors::Camera camera(sensors::Resolution::HHD);

    std::printf("surveying %s scenario (%.0f m road)...\n",
                name.c_str(), sp.roadLength);
    const slam::PriorMap map =
        slam::buildPriorMap(scenario.world, camera, lane);

    std::ofstream os(out, std::ios::binary);
    if (!os)
        fatal("cannot write '", out, "'");
    map.save(os);
    std::printf("wrote %zu map points (%.1f KB) to %s\n", map.size(),
                map.storageBytes() / 1e3, out.c_str());
    return 0;
}

int
cmdInfo(const Config& cfg)
{
    const std::string path = cfg.getString("map");
    cfg.warnUnreadKeys();
    const slam::PriorMap map = loadMap(path);
    int elevated = 0;
    double minX = 1e18;
    double maxX = -1e18;
    for (const auto& p : map.points()) {
        elevated += p.height > 0.3f;
        minX = std::min(minX, p.pos.x);
        maxX = std::max(maxX, p.pos.x);
    }
    const double extentKm = (maxX - minX) / 1e3;
    const double bytesPerKm =
        extentKm > 0 ? map.storageBytes() / extentKm : 0;

    std::printf("map points        %zu\n", map.size());
    std::printf("serialized size   %.1f KB\n",
                map.storageBytes() / 1e3);
    std::printf("x extent          %.2f km\n", extentKm);
    std::printf("density           %.1f points/m, %.1f KB/km\n",
                map.pointsPerMeter(), bytesPerKm / 1e3);
    std::printf("elevated points   %.1f%% (landmark boards)\n",
                100.0 * elevated / std::max<std::size_t>(1, map.size()));

    vehicle::MapStorageModel storage;
    std::printf("US extrapolation  %.2f TB at this density (paper's "
                "dense prior maps: 41 TB,\n                  %.0fx "
                "denser than sparse ORB)\n",
                storage.usMapTb(bytesPerKm),
                storage.densityRatioVsPaper(std::max(1.0, bytesPerKm)));
    return 0;
}

int
cmdTile(const Config& cfg)
{
    const std::string path = cfg.getString("map");
    const std::string dir = cfg.getString("dir");
    if (dir.empty())
        fatal("--dir=<directory> is required");
    slam::TiledStoreParams params;
    params.tileSize = cfg.getDouble("tile-size", 50.0);
    cfg.warnUnreadKeys();
    const slam::PriorMap map = loadMap(path);
    slam::TiledMapStore store(dir, params);
    store.build(map);
    std::printf("sharded %zu points into %llu tiles (%.1f KB on disk) "
                "under %s\n", map.size(),
                static_cast<unsigned long long>(
                    store.stats().tilesOnDisk),
                store.stats().bytesOnDisk / 1e3, dir.c_str());
    return 0;
}

int
cmdQuery(const Config& cfg)
{
    const std::string path = cfg.getString("map");
    const double x = cfg.getDouble("x", 0);
    const double y = cfg.getDouble("y", 0);
    const double radius = cfg.getDouble("radius", 30.0);
    cfg.warnUnreadKeys();
    const slam::PriorMap map = loadMap(path);
    const auto hits = map.queryRadius({x, y}, radius);
    std::printf("%zu map points within %.1f m of (%.1f, %.1f)\n",
                hits.size(), radius, x, y);
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace ad;
    const Config cfg = Config::fromArgs(argc, argv);
    const std::string cmd = cfg.getString("cmd");
    if (cmd == "build")
        return cmdBuild(cfg);
    if (cmd == "info")
        return cmdInfo(cfg);
    if (cmd == "tile")
        return cmdTile(cfg);
    if (cmd == "query")
        return cmdQuery(cfg);
    fatal("unknown --cmd '", cmd,
          "' (expected build, info, tile or query)");
}
