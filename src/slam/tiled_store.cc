#include "slam/tiled_store.hh"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>

#include "common/logging.hh"

namespace ad::slam {

namespace fs = std::filesystem;

TiledMapStore::TiledMapStore(std::string directory,
                             const TiledStoreParams& params)
    : directory_(std::move(directory)), params_(params),
      cache_(params.cacheTiles)
{
    if (params.tileSize <= 0)
        fatal("TiledMapStore: tile size must be positive");
    if (params.cacheTiles == 0)
        fatal("TiledMapStore: cache must hold at least one tile");
}

TiledMapStore::TileKey
TiledMapStore::keyFor(const Vec2& pos) const
{
    return {static_cast<std::int32_t>(
                std::floor(pos.x / params_.tileSize)),
            static_cast<std::int32_t>(
                std::floor(pos.y / params_.tileSize))};
}

std::string
TiledMapStore::pathFor(const TileKey& key) const
{
    return directory_ + "/tile_" + std::to_string(key.x) + "_" +
           std::to_string(key.y) + ".adm";
}

void
TiledMapStore::build(const PriorMap& map)
{
    fs::create_directories(directory_);
    // Remove stale tiles from a previous build.
    for (const auto& entry : fs::directory_iterator(directory_))
        if (entry.path().extension() == ".adm")
            fs::remove(entry.path());
    index_.clear();
    cache_.clear();
    stats_ = TileStats{};

    // Shard points by tile.
    std::map<TileKey, PriorMap> shards;
    for (const auto& p : map.points()) {
        auto [it, inserted] = shards.try_emplace(keyFor(p.pos));
        it->second.insert(p.pos, p.height, p.desc);
    }

    for (const auto& [key, shard] : shards) {
        std::ofstream os(pathFor(key), std::ios::binary);
        if (!os)
            fatal("TiledMapStore: cannot write ", pathFor(key));
        shard.save(os);
        os.flush();
        const auto bytes = static_cast<std::uint64_t>(os.tellp());
        index_[key] = bytes;
        stats_.bytesOnDisk += bytes;
    }
    stats_.tilesOnDisk = index_.size();
}

void
TiledMapStore::open()
{
    index_.clear();
    cache_.clear();
    stats_ = TileStats{};
    if (!fs::exists(directory_))
        fatal("TiledMapStore: directory ", directory_, " does not exist");
    for (const auto& entry : fs::directory_iterator(directory_)) {
        if (entry.path().extension() != ".adm")
            continue;
        const std::string stem = entry.path().stem().string();
        // Parse "tile_<x>_<y>".
        const auto first = stem.find('_');
        const auto second = stem.find('_', first + 1);
        if (first == std::string::npos || second == std::string::npos)
            continue;
        TileKey key;
        key.x = std::stoi(stem.substr(first + 1, second - first - 1));
        key.y = std::stoi(stem.substr(second + 1));
        const auto bytes =
            static_cast<std::uint64_t>(entry.file_size());
        index_[key] = bytes;
        stats_.bytesOnDisk += bytes;
    }
    stats_.tilesOnDisk = index_.size();
}

const std::vector<MapPoint>&
TiledMapStore::loadTile(const TileKey& key)
{
    if (const auto* cached = cache_.find(key)) {
        ++stats_.tileHits;
        return *cached;
    }

    // Page the tile in.
    ++stats_.tileLoads;
    std::vector<MapPoint> points;
    const auto idx = index_.find(key);
    if (idx != index_.end()) {
        std::ifstream is(pathFor(key), std::ios::binary);
        if (!is)
            fatal("TiledMapStore: cannot read ", pathFor(key));
        const PriorMap tile = PriorMap::load(is);
        points = tile.points();
        stats_.bytesRead += idx->second;
    }
    cache_.put(key, std::move(points));
    return *cache_.peek(key);
}

std::vector<MapPoint>
TiledMapStore::queryRadius(const Vec2& center, double radius)
{
    std::vector<MapPoint> result;
    const double r2 = radius * radius;
    const auto lo = keyFor({center.x - radius, center.y - radius});
    const auto hi = keyFor({center.x + radius, center.y + radius});
    for (std::int32_t tx = lo.x; tx <= hi.x; ++tx) {
        for (std::int32_t ty = lo.y; ty <= hi.y; ++ty) {
            const auto& points = loadTile({tx, ty});
            for (const auto& p : points)
                if ((p.pos - center).squaredNorm() <= r2)
                    result.push_back(p);
        }
    }
    return result;
}

std::size_t
TiledMapStore::prefetch(const Vec2& pos, const Vec2& velocity,
                        double horizonS)
{
    // Walk the predicted path at half-tile steps so no tile the
    // segment crosses is skipped, deduplicating consecutive keys.
    const Vec2 end{pos.x + velocity.x * horizonS,
                   pos.y + velocity.y * horizonS};
    const double dx = end.x - pos.x;
    const double dy = end.y - pos.y;
    const double dist = std::sqrt(dx * dx + dy * dy);
    const int steps =
        1 + static_cast<int>(dist / (params_.tileSize * 0.5));
    std::size_t loaded = 0;
    TileKey last{INT32_MIN, INT32_MIN};
    for (int s = 0; s <= steps; ++s) {
        const double f = static_cast<double>(s) / steps;
        const TileKey key =
            keyFor({pos.x + dx * f, pos.y + dy * f});
        if (!(key < last) && !(last < key))
            continue;
        last = key;
        if (cache_.peek(key)) {
            ++stats_.prefetchHits;
            continue;
        }
        loadTile(key);
        ++stats_.prefetchLoads;
        ++loaded;
    }
    return loaded;
}

void
TiledMapStore::dropCache()
{
    cache_.clear();
}

} // namespace ad::slam
