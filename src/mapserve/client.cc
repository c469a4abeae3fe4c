#include "mapserve/client.hh"

#include "common/config.hh"
#include "common/logging.hh"

namespace ad::mapserve {

MapClientParams
MapClientParams::fromConfig(const Config& cfg)
{
    MapClientParams p;
    p.cacheTiles = static_cast<std::size_t>(cfg.getInt(
        "mapserve.client.cache-tiles",
        static_cast<int>(p.cacheTiles)));
    p.prefetch = cfg.getBool("mapserve.client.prefetch", p.prefetch);
    p.horizonMs =
        cfg.getDouble("mapserve.client.horizon-ms", p.horizonMs);
    return p;
}

MapClient::MapClient(const MapClientParams& params)
    : params_(params), cache_(params.cacheTiles)
{
    if (params_.cacheTiles < 1)
        fatal("MapClient: cache-tiles must be >= 1");
}

const Tile*
MapClient::find(TileId id)
{
    const Tile* tile = cache_.find(id);
    if (tile)
        ++stats_.hits;
    return tile;
}

const Tile*
MapClient::peek(TileId id) const
{
    return cache_.peek(id);
}

void
MapClient::install(Tile&& tile)
{
    inFlight_.erase(tile.id);
    ++stats_.installs;
    const TileId id = tile.id;
    if (cache_.put(id, std::move(tile)))
        ++stats_.evictions;
}

float
MapClient::lastPushed(TileId id) const
{
    const auto it = pushed_.find(id);
    return it == pushed_.end() ? -1.0f : it->second;
}

} // namespace ad::mapserve
