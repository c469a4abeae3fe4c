/**
 * @file
 * Vehicle-side map client: local tile cache + prefetch bookkeeping.
 *
 * Each vehicle carries a small decoded-tile cache (the on-board DRAM
 * slice of the paper's 41 TB map) and the bookkeeping the
 * pose-driven prefetcher needs: which tiles have a fetch in flight
 * (so a tile is never requested twice) and which appearance level
 * each tile was last crowd-reported at (so a vehicle pushes one
 * refresh burst per appearance step, not one per frame).
 *
 * The client is deliberately passive -- the sim decides *when* to
 * prefetch and *what* to push; MapClient only answers "is this tile
 * warm", "is it already on the wire", and keeps LRU order. That
 * keeps every policy decision in one place (the sim event loop)
 * where its ordering is deterministic.
 */

#ifndef AD_MAPSERVE_CLIENT_HH
#define AD_MAPSERVE_CLIENT_HH

#include <cstdint>
#include <map>
#include <set>

#include "common/lru_cache.hh"
#include "mapserve/tile_codec.hh"

namespace ad {
class Config;
}

namespace ad::mapserve {

/** Vehicle-side knobs (`mapserve.client.*`). */
struct MapClientParams
{
    std::size_t cacheTiles = 9; ///< on-board decoded-tile cache.
    bool prefetch = true;       ///< pose-driven prefetch enabled.
    /**
     * Prefetch horizon (ms): the prefetcher requests the tile under
     * the pose predicted this far ahead along the velocity vector;
     * the same horizon is the prefetch's admission deadline.
     */
    double horizonMs = 3000.0;

    /** Read every `mapserve.client.*` knob (defaults from *this). */
    static MapClientParams fromConfig(const Config& cfg);
};

/** Per-vehicle client counters (summed into MapServeReport). */
struct MapClientStats
{
    std::int64_t hits = 0;       ///< frame found its tile warm.
    std::int64_t evictions = 0;  ///< LRU capacity evictions.
    std::int64_t installs = 0;   ///< tiles delivered and decoded.
};

/** One vehicle's map cache and in-flight bookkeeping. */
class MapClient
{
  public:
    /** Empty cache with capacity from `params`. */
    explicit MapClient(const MapClientParams& params);

    /** The construction parameters. */
    const MapClientParams& params() const { return params_; }

    /** Cached tile (touching LRU order), nullptr when cold. */
    const Tile* find(TileId id);

    /** Peek without touching LRU order (tests, staleness checks). */
    const Tile* peek(TileId id) const;

    /** Install a delivered tile (evicting LRU beyond capacity) and
        clear its in-flight mark. */
    void install(Tile&& tile);

    /** True when a fetch for `id` is already on the wire. */
    bool inFlight(TileId id) const
    {
        return inFlight_.count(id) != 0;
    }

    /** Mark a fetch as on the wire (submitted and queued). */
    void markInFlight(TileId id) { inFlight_.insert(id); }

    /** Clear an in-flight mark (request was shed, not served). */
    void clearInFlight(TileId id) { inFlight_.erase(id); }

    /**
     * Appearance this vehicle last pushed refreshes for `id` at
     * (negative sentinel = never). The sim re-pushes only when live
     * appearance has moved past the threshold again.
     */
    float lastPushed(TileId id) const;

    /** Record a refresh push of `id` at appearance `a`. */
    void notePushed(TileId id, float a) { pushed_[id] = a; }

    /** Cached tiles right now. */
    std::size_t cachedTiles() const { return cache_.size(); }

    /** Client-side counters. */
    const MapClientStats& stats() const { return stats_; }

  private:
    MapClientParams params_;
    LruCache<TileId, Tile> cache_;
    std::set<TileId> inFlight_;
    std::map<TileId, float> pushed_;
    MapClientStats stats_;
};

} // namespace ad::mapserve

#endif // AD_MAPSERVE_CLIENT_HH
