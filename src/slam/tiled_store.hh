/**
 * @file
 * Tiled on-disk prior-map store -- the storage-constraint substrate
 * (Section 2.4.3) made concrete. Country-scale prior maps (41 TB for
 * the US) cannot live in memory; vehicles page map *tiles* from local
 * storage as they drive. This store shards a PriorMap into
 * fixed-size geographic tiles on disk, serves radius queries through
 * an LRU-cached tile loader, and reports the I/O statistics (tiles
 * touched, bytes read, hit rate) that on-vehicle storage needs to be
 * provisioned for.
 */

#ifndef AD_SLAM_TILED_STORE_HH
#define AD_SLAM_TILED_STORE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/lru_cache.hh"
#include "slam/map.hh"

namespace ad::slam {

/** Store construction parameters. */
struct TiledStoreParams
{
    double tileSize = 50.0;   ///< tile edge length (m).
    std::size_t cacheTiles = 8; ///< LRU capacity (tiles in memory).
};

/** Paging statistics. */
struct TileStats
{
    std::uint64_t tileLoads = 0;   ///< disk reads.
    std::uint64_t tileHits = 0;    ///< cache hits.
    std::uint64_t bytesRead = 0;   ///< serialized bytes paged in.
    std::uint64_t tilesOnDisk = 0;
    std::uint64_t bytesOnDisk = 0;
    std::uint64_t prefetchLoads = 0; ///< tiles paged in by prefetch().
    std::uint64_t prefetchHits = 0;  ///< prefetch() tiles already warm.

    double
    hitRate() const
    {
        const auto total = tileLoads + tileHits;
        return total ? static_cast<double>(tileHits) / total : 0.0;
    }
};

/**
 * A PriorMap sharded into on-disk tiles with an LRU page cache.
 *
 * The store owns its directory contents: build() writes one file per
 * tile, and queries page tiles back through the cache.
 */
class TiledMapStore
{
  public:
    /**
     * @param directory directory for tile files (created by build()).
     * @param params tiling/caching knobs.
     */
    TiledMapStore(std::string directory,
                  const TiledStoreParams& params = {});

    /** Shard a map into tile files; replaces existing tiles. */
    void build(const PriorMap& map);

    /** Open an existing store (reads the tile index). */
    void open();

    /**
     * All map points within radius of a position, paging any needed
     * tiles through the cache.
     */
    std::vector<MapPoint> queryRadius(const Vec2& center, double radius);

    /**
     * Pose-driven prefetch: warm every tile under the straight-line
     * path from `pos` to `pos + velocity * horizonS` (the pose the
     * ego motion predicts `horizonS` seconds ahead), so the
     * localization query that arrives when the vehicle gets there
     * hits the page cache instead of stalling on disk. Tiles paged
     * in count as prefetchLoads, already-warm ones as prefetchHits.
     *
     * @return tiles newly paged in by this call.
     */
    std::size_t prefetch(const Vec2& pos, const Vec2& velocity,
                         double horizonS);

    const TileStats& stats() const { return stats_; }

    /** Forget cached tiles (keeps disk contents and disk stats). */
    void dropCache();

  private:
    struct TileKey
    {
        std::int32_t x;
        std::int32_t y;
        bool operator<(const TileKey& o) const
        {
            return x != o.x ? x < o.x : y < o.y;
        }
    };

    TileKey keyFor(const Vec2& pos) const;
    std::string pathFor(const TileKey& key) const;
    const std::vector<MapPoint>& loadTile(const TileKey& key);

    std::string directory_;
    TiledStoreParams params_;
    std::map<TileKey, std::uint64_t> index_; ///< key -> bytes on disk.
    LruCache<TileKey, std::vector<MapPoint>> cache_;
    TileStats stats_;
};

} // namespace ad::slam

#endif // AD_SLAM_TILED_STORE_HH
