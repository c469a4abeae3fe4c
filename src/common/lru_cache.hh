/**
 * @file
 * Bounded least-recently-used cache: an ordered map of entries plus
 * a recency list of their keys. The map tier's three caches use it:
 * the tile server's encoded tiles, each vehicle's decoded tiles and
 * the tiled prior-map store's pages. Capacity 0 holds nothing, so a
 * cache sized 0 is off. Not thread-safe.
 */

#ifndef AD_COMMON_LRU_CACHE_HH
#define AD_COMMON_LRU_CACHE_HH

#include <cstddef>
#include <list>
#include <map>
#include <optional>
#include <utility>

namespace ad {

/** LRU cache of Value keyed by Key (which needs operator<). */
template <typename Key, typename Value> class LruCache
{
  public:
    /** @param capacity most entries held at once. */
    explicit LruCache(std::size_t capacity) : capacity_(capacity) {}

    /** Entries held now. */
    std::size_t size() const { return entries_.size(); }

    /** The entry for @p key, made most recent; nullptr when absent. */
    Value*
    find(const Key& key)
    {
        const auto it = entries_.find(key);
        if (it == entries_.end())
            return nullptr;
        order_.splice(order_.begin(), order_, it->second.pos);
        return &it->second.value;
    }

    /** The entry for @p key without touching recency. */
    const Value*
    peek(const Key& key) const
    {
        const auto it = entries_.find(key);
        return it == entries_.end() ? nullptr : &it->second.value;
    }

    /**
     * Insert or replace the entry for @p key as the most recent.
     * @return the least recent key, when evicted to stay in capacity.
     */
    std::optional<Key>
    put(const Key& key, Value value)
    {
        if (capacity_ == 0)
            return std::nullopt;
        if (Value* held = find(key)) {
            *held = std::move(value);
            return std::nullopt;
        }
        order_.push_front(key);
        entries_.emplace(key, Entry{std::move(value), order_.begin()});
        if (entries_.size() <= capacity_)
            return std::nullopt;
        Key evicted = std::move(order_.back());
        order_.pop_back();
        entries_.erase(evicted);
        return evicted;
    }

    /** Drop the entry for @p key; false when absent. */
    bool
    erase(const Key& key)
    {
        const auto it = entries_.find(key);
        if (it == entries_.end())
            return false;
        order_.erase(it->second.pos);
        entries_.erase(it);
        return true;
    }

    /** Drop every entry. */
    void
    clear()
    {
        entries_.clear();
        order_.clear();
    }

  private:
    struct Entry
    {
        Value value;
        typename std::list<Key>::iterator pos; ///< place in order_.
    };

    std::size_t capacity_;
    std::map<Key, Entry> entries_;
    std::list<Key> order_; ///< most recently used first.
};

} // namespace ad

#endif // AD_COMMON_LRU_CACHE_HH
