#include "counter_cache.hpp"

#include "core/pra.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace catsim
{

CounterCache::CounterCache(RowAddr num_rows,
                           std::uint32_t cache_counters,
                           std::uint32_t ways, std::uint32_t threshold,
                           std::unique_ptr<EvictionPolicy> policy)
    : MitigationScheme(num_rows),
      cacheCounters_(cache_counters),
      ways_(ways),
      sets_(cache_counters / ways),
      threshold_(threshold),
      policy_(policy ? std::move(policy)
                     : makeEvictionPolicy(EvictionPolicyKind::Lru, 0)),
      backing_(num_rows, 0)
{
    if (ways == 0 || cache_counters % ways != 0)
        CATSIM_FATAL("counter cache capacity (", cache_counters,
                     ") must be a multiple of ways (", ways, ")");
    tags_.assign(static_cast<std::size_t>(sets_) * ways_, 0);
    meta_.assign(static_cast<std::size_t>(sets_) * ways_,
                 CacheWayState{});
}

RefreshAction
CounterCache::onActivate(RowAddr row)
{
    if (row >= numRows_)
        CATSIM_PANIC("row ", row, " out of range");
    ++stats_.activations;
    ++tick_;

    const std::uint32_t set = row % sets_;
    const std::size_t base = static_cast<std::size_t>(set) * ways_;
    const RowAddr *tags = &tags_[base];
    CacheWayState *meta = &meta_[base];

    std::uint32_t hit = ways_;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (meta[w].valid && tags[w] == row) {
            hit = w;
            break;
        }
    }

    if (hit != ways_) {
        ++hits_;
        stats_.sramAccesses += 2; // tag+data read, data write
        meta[hit].lastUse = tick_;
        ++meta[hit].useCount;
    } else {
        ++misses_;
        stats_.sramAccesses += 2;
        const std::uint32_t victim = policy_->pickVictim(meta, ways_);
        stats_.prngBits = policy_->prngBits();
        // Evict (write the old counter back to DRAM) and fill.
        if (meta[victim].valid)
            ++stats_.counterDramWrites;
        ++stats_.counterDramReads;
        tags_[base + victim] = row;
        meta[victim].valid = true;
        meta[victim].lastUse = tick_;
        meta[victim].useCount = 1;
    }

    if (++backing_[row] < threshold_)
        return {};

    backing_[row] = 0;
    // Exact tracking: refresh only the two physical neighbors.
    const RefreshAction act =
        neighborRefresh(row, numRows_, adjacency_);
    ++stats_.refreshEvents;
    stats_.victimRowsRefreshed += act.rowCount;
    return act;
}

void
CounterCache::onEpoch()
{
    std::fill(backing_.begin(), backing_.end(), 0);
}

} // namespace catsim
