/**
 * @file
 * Counter-cache baseline (Kim, Nair, Qureshi - CAL 2015; paper
 * Section II and Fig 2).
 *
 * One log2(T)-bit counter per DRAM row lives in a reserved area of main
 * memory; a small on-chip set-associative cache keeps recently used
 * counters so most activations update SRAM instead of DRAM.  Tracking
 * is exact, so only the two physical neighbors of an aggressor are ever
 * refreshed - at the price of counter storage, cache management, and
 * DRAM traffic on misses.
 *
 * Victim selection is pluggable (eviction_policy.hpp): LRU is the
 * default, and LFU/random variants feed the eviction-sensitivity
 * study (bench_fig15_extensions).
 */

#ifndef CATSIM_CORE_COUNTER_CACHE_HPP
#define CATSIM_CORE_COUNTER_CACHE_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "core/eviction_policy.hpp"
#include "core/mitigation.hpp"

namespace catsim
{

/** Exact per-row counting with an on-chip counter cache. */
class CounterCache : public MitigationScheme
{
  public:
    /**
     * @param num_rows   Rows per bank.
     * @param cache_counters Capacity of the on-chip cache in counters
     *                   (e.g. 2048 for the paper's "2K counter cache").
     * @param ways       Set associativity.
     * @param threshold  Refresh threshold (T).
     * @param policy     Victim-selection strategy; null selects LRU.
     */
    CounterCache(RowAddr num_rows, std::uint32_t cache_counters,
                 std::uint32_t ways, std::uint32_t threshold,
                 std::unique_ptr<EvictionPolicy> policy = nullptr);

    RefreshAction onActivate(RowAddr row) override;
    void onEpoch() override;

    Count hits() const { return hits_; }
    Count misses() const { return misses_; }
    std::uint32_t capacity() const { return cacheCounters_; }

    /** The active victim-selection strategy. */
    const EvictionPolicy &policy() const { return *policy_; }

  private:
    std::uint32_t cacheCounters_;
    std::uint32_t ways_;
    std::uint32_t sets_;
    std::uint32_t threshold_;
    std::unique_ptr<EvictionPolicy> policy_;
    std::vector<RowAddr> tags_;          //!< sets_ x ways_
    std::vector<CacheWayState> meta_;    //!< sets_ x ways_
    std::vector<std::uint32_t> backing_; //!< per-row counters ("DRAM")
    std::uint64_t tick_ = 0;
    Count hits_ = 0;
    Count misses_ = 0;
};

} // namespace catsim

#endif // CATSIM_CORE_COUNTER_CACHE_HPP
