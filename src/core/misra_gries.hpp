/**
 * @file
 * Misra-Gries frequent-item tracking mitigation (Graphene-style,
 * Park et al., MICRO 2020).
 *
 * A small table of (row, count) entries summarizes the bank's
 * activation stream with the Misra-Gries heavy-hitters sketch: a hit
 * increments the row's entry, a miss fills a free entry, and a miss
 * against a full table decrements EVERY entry (absorbing one
 * occurrence of each tracked row plus the missing one into a global
 * spill counter).  The sketch under-counts by at most the spill total,
 * so `entry count + spills since the entry was installed` upper-bounds
 * the row's true activation count; when that bound reaches the refresh
 * threshold T the row's physical neighbors are refreshed and the entry
 * resets.
 *
 * Guarantee: no row's true count since its last neighbor refresh ever
 * exceeds T - every activation checks the bound, including misses
 * (whose bound is the spill total alone).  Sized like Graphene
 * (entries + 1 > acts-per-epoch / T) the spill counter stays below T
 * and the miss path never fires; an undersized table degrades to
 * conservative refresh-per-miss instead of losing the guarantee.
 *
 * The modelled hardware is a CAM that matches all k entries at once.
 * The simulator finds the same entries without a scan: a per-row
 * index maps each tracked row to its entry (4 B per row, the footprint
 * of CounterCache's backing array), and a bitmap of count-0 entries
 * names the install slot by find-first-set.  A miss installs into the
 * LOWEST-index count-0 entry, the one the CAM's priority encoder (and
 * the historical scan) picks.  The entry it overwrites decides which
 * evictable row stays tracked, so a history-dependent pick (a rotating
 * cursor, a free list) would change results; any other fixed priority
 * order would not, since it only relabels the entries.  onActivate
 * panics on a row at or above num_rows; trackedCount must not be
 * given one.
 * Both structures are simulator bookkeeping: the SRAM accounting and
 * hardware cost stay the CAM's.
 */

#ifndef CATSIM_CORE_MISRA_GRIES_HPP
#define CATSIM_CORE_MISRA_GRIES_HPP

#include <cstdint>
#include <vector>

#include "core/mitigation.hpp"

namespace catsim
{

/** Misra-Gries heavy-hitter tracker with threshold refresh. */
class MisraGries : public MitigationScheme
{
  public:
    /**
     * @param num_rows    Rows per bank.
     * @param num_entries Tracking-table entries (k).
     * @param threshold   Refresh threshold (T).
     */
    MisraGries(RowAddr num_rows, std::uint32_t num_entries,
               std::uint32_t threshold);

    RefreshAction onActivate(RowAddr row) override;
    void onEpoch() override;

    std::uint32_t numEntries() const
    {
        return static_cast<std::uint32_t>(entries_.size());
    }

    /** Tracked count of @p row; 0 when untracked (test oracles). */
    std::uint32_t trackedCount(RowAddr row) const;

    /** Global decrements (spills) since the last epoch reset. */
    std::uint64_t decrements() const { return dec_; }

  private:
    /** A table entry; its row is tracked while slotOf_ points back. */
    struct Entry
    {
        RowAddr row = 0;
        std::uint32_t count = 0;    //!< 0 marks an evictable entry
        std::uint64_t decBase = 0;  //!< spills excluded from the bound
    };

    RefreshAction refreshAround(RowAddr row);

    /** Lowest-index count-0 entry; numEntries() when there is none. */
    std::uint32_t lowestFree() const;

    void
    setFree(std::uint32_t i)
    {
        free_[i >> 6] |= std::uint64_t{1} << (i & 63);
    }

    void
    clearFree(std::uint32_t i)
    {
        free_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
    }

    std::uint32_t threshold_;
    std::uint64_t dec_ = 0;
    std::vector<Entry> entries_;
    std::vector<std::uint32_t> slotOf_; //!< per row: entry + 1, 0 = none
    std::vector<std::uint64_t> free_;   //!< bit i: entries_[i].count == 0
};

} // namespace catsim

#endif // CATSIM_CORE_MISRA_GRIES_HPP
