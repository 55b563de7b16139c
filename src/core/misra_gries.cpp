#include "misra_gries.hpp"

#include "common/bit.hpp"
#include "common/logging.hpp"
#include "core/pra.hpp"

namespace catsim
{

MisraGries::MisraGries(RowAddr num_rows, std::uint32_t num_entries,
                       std::uint32_t threshold)
    : MitigationScheme(num_rows),
      threshold_(threshold),
      entries_(num_entries),
      slotOf_(num_rows, 0),
      free_((std::size_t{num_entries} + 63) / 64, 0)
{
    if (num_rows == 0)
        CATSIM_FATAL("Misra-Gries needs at least one row");
    if (num_entries == 0)
        CATSIM_FATAL("Misra-Gries needs at least one entry");
    if (threshold < 2)
        CATSIM_FATAL("Misra-Gries threshold must be >= 2, got ",
                     threshold);
    for (std::uint32_t i = 0; i < num_entries; ++i)
        setFree(i);
}

RefreshAction
MisraGries::refreshAround(RowAddr row)
{
    const RefreshAction act =
        neighborRefresh(row, numRows_, adjacency_);
    ++stats_.refreshEvents;
    stats_.victimRowsRefreshed += act.rowCount;
    return act;
}

std::uint32_t
MisraGries::lowestFree() const
{
    for (std::size_t w = 0; w < free_.size(); ++w) {
        if (free_[w])
            return static_cast<std::uint32_t>(w * 64 + ctz64(free_[w]));
    }
    return numEntries();
}

RefreshAction
MisraGries::onActivate(RowAddr row)
{
    if (row >= numRows_)
        CATSIM_PANIC("row ", row, " out of range");
    ++stats_.activations;
    // CC-style SRAM budget: one CAM probe + one entry/spill update.
    stats_.sramAccesses += 2;

    if (const std::uint32_t slot = slotOf_[row]) {
        Entry &e = entries_[slot - 1];
        ++e.count;
        // `count + spills since the entry's baseline` upper-bounds
        // the row's true activations since its last refresh.
        if (e.count + (dec_ - e.decBase) >= threshold_) {
            // Keep the heavy hitter tracked: the bound restarts
            // at the current spill level instead of at zero.
            e.count = 0;
            e.decBase = dec_;
            setFree(slot - 1);
            return refreshAround(row);
        }
        clearFree(slot - 1);
        return {};
    }

    const std::uint32_t install = lowestFree();
    if (install < numEntries()) {
        Entry &e = entries_[install];
        // Overwriting an evictable entry stops tracking its old row.
        if (slotOf_[e.row] == install + 1)
            slotOf_[e.row] = 0;
        slotOf_[row] = install + 1;
        e.row = row;
        e.count = 1;
        // Earlier spills may have absorbed occurrences of this row, so
        // a fresh entry's bound starts from the full spill total.
        e.decBase = 0;
        if (1 + dec_ >= threshold_) {
            e.count = 0;
            e.decBase = dec_;
            return refreshAround(row);
        }
        clearFree(install);
        return {};
    }

    // Summary-full miss: classic Misra-Gries decrements every entry,
    // absorbing one occurrence of each tracked row plus this one into
    // the global spill counter (a full-table rewrite in SRAM).  No
    // entry was free, so the pass rebuilds the bitmap from zero.
    ++dec_;
    for (std::uint32_t i = 0; i < numEntries(); ++i) {
        if (--entries_[i].count == 0)
            setFree(i);
    }
    stats_.sramAccesses += entries_.size();
    // The dropped occurrence still counts toward the untracked row's
    // bound (the spill total alone).  Only reachable when the table is
    // undersized for the stream (entries + 1 <= acts / T), where the
    // scheme degrades to conservative refresh-per-miss instead of
    // losing the no-false-negative guarantee.
    if (dec_ >= threshold_)
        return refreshAround(row);
    return {};
}

void
MisraGries::onEpoch()
{
    // Retention refresh clears accumulated disturbance: restart the
    // sketch like the other counting schemes restart their counters.
    for (std::uint32_t i = 0; i < numEntries(); ++i) {
        Entry &e = entries_[i];
        if (slotOf_[e.row] == i + 1)
            slotOf_[e.row] = 0;
        e = Entry{};
        setFree(i);
    }
    dec_ = 0;
    ++stats_.epochResets;
}

std::uint32_t
MisraGries::trackedCount(RowAddr row) const
{
    const std::uint32_t slot = slotOf_[row];
    return slot ? entries_[slot - 1].count : 0;
}

} // namespace catsim
