/**
 * @file
 * Frozen scanning Misra-Gries table; see the header for why this copy
 * exists and why it must not change behaviour.
 */

#include "reference_misra_gries.hpp"

#include "common/logging.hpp"
#include "core/pra.hpp"

namespace catsim
{

ReferenceMisraGries::ReferenceMisraGries(RowAddr num_rows,
                                         std::uint32_t num_entries,
                                         std::uint32_t threshold)
    : MitigationScheme(num_rows),
      threshold_(threshold),
      entries_(num_entries)
{
    if (num_entries == 0)
        CATSIM_FATAL("Misra-Gries needs at least one entry");
    if (threshold < 2)
        CATSIM_FATAL("Misra-Gries threshold must be >= 2, got ",
                     threshold);
}

RefreshAction
ReferenceMisraGries::refreshAround(RowAddr row)
{
    const RefreshAction act =
        neighborRefresh(row, numRows_, adjacency_);
    ++stats_.refreshEvents;
    stats_.victimRowsRefreshed += act.rowCount;
    return act;
}

RefreshAction
ReferenceMisraGries::onActivate(RowAddr row)
{
    ++stats_.activations;
    // CC-style SRAM budget: one CAM probe + one entry/spill update.
    stats_.sramAccesses += 2;

    Entry *slot = nullptr;
    for (auto &e : entries_) {
        if (e.live && e.row == row) {
            ++e.count;
            // `count + spills since the entry's baseline` upper-bounds
            // the row's true activations since its last refresh.
            if (e.count + (dec_ - e.decBase) >= threshold_) {
                // Keep the heavy hitter tracked: the bound restarts
                // at the current spill level instead of at zero.
                e.count = 0;
                e.decBase = dec_;
                return refreshAround(row);
            }
            return {};
        }
        if (e.count == 0 && !slot)
            slot = &e;
    }

    if (slot) {
        slot->row = row;
        slot->count = 1;
        // Earlier spills may have absorbed occurrences of this row, so
        // a fresh entry's bound starts from the full spill total.
        slot->decBase = 0;
        slot->live = true;
        if (1 + dec_ >= threshold_) {
            slot->count = 0;
            slot->decBase = dec_;
            return refreshAround(row);
        }
        return {};
    }

    // Summary-full miss: classic Misra-Gries decrements every entry,
    // absorbing one occurrence of each tracked row plus this one into
    // the global spill counter (a full-table rewrite in SRAM).
    ++dec_;
    for (auto &e : entries_)
        --e.count;
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
ReferenceMisraGries::onEpoch()
{
    // Retention refresh clears accumulated disturbance: restart the
    // sketch like the other counting schemes restart their counters.
    for (auto &e : entries_)
        e = Entry{};
    dec_ = 0;
    ++stats_.epochResets;
}

std::uint32_t
ReferenceMisraGries::trackedCount(RowAddr row) const
{
    for (const auto &e : entries_) {
        if (e.live && e.row == row)
            return e.count;
    }
    return 0;
}

} // namespace catsim
