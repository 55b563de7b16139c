#include "sca.hpp"

#include "common/bit.hpp"
#include "common/logging.hpp"

namespace catsim
{

Sca::Sca(RowAddr num_rows, std::uint32_t num_counters,
         std::uint32_t threshold)
    : MitigationScheme(num_rows),
      numCounters_(num_counters),
      groupSize_(num_counters ? num_rows / num_counters : 0),
      groupShift_(floorLog2(groupSize_)),
      threshold_(threshold),
      counters_(num_counters, 0)
{
    if (num_counters == 0 || num_rows % num_counters != 0)
        CATSIM_FATAL("SCA requires counters (", num_counters,
                     ") to divide rows (", num_rows, ")");
    if (!isPow2(groupSize_))
        CATSIM_FATAL("SCA group size (", groupSize_,
                     " rows) must be a power of two");
    if (threshold < 2)
        CATSIM_FATAL("SCA refresh threshold must be >= 2");
}

RefreshAction
Sca::onActivate(RowAddr row)
{
    if (row >= numRows_)
        CATSIM_PANIC("row ", row, " out of range");
    ++stats_.activations;
    // One SRAM read + one write per activation (paper Section VII-A).
    stats_.sramAccesses += 2;

    const std::uint32_t group = row >> groupShift_;
    if (++counters_[group] < threshold_)
        return {};
    return refreshGroup(group);
}

void
Sca::onActivateBatch(const RowAddr *rows, std::size_t count)
{
    std::uint32_t *const counters = counters_.data();
    const std::uint32_t shift = groupShift_;
    const std::uint32_t threshold = threshold_;
    const RowAddr numRows = numRows_;
    for (std::size_t i = 0; i < count; ++i) {
        const RowAddr row = rows[i];
        if (row >= numRows)
            CATSIM_PANIC("row ", row, " out of range");
        const std::uint32_t group = row >> shift;
        if (++counters[group] >= threshold)
            refreshGroup(group);
    }
    stats_.activations += count;
    stats_.sramAccesses += 2 * count;
}

void
Sca::onEpoch()
{
    // Retention refresh clears disturbance; restart all counts.
    std::fill(counters_.begin(), counters_.end(), 0);
}

std::uint32_t
Sca::counterValue(std::uint32_t group) const
{
    return counters_.at(group);
}

} // namespace catsim
