/**
 * @file
 * SCA - Static Counter Assignment (paper Section III-B).
 *
 * The bank's N rows are partitioned into M fixed, equal-size groups and
 * one log2(T)-bit counter counts activations per group.  When a counter
 * reaches the refresh threshold T it is reset and the N/M rows of the
 * group plus the two rows adjacent to the group are refreshed, which
 * covers every possible victim of an aggressor inside the group.
 * Groups are power-of-two spans, so a row's group is a shift away.
 */

#ifndef CATSIM_CORE_SCA_HPP
#define CATSIM_CORE_SCA_HPP

#include <cstdint>
#include <vector>

#include "core/mitigation.hpp"

namespace catsim
{

/** Uniform (static) counter-per-group mitigation. */
class Sca : public MitigationScheme
{
  public:
    /**
     * @param num_rows  Rows per bank (N).
     * @param num_counters  Counters per bank (M); must divide N into
     *                  power-of-two groups.
     * @param threshold Refresh threshold (T).
     */
    Sca(RowAddr num_rows, std::uint32_t num_counters,
        std::uint32_t threshold);

    RefreshAction onActivate(RowAddr row) override;

    /** One loop over the chunk on locals; identical to one onActivate
     *  per row. */
    void onActivateBatch(const RowAddr *rows, std::size_t count) override;

    void onEpoch() override;

    std::uint32_t numCounters() const { return numCounters_; }
    std::uint32_t groupSize() const { return groupSize_; }
    std::uint32_t counterValue(std::uint32_t group) const;

  private:
    /** Reset @p group's counter and refresh the group plus the rows
     *  adjacent to it. */
    RefreshAction
    refreshGroup(std::uint32_t group)
    {
        counters_[group] = 0;
        const std::int64_t lo =
            static_cast<std::int64_t>(group) * groupSize_ - 1;
        const std::int64_t hi =
            static_cast<std::int64_t>(group + 1) * groupSize_;
        return makeRangeRefresh(lo, hi);
    }

    std::uint32_t numCounters_;
    std::uint32_t groupSize_;
    std::uint32_t groupShift_; //!< log2(groupSize_)
    std::uint32_t threshold_;
    std::vector<std::uint32_t> counters_;
};

} // namespace catsim

#endif // CATSIM_CORE_SCA_HPP
