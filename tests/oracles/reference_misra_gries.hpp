/**
 * @file
 * Frozen scanning Misra-Gries table (differential oracle).
 *
 * This is `MisraGries` exactly as it stood before the row index and
 * free-entry bitmap: every activation scans all k entries for the
 * row, remembering the lowest-index count-0 entry as the install slot
 * on a miss.  That scan is how software models the hardware CAM, and
 * it is the specification the indexed table is checked against.
 *
 * It is kept for two purposes only:
 *  - the differential tests (`MisraGriesDiff.*` in
 *    `tests/test_misra_gries.cpp`) drive it and the production
 *    `MisraGries` with identical streams and require identical
 *    refresh actions, spill counts, tracked counts and stats, and
 *  - `bench_micro_schemes` times it against the indexed table.
 *
 * Do not use it in simulators and do not "fix" it.  It lives in the
 * `catsim_oracles` target, outside `libcatsim`.
 */

#ifndef CATSIM_CORE_REFERENCE_MISRA_GRIES_HPP
#define CATSIM_CORE_REFERENCE_MISRA_GRIES_HPP

#include <cstdint>
#include <vector>

#include "core/adjacency.hpp"
#include "core/mitigation.hpp"

namespace catsim
{

/** Scanning reference implementation of the Misra-Gries table. */
class ReferenceMisraGries : public MitigationScheme
{
  public:
    ReferenceMisraGries(RowAddr num_rows, std::uint32_t num_entries,
                        std::uint32_t threshold);

    RefreshAction onActivate(RowAddr row) override;
    void onEpoch() override;

    void setAdjacency(const RowAdjacency *adjacency)
    {
        adjacency_ = adjacency;
    }

    std::uint32_t trackedCount(RowAddr row) const;
    std::uint64_t decrements() const { return dec_; }

  private:
    struct Entry
    {
        RowAddr row = 0;
        std::uint32_t count = 0;   //!< 0 marks an evictable entry
        std::uint64_t decBase = 0; //!< spills excluded from the bound
        bool live = false;         //!< row field is valid
    };

    RefreshAction refreshAround(RowAddr row);

    std::uint32_t threshold_;
    std::uint64_t dec_ = 0;
    std::vector<Entry> entries_;
    const RowAdjacency *adjacency_ = nullptr;
};

} // namespace catsim

#endif // CATSIM_CORE_REFERENCE_MISRA_GRIES_HPP
