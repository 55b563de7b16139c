/**
 * @file
 * Aggregate DRAM device model: channels of ranks of banks plus the
 * shared data bus per channel.
 *
 * The model is closed-page and command-level: one issue() call finds a
 * request's earliest issue slot, commits the access there, and returns
 * the slot and the data-ready cycle.  Victim refreshes requested by a
 * mitigation scheme block the target bank for tRC per refreshed row.
 */

#ifndef CATSIM_DRAM_DRAM_SYSTEM_HPP
#define CATSIM_DRAM_DRAM_SYSTEM_HPP

#include <vector>

#include "common/types.hpp"
#include "dram/bank.hpp"
#include "dram/geometry.hpp"
#include "dram/rank.hpp"
#include "dram/timing.hpp"

namespace catsim
{

/** Where one access landed in the DRAM timeline. */
struct DramAccess
{
    Cycle issued; //!< cycle the ACT issued
    Cycle ready;  //!< data-ready cycle (reads) / acceptance (writes)
};

/** Whole-device DRAM timing model. */
class DramSystem
{
  public:
    DramSystem(const DramGeometry &geometry, const DramTiming &timing);

    /**
     * Issue an access to (channel, rank, bank) at the earliest cycle
     * not before @p not_before that the bank, the rank (tFAW/tRRD),
     * auto-refresh and the channel data bus allow, and commit it there.
     */
    DramAccess issue(const BankId &id, bool is_write, Cycle not_before);

    /**
     * Block the bank while victim rows are refreshed; returns the cycle
     * the bank frees up.
     */
    Cycle victimRefresh(const BankId &id, std::uint64_t rows, Cycle now);

    const Bank &bank(const BankId &id) const;
    const DramGeometry &geometry() const { return geometry_; }
    const DramTiming &timing() const { return timing_; }

    /** Sum of ACTs over all banks. */
    Count totalActivations() const;

    /** Sum of victim rows refreshed over all banks. */
    Count totalVictimRowsRefreshed() const;

  private:
    /** Index of the rank holding @p id in ranks_. */
    std::uint32_t
    rankIndex(const BankId &id) const
    {
        return id.channel * geometry_.ranksPerChannel + id.rank;
    }

    /** Block the banks of @p id's rank for every auto-refresh due by now. */
    void applyAutoRefresh(const BankId &id, Cycle now);

    DramGeometry geometry_;
    DramTiming timing_;
    std::vector<Bank> banks_;
    std::vector<Rank> ranks_;
    std::vector<Cycle> busFreeAt_; //!< per channel
};

} // namespace catsim

#endif // CATSIM_DRAM_DRAM_SYSTEM_HPP
