/**
 * @file
 * Per-rank DRAM constraints: the four-activate window (tFAW), ACT-to-ACT
 * spacing (tRRD) and distributed auto-refresh (tREFI/tRFC).
 *
 * Like Bank, a rank holds only its own state: the owning DramSystem
 * passes its one copy of the DDR constants to the inline calls that
 * read them.  The last four ACT cycles sit in a fixed four-slot ring
 * whose next slot is the oldest.
 */

#ifndef CATSIM_DRAM_RANK_HPP
#define CATSIM_DRAM_RANK_HPP

#include <array>
#include <cstdint>

#include "common/types.hpp"
#include "dram/timing.hpp"

namespace catsim
{

/** Rank-level timing state. */
class Rank
{
  public:
    /** The first auto-refresh falls due one tREFI in. */
    explicit Rank(const DramTiming &timing)
        : nextAutoRefresh_(timing.tREFI)
    {
        actWindow_.fill(0);
    }

    /** Earliest ACT issue respecting tRRD and tFAW. */
    Cycle
    earliestActivate(Cycle now, const DramTiming &t) const
    {
        Cycle at = now;
        if (lastAct_ + t.tRRD > at && lastActValid_)
            at = lastAct_ + t.tRRD;
        // Oldest of the last four ACTs bounds the tFAW window.
        const Cycle oldest = actWindow_[head_];
        if (actCount_ >= 4 && oldest + t.tFAW > at)
            at = oldest + t.tFAW;
        return at;
    }

    /** Record an ACT at @p cycle. */
    void
    recordActivate(Cycle cycle)
    {
        lastAct_ = cycle;
        lastActValid_ = true;
        actWindow_[head_] = cycle;
        head_ = (head_ + 1) % actWindow_.size();
        ++actCount_;
    }

    /**
     * Return the end of an auto-refresh window if one is due at or
     * before @p now, advancing the internal tREFI schedule; returns 0
     * when no refresh is due.  The caller blocks all banks in the rank
     * until the returned cycle.
     */
    Cycle
    autoRefreshDue(Cycle now, const DramTiming &t)
    {
        if (now < nextAutoRefresh_)
            return 0;
        const Cycle start = nextAutoRefresh_;
        nextAutoRefresh_ += t.tREFI;
        ++autoRefreshes_;
        return start + t.tRFC;
    }

    Count autoRefreshes() const { return autoRefreshes_; }

  private:
    std::array<Cycle, 4> actWindow_;
    std::size_t head_ = 0;
    std::uint64_t actCount_ = 0;
    Cycle lastAct_ = 0;
    bool lastActValid_ = false;
    Cycle nextAutoRefresh_;
    Count autoRefreshes_ = 0;
};

} // namespace catsim

#endif // CATSIM_DRAM_RANK_HPP
