/**
 * @file
 * Per-bank DRAM timing state (closed-page operation).
 *
 * The memory controller in the paper uses a closed-page policy with
 * auto-precharge (Table I), so a bank access is modeled as
 * ACT -> RD/WR(A) and the bank becomes available again after tRC.
 * Victim-row refreshes (the crosstalk mitigation mechanism) and rank
 * auto-refresh both appear as "blocked until" windows; requests that
 * arrive during a window wait, which is the source of the paper's
 * execution time overhead (ETO).
 *
 * A bank holds only its own cycles and counts.  The DDR constants
 * live once, in the owning DramSystem, which passes them to the calls
 * that need them; every call is inline, so DramSystem::issue compiles
 * to straight-line code over the bank's fields.
 */

#ifndef CATSIM_DRAM_BANK_HPP
#define CATSIM_DRAM_BANK_HPP

#include <cstdint>

#include "common/types.hpp"
#include "dram/timing.hpp"

namespace catsim
{

/** Timing state machine for one DRAM bank. */
class Bank
{
  public:
    /** Earliest cycle at which a new ACT may be issued. */
    Cycle
    earliestActivate(Cycle now) const
    {
        Cycle t = now;
        if (nextActAllowed_ > t)
            t = nextActAllowed_;
        if (blockedUntil_ > t)
            t = blockedUntil_;
        return t;
    }

    /**
     * Issue ACT + column access with auto-precharge at @p cycle (which
     * must be >= earliestActivate).
     *
     * @return Cycle at which read data is available (or the write is
     *         accepted).
     */
    Cycle
    access(Cycle cycle, bool is_write, const DramTiming &t)
    {
        ++activations_;
        nextActAllowed_ = cycle + t.tRC;
        if (is_write) {
            // Writes complete at the controller once data is on the bus;
            // write recovery extends the bank-busy window.
            const Cycle busy =
                cycle + t.tRCD + t.tCAS + t.tBURST + t.tWR + t.tRP;
            if (busy > nextActAllowed_)
                nextActAllowed_ = busy;
        }
        return cycle + t.tRCD + t.tCAS + t.tBURST;
    }

    /**
     * Block the bank while @p rows victim rows are refreshed back to
     * back (tRC per row), starting no earlier than the bank is free.
     *
     * @return Cycle at which the bank becomes available again.
     */
    Cycle
    victimRefresh(Cycle now, std::uint64_t rows, const DramTiming &t)
    {
        const Cycle start = earliestActivate(now);
        blockedUntil_ = start + t.victimRefreshCycles(rows);
        if (blockedUntil_ > nextActAllowed_)
            nextActAllowed_ = blockedUntil_;
        victimRowsRefreshed_ += rows;
        ++victimRefreshEvents_;
        return blockedUntil_;
    }

    /** Block the bank for a rank-level auto-refresh window. */
    void
    blockUntil(Cycle until)
    {
        if (until > blockedUntil_)
            blockedUntil_ = until;
    }

    Count activations() const { return activations_; }
    Count victimRowsRefreshed() const { return victimRowsRefreshed_; }
    Count victimRefreshEvents() const { return victimRefreshEvents_; }

  private:
    Cycle nextActAllowed_ = 0;
    Cycle blockedUntil_ = 0;
    Count activations_ = 0;
    Count victimRowsRefreshed_ = 0;
    Count victimRefreshEvents_ = 0;
};

} // namespace catsim

#endif // CATSIM_DRAM_BANK_HPP
