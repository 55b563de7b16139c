/**
 * @file
 * DDR3-1600 timing constraints in memory-bus cycles.
 *
 * The paper simulates USIMM with a Micron DDR3 MT41J512M8 datasheet and
 * an 800 MHz bus (Table I).  All values below are in bus cycles at
 * tCK = 1.25 ns.  Victim-row refreshes issued by a mitigation scheme
 * occupy the bank for one ACT+PRE pair (tRC) per refreshed row.
 * Every access is ACT -> RD/WR with auto-precharge on a closed page.
 * On one bank the ACT -> PRE and read-to-precharge spacings fall
 * inside tRC and the write-recovery window, so they need no field of
 * their own.  Across banks, column spacing is the channel's data-bus
 * slot (tBURST); the write-to-read turnaround within a rank is not
 * modelled.
 */

#ifndef CATSIM_DRAM_TIMING_HPP
#define CATSIM_DRAM_TIMING_HPP

#include <cstdint>

#include "common/types.hpp"

namespace catsim
{

/** DDR3 timing parameter set (bus cycles unless noted). */
struct DramTiming
{
    double tCkNs = 1.25;        //!< bus clock period, ns

    std::uint32_t tRCD = 11;    //!< ACT -> column command
    std::uint32_t tRP = 11;     //!< PRE -> ACT
    std::uint32_t tCAS = 11;    //!< column read -> first data
    std::uint32_t tRC = 39;     //!< ACT -> ACT, same bank (ACT->PRE 28 + tRP)
    std::uint32_t tBURST = 4;   //!< data burst length on the bus
    std::uint32_t tWR = 12;     //!< write recovery
    std::uint32_t tRRD = 5;     //!< ACT -> ACT, different banks
    std::uint32_t tFAW = 24;    //!< four-activate window
    std::uint32_t tRFC = 128;   //!< auto-refresh command occupancy
    std::uint32_t tREFI = 6240; //!< refresh command interval (7.8 us)

    /** Bus cycles in one 64 ms retention/auto-refresh interval. */
    Cycle
    refreshIntervalCycles() const
    {
        return static_cast<Cycle>(64e6 / tCkNs); // 64 ms / 1.25 ns
    }

    /** Bank-busy cycles for refreshing @p rows victim rows (tRC each). */
    Cycle
    victimRefreshCycles(std::uint64_t rows) const
    {
        return static_cast<Cycle>(rows) * tRC;
    }

    /** Convert bus cycles to nanoseconds. */
    double
    cyclesToNs(Cycle c) const
    {
        return static_cast<double>(c) * tCkNs;
    }
};

} // namespace catsim

#endif // CATSIM_DRAM_TIMING_HPP
