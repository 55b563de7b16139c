/**
 * @file
 * Frozen historical timing simulator.
 *
 * This is the historical runTiming loop (linear scan for the earliest
 * core, inline epoch bookkeeping) kept verbatim as the differential
 * oracle for the production scan loops in sim/timing_sim.cpp, exactly
 * as ReferenceCatTree freezes the recursive tree for the flattened
 * CatTree.  Do not optimize or refactor it; tests/test_timing_diff.cpp
 * asserts the production runTiming reproduces it bit for bit.  It
 * lives in the `catsim_oracles` target, outside `libcatsim`.
 */

#ifndef CATSIM_SIM_REFERENCE_TIMING_SIM_HPP
#define CATSIM_SIM_REFERENCE_TIMING_SIM_HPP

#include "sim/timing_sim.hpp"

namespace catsim
{

/** Historical scan-loop implementation of runTiming (frozen). */
TimingResult referenceRunTiming(const TimingConfig &config,
                                const StreamFactory &make_stream);

} // namespace catsim

#endif // CATSIM_SIM_REFERENCE_TIMING_SIM_HPP
