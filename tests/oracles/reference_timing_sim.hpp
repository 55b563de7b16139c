/**
 * @file
 * Frozen historical timing simulator.
 *
 * Both timing front ends as they stood before the request path was
 * rebuilt around fixed rings and inline DRAM issue, kept as the
 * differential oracle for sim/timing_sim.cpp, exactly as
 * ReferenceCatTree freezes the recursive tree for the flattened
 * CatTree:
 *
 *  - referenceRunTiming: the historical runTiming scan loop (linear
 *    scan for the earliest core, inline epoch bookkeeping);
 *  - referenceRunTimingOnSources: the stimulus loop (one ACT per live
 *    bank per tRC round, in flat bank order).
 *
 * Both run on file-local frozen copies of the layers below the loops:
 * the core's vector MLP window (prefix erase, sorted insert), the
 * controller's vector posted-write queue, and the DramSystem / Bank /
 * Rank issue logic with its per-bank and per-rank timing pointers.
 * They share with production only what the rebuild left alone: the
 * trace generators and stimulus sources, the address mapper and the
 * mitigation schemes.  Do not optimize or refactor it;
 * tests/test_timing_diff.cpp asserts the production front ends
 * reproduce it bit for bit.  It lives in the `catsim_oracles` target,
 * outside `libcatsim`.
 */

#ifndef CATSIM_SIM_REFERENCE_TIMING_SIM_HPP
#define CATSIM_SIM_REFERENCE_TIMING_SIM_HPP

#include <memory>
#include <vector>

#include "sim/activation_source.hpp"
#include "sim/timing_sim.hpp"

namespace catsim
{

/** Historical scan-loop implementation of runTiming (frozen). */
TimingResult referenceRunTiming(const TimingConfig &config,
                                const StreamFactory &make_stream);

/** Historical stimulus-loop implementation of runTimingOnSources. */
TimingResult referenceRunTimingOnSources(
    const TimingConfig &config,
    const std::vector<std::unique_ptr<ActivationSource>> &sources);

} // namespace catsim

#endif // CATSIM_SIM_REFERENCE_TIMING_SIM_HPP
