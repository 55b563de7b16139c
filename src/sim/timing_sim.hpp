/**
 * @file
 * Timing simulation front ends: cores -> memory controller -> DRAM,
 * with a mitigation scheme attached to every bank.
 *
 * Two front ends share the controller and one epoch clock, each a
 * plain loop:
 *
 *  - runTiming: trace-driven cores.  The earliest live core steps one
 *    trace record at a time (the lowest core id wins a tie), so
 *    requests reach the controller in arrival order (exact for
 *    closed-page FR-FCFS, which has no row hits to reorder for).
 *    Bit-identical to the frozen reference loop referenceRunTiming
 *    (tests/oracles/reference_timing_sim.hpp), which also freezes the
 *    core window, controller and DRAM layers below it.
 *  - runTimingOnSources: stimulus-driven banks.  Every live DRAM bank
 *    issues one ACT per tRC round from its ActivationSource, in flat
 *    bank order, on one shared clock (the fastest legal ACT cadence);
 *    closed-loop sources observe every RefreshAction mid-flight and
 *    can re-aim, which is what makes ETO under an adaptive attacker
 *    expressible at all.  Bit-identical to the frozen
 *    referenceRunTimingOnSources on the same frozen layers.
 *
 * Both fire every (scaled) 64 ms auto-refresh boundary at or before
 * the next issue time before that issue - a boundary wins a tie - and
 * none after the last core or source ends.  Both can record the
 * per-bank activation streams for later cheap replay (ActivationSim).
 */

#ifndef CATSIM_SIM_TIMING_SIM_HPP
#define CATSIM_SIM_TIMING_SIM_HPP

#include <functional>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "controller/address_mapping.hpp"
#include "controller/memory_controller.hpp"
#include "core/factory.hpp"
#include "dram/dram_system.hpp"
#include "sim/activation_source.hpp"
#include "sim/core_model.hpp"
#include "trace/trace.hpp"

namespace catsim
{

/** Full system configuration for one timing run. */
struct TimingConfig
{
    DramGeometry geometry = DramGeometry::dualCore2Ch();
    DramTiming timing;
    MappingPolicy mapping = MappingPolicy::RowRankBankChanCol;
    CoreParams core;
    std::uint32_t numCores = 2;
    SchemeConfig scheme;              //!< SchemeKind::None = baseline
    bool recordActivations = false;
    /**
     * Epoch length scale (1.0 = the real 64 ms interval).  Scaling the
     * epoch together with the refresh threshold (see the scaled
     * experiments note in ExperimentRunner's file comment,
     * sim/experiment.hpp) keeps the counting dynamics faithful while
     * shortening runs.
     */
    double epochScale = 1.0;
};

/** Per-core trace factory: build core i's stream. */
using StreamFactory =
    std::function<std::unique_ptr<TraceStream>(CoreId core)>;

/** Results of one timing run. */
struct TimingResult
{
    Cycle execCycles = 0;
    double execSeconds = 0.0;
    Count epochs = 0;
    ControllerStats controller;
    SchemeStats scheme;               //!< summed over banks
    Count totalActivations = 0;
    Count victimRowsRefreshed = 0;
    /** Per flat bank: rows activated in order, kEpochMarker at epochs. */
    std::vector<std::vector<RowAddr>> bankStreams;
};

/** Run one closed-loop timing simulation with trace-driven cores. */
TimingResult runTiming(const TimingConfig &config,
                       const StreamFactory &make_stream);

/**
 * Run one timing simulation where every DRAM bank is driven by its
 * own stimulus source (sources[i] is flat bank i's; null = idle bank).
 * Each bank hammers at one ACT per tRC on the shared clock; victim
 * refreshes ordered by the scheme block the bank, so mitigation cost
 * lands in execCycles (read at the DRAM pin, i.e. last completion).
 * A bank drops out in the round its source ends, and the run ends at
 * the later of that last round's clock and the last completion.
 * Closed-loop sources receive onRefreshAction for every activation
 * they issue, including untriggered ones.  The sources' own Epoch
 * chunks are pacing metadata on this path; real boundaries come from
 * the epoch clock.  Sources are stateful - pass fresh ones per run.
 */
TimingResult runTimingOnSources(
    const TimingConfig &config,
    const std::vector<std::unique_ptr<ActivationSource>> &sources);

} // namespace catsim

#endif // CATSIM_SIM_TIMING_SIM_HPP
