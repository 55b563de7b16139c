/**
 * @file
 * Activation-replay simulation.
 *
 * Mitigation schemes are a pure function of the per-bank row-activation
 * stream, so once a timing run has recorded those streams (with epoch
 * markers), any number of scheme configurations can be evaluated by
 * cheap replay - no DRAM timing involved.  This is what makes the
 * paper's large sweeps (Fig 10: counters x levels x thresholds x 18
 * workloads) tractable.
 */

#ifndef CATSIM_SIM_ACTIVATION_SIM_HPP
#define CATSIM_SIM_ACTIVATION_SIM_HPP

#include <memory>
#include <vector>

#include "common/types.hpp"
#include "core/factory.hpp"
#include "core/mitigation.hpp"
#include "sim/activation_source.hpp"
#include "sim/timing_sim.hpp"

namespace catsim
{

/** Replay results. */
struct ReplayResult
{
    SchemeStats stats;          //!< summed over banks
    Count banks = 0;
    Count epochs = 0;

    bool
    operator==(const ReplayResult &o) const
    {
        return stats == o.stats && banks == o.banks && epochs == o.epochs;
    }

    /** Per-bank average of a stat (for per-bank CMRPO). */
    double
    perBank(Count v) const
    {
        return banks ? static_cast<double>(v) / static_cast<double>(banks)
                     : 0.0;
    }
};

/**
 * Replay recorded bank streams (rows + kEpochMarker sentinels) through
 * fresh per-bank instances of the given scheme.
 */
ReplayResult replayActivations(
    const std::vector<std::vector<RowAddr>> &bank_streams,
    const SchemeConfig &scheme_config, RowAddr rows_per_bank);

/**
 * Drive one ActivationSource per bank through fresh per-bank scheme
 * instances (sources[i] is bank i's stream).  Open-loop sources go
 * through the onActivateBatch fast path; closed-loop sources are
 * stepped one activation at a time and receive the scheme's
 * RefreshAction after each - this is how adaptive attackers observe
 * the defense.  Null entries are skipped (bank idle).
 *
 * @param first_bank Global flat-bank index of sources[0].  A shard
 *     replaying banks [first_bank, first_bank + n) produces exactly
 *     the per-bank schemes (seeds, pool groups) the whole-topology
 *     call would, so sharded results merge bit-identically; must be
 *     pool-group-aligned when scheme_config.banksPerPool > 1.
 */
ReplayResult replaySources(
    const std::vector<std::unique_ptr<ActivationSource>> &sources,
    const SchemeConfig &scheme_config, RowAddr rows_per_bank,
    std::uint32_t first_bank = 0);

} // namespace catsim

#endif // CATSIM_SIM_ACTIVATION_SIM_HPP
