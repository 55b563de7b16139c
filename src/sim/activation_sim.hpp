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

#include <cstddef>
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
 * One bank's replay cursor: its source, the schemes it feeds, and the
 * unplayed rest of the current chunk.  Both replay paths - whole-stream
 * and rank-pooled round robin - step lanes, so there is exactly one
 * loop that hands activations to a scheme.
 *
 * An open-loop source cannot see what a scheme does, so one stimulus
 * pass can feed several schemes: every chunk goes to each of them in
 * list order, and every Epoch chunk resets each of them, so each
 * scheme sees exactly the calls a lane of its own would make.  A
 * closed-loop source reacts to its scheme's RefreshActions and takes
 * exactly one (fatal otherwise).
 */
class ReplayLane
{
  public:
    /** Budget that plays a lane to the end of its stream. */
    static constexpr std::size_t kWholeStream = ~std::size_t{0};

    /** The source and every scheme must outlive the lane; @p schemes
     *  is non-empty, and a single scheme when the source is closed
     *  loop. */
    ReplayLane(ActivationSource &source,
               std::vector<MitigationScheme *> schemes);

    /**
     * Feed up to @p budget activations.  Open-loop rows go through
     * each scheme's onActivateBatch; closed-loop rows go through
     * onActivate one at a time, and the source gets each RefreshAction
     * back.  Epoch chunks reset the schemes and cost no budget.
     * Returns false once the source has reached End (and on every
     * later call).
     */
    bool step(std::size_t budget);

    /** Epoch boundaries played so far. */
    Count epochs() const { return epochs_; }

  private:
    ActivationSource *source_;
    std::vector<MitigationScheme *> schemes_;
    const RowAddr *rows_ = nullptr;
    std::size_t pending_ = 0;
    Count epochs_ = 0;
    bool ended_ = false;
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
 * instances of every config in @p scheme_configs (sources[i] is bank
 * i's stream), one ReplayLane per bank; closed-loop sources thereby
 * observe the defense (see ReplayLane).  Returns one ReplayResult per
 * config, in order, each equal to a replay of that config alone: the
 * configs share one stimulus pass, so open-loop sources are generated
 * once for all of them, while a closed-loop source takes a single
 * config (fatal otherwise).  Null entries are skipped (bank idle).
 * Banks replay one pool group at a time - a single bank when pools
 * are private - and only the current group's schemes are alive.  The
 * banks of a shared counter pool take round-robin turns of a fixed
 * activation quantum, so they contend for the pool roughly in
 * parallel; private banks run to the end of their streams one after
 * the other.  Every config must have the same pool grouping (fatal
 * otherwise), since the grouping decides the turn order.
 */
std::vector<ReplayResult> replaySources(
    const std::vector<std::unique_ptr<ActivationSource>> &sources,
    const std::vector<SchemeConfig> &scheme_configs,
    RowAddr rows_per_bank);

/** replaySources with a single config. */
ReplayResult replaySources(
    const std::vector<std::unique_ptr<ActivationSource>> &sources,
    const SchemeConfig &scheme_config, RowAddr rows_per_bank);

} // namespace catsim

#endif // CATSIM_SIM_ACTIVATION_SIM_HPP
