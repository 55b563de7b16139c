/**
 * @file
 * Fleet-scale sharded simulation.
 *
 * A ShardPlan carves a topology's flat bank space into contiguous
 * per-shard ranges; ShardedSim runs one independent replay per shard
 * and merges the results.  Each shard builds its OWN schemes and
 * sources inside its worker job.  Shards share no mutable state; the
 * only cross-shard traffic is the result merge on the caller's thread.
 *
 * Determinism: a shard over banks [first, first+n) builds exactly the
 * per-bank schemes the whole-topology run would (global-bank seed
 * derivation and pool grouping via makeBankSchemes' first_bank), shard
 * boundaries are aligned to counter-pool groups so no pool is ever
 * split, and SchemeStats merge by integer summation (order-free).  So
 * the merged FleetResult is bit-identical at ANY shard count and ANY
 * CATSIM_JOBS - the scaling knobs move work between cores, never
 * results.  Epoch counts are taken from the shard owning global bank
 * 0, matching the unsharded replay's bank-0 rule.
 *
 * Fleet runs go through the same JournaledRunner as sweeps
 * (sim/checkpoint.hpp), one cell per shard: with CATSIM_CHECKPOINT=dir
 * a SIGKILLed run resumes with finished shards decoded from disk and
 * only the rest re-run, byte-identically.  With
 * CATSIM_SWEEP_KEEP_GOING=1 a failing shard is retried once and then
 * reported as a CellError whose index is the shard, while the rest of
 * the fleet completes (the `shard_task` fail point injects such
 * failures deterministically).
 */

#ifndef CATSIM_SIM_SHARD_HPP
#define CATSIM_SIM_SHARD_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "core/factory.hpp"
#include "sim/activation_sim.hpp"
#include "sim/activation_source.hpp"
#include "sim/checkpoint.hpp"

namespace catsim
{

/** Shard count from CATSIM_SHARDS (>= 1); 1 when unset/unparsable. */
std::uint32_t defaultShards();

/** One shard's contiguous slice of the flat bank space. */
struct ShardRange
{
    std::uint32_t firstBank = 0;
    std::uint32_t numBanks = 0;
};

/**
 * Partition of num_banks flat banks into contiguous shard ranges,
 * balanced to within one pool group.  Boundaries always align to
 * banks_per_pool groups, so a SharedCounterPool never straddles
 * shards; the shard count is clamped to the number of groups.
 */
class ShardPlan
{
  public:
    static ShardPlan make(std::uint32_t num_banks,
                          std::uint32_t num_shards,
                          std::uint32_t banks_per_pool = 1);

    const std::vector<ShardRange> &shards() const { return shards_; }
    std::uint32_t numShards() const
    {
        return static_cast<std::uint32_t>(shards_.size());
    }
    std::uint32_t numBanks() const { return numBanks_; }

    /** Canonical "banks=B/shards=S" string (journal keys, logs). */
    std::string spec() const;

  private:
    std::vector<ShardRange> shards_;
    std::uint32_t numBanks_ = 0;
};

/** Merged fleet replay outcome. */
struct FleetResult
{
    ReplayResult total;                  //!< summed over live shards
    std::vector<ReplayResult> perShard;  //!< indexed by shard
    std::vector<CellError> errors;       //!< keep-going failures, by shard
    std::size_t resumedShards = 0;       //!< decoded from the journal
};

/**
 * Runs a sharded replay: one parallelFor cell per shard, handed out
 * dynamically so uneven shards (attacked banks run hot) keep every
 * worker busy, merged into one FleetResult.
 */
class ShardedSim
{
  public:
    /** Builds bank @p global_bank's source (nullptr = idle bank). */
    using SourceFactory =
        std::function<std::unique_ptr<ActivationSource>(
            std::uint32_t global_bank)>;

    ShardedSim(SchemeConfig scheme, RowAddr rows_per_bank,
               ShardPlan plan, std::size_t jobs = defaultJobs());

    const ShardPlan &plan() const { return plan_; }

    /**
     * Source-driven fleet run: each shard builds its banks' sources
     * via @p make_source and replays them through replaySources with
     * its global first_bank, journaling the shard's ReplayResult under
     * @p tag when CATSIM_CHECKPOINT is set.
     */
    FleetResult run(const SourceFactory &make_source,
                    const std::string &tag);

  private:
    /** The shards as a journaled grid; @p tag names the run. */
    JournaledGrid shardGrid(const std::string &tag, std::uint64_t seq) const;

    SchemeConfig scheme_;
    RowAddr rowsPerBank_;
    ShardPlan plan_;
    JournaledRunner tasks_;
};

} // namespace catsim

#endif // CATSIM_SIM_SHARD_HPP
