/**
 * @file
 * The PRCAT/DRCAT scheme: one counter-pool group's CAT trees behind a
 * structure-of-arrays mirror of their hot tables.
 *
 * A TreeBundle is exactly one counter-pool group.  A private-pool bank
 * (the paper's configuration) is a group of one: a one-lane bundle.
 * A rank-pooled group of k banks sharing one SharedCounterPool is one
 * k-lane bundle, because the lanes' cached thresholds must be kept
 * in step across pool events and only the bundle sees them all.
 * Stepping a bank one virtual call at a time leaves most of the win
 * of the flattened tree on the table: every access is a function
 * call, an AccessResult, and a pointer chase into the tree's own heap
 * blocks.  The bundle packs the hot tables of its lanes - jump table,
 * quad table, counter values, and two per-counter precomputes - into
 * ONE aligned block, lane-major (lane 0's tables, then lane 1's, each
 * padded to a cache line), and runs a batch through a branchless
 * lane-local descent.
 *
 * Fast path.  For the overwhelming majority of activations the tree
 * does nothing but `++count`: the access is a pure increment whenever
 * `count < thr`, where thr is the threshold `CatTree::access` would
 * apply (the depth's split threshold when the leaf is splittable, the
 * refresh threshold T otherwise).  The bundle therefore mirrors, per
 * lane and per counter, the *effective threshold* `thr[c]` and the
 * access's SRAM charge `sram[c] = depth - presplitDepth + 2 (+1
 * pooled)`, both straight-line recomputable from the lane tree.  The
 * descent is the same jump+quad walk as CatTree::leafSlotFor, run on
 * the arena copies; when `counts[c] < thr[c]` the whole access is a
 * table walk plus one increment, with no call, no branch on pool
 * state, and no AccessResult.
 *
 * Slow path and bit-identity.  When the fast-path test fails, the
 * authoritative per-lane CatTree takes over: the arena's counts are
 * written back into the tree, `CatTree::access` performs the real
 * split/refresh/reconfigure (including SharedCounterPool charging and
 * DRCAT weights), and the lane's mirror is rebuilt from the tree.
 * Because `thr[c]` is maintained conservatively - it never exceeds
 * the threshold the tree itself would apply - a fast-path increment
 * happens exactly when the tree would have incremented, so every lane
 * is bit-identical to a bare CatTree (and, transitively, to the
 * frozen ReferenceCatTree) for every stream; tests/test_tree_bundle
 * proves it differentially.  Conservative maintenance means: after
 * any structural event (split, merge, epoch reset) the affected
 * lane's mirror is rebuilt, and for pooled bundles the *threshold*
 * tables of every lane are refreshed, since one lane's growth changes
 * its siblings' splittability.  A stale-but-lower threshold is always
 * safe: it only sends an access down the slow path, where the tree
 * applies the true rule.
 *
 * The index math uses the shared bit-trick helpers (common/bit.hpp,
 * after SNIPPETS.md's poplibs Algorithm.hpp and the table-driven
 * integer-log idiom).
 */

#ifndef CATSIM_CORE_TREE_BUNDLE_HPP
#define CATSIM_CORE_TREE_BUNDLE_HPP

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/cat_tree.hpp"
#include "core/mitigation.hpp"
#include "core/shared_pool.hpp"

namespace catsim
{

/**
 * Canonical CatTree::Params for a per-bank CAT tree: the paper's
 * Section IV-D split schedule when @p split_thresholds is empty, and
 * the rank-pool reshaping (capacity-wide numCounters, per-bank
 * presplitCounters) when @p pool is attached.  Every bundle lane is
 * built through this one function, and differential tests build their
 * bare and reference trees through it too.
 */
CatTree::Params makeCatTreeParams(
    RowAddr num_rows, std::uint32_t num_counters,
    std::uint32_t max_levels, std::uint32_t threshold,
    bool enable_weights, std::vector<std::uint32_t> split_thresholds,
    SharedCounterPool *pool);

/** One counter-pool group's CAT trees, mirrored in one SoA arena. */
class TreeBundle
{
  public:
    /**
     * Build @p lanes identical trees from the canonical CAT
     * parameters (see makeCatTreeParams).  Without @p pool the bundle
     * is one private bank (@p lanes must be 1); with it, @p pool is
     * the group's shared counter budget and every lane draws growth
     * from it.  The bundle keeps the pool alive.
     */
    TreeBundle(RowAddr num_rows, std::uint32_t num_counters,
               std::uint32_t max_levels, std::uint32_t threshold,
               bool enable_weights,
               std::vector<std::uint32_t> split_thresholds,
               std::shared_ptr<SharedCounterPool> pool = nullptr,
               std::uint32_t lanes = 1);

    ~TreeBundle();

    TreeBundle(const TreeBundle &) = delete;
    TreeBundle &operator=(const TreeBundle &) = delete;

    std::uint32_t lanes() const
    {
        return static_cast<std::uint32_t>(trees_.size());
    }

    /**
     * One activation on one lane, with the per-activation
     * RefreshAction a feedback-coupled caller needs.
     */
    RefreshAction onActivate(std::uint32_t lane, RowAddr row);

    /**
     * A contiguous chunk on one lane (no epoch markers); identical to
     * one onActivate per row.  A private bundle runs the chunk through
     * the grouped branchless descent kernel (SIMD where the host
     * supports it).  A pooled lane is a plain onActivate loop: lanes
     * couple through pool arbitration on the slow path, so the caller's
     * interleaving across lanes is part of the semantics.
     */
    void onActivateBatch(std::uint32_t lane, const RowAddr *rows,
                         std::size_t count);

    /**
     * Epoch boundary for one lane: full reset for PRCAT (no weights),
     * counts-only for DRCAT (weights enabled), paper Section V.
     */
    void onEpoch(std::uint32_t lane);

    /** Per-lane accumulated stats (what BundledCatScheme reports). */
    const SchemeStats &laneStats(std::uint32_t lane) const
    {
        return stats_[lane];
    }

    /**
     * The authoritative tree behind @p lane, with its counter values
     * synced from the arena - probe-accurate for tests and reports.
     */
    const CatTree &tree(std::uint32_t lane) const;

    /** The group's shared counter budget; null for private pools. */
    const SharedCounterPool *sharedPool() const { return pool_.get(); }

    /** Scheme label for one lane, e.g. "DRCAT_64_rank8". */
    std::string laneName(std::uint32_t lane) const;

    /**
     * Which batch kernel this host runs: 2 = AVX-512 fused
     * descent+resolve, 1 = AVX2 gather descent, 0 = portable scalar.
     * Probed once; the kernel dispatch switches on this value, so the
     * tier a report prints is the kernel that ran (all tiers are
     * bit-identical).  The perf gate keys its floors on it.
     */
    static int simdTier();

  private:
    /** Resolved arena offsets; lane l's table t starts at
     *  arena_[l * laneStride_ + <table offset>]. */
    std::uint32_t *laneBase(std::uint32_t lane)
    {
        return arena_.get() + std::size_t{lane} * laneStride_;
    }
    const std::uint32_t *laneBase(std::uint32_t lane) const
    {
        return arena_.get() + std::size_t{lane} * laneStride_;
    }

    /** Push the arena's counter values into the lane's tree (the tree
     *  lags behind between slow-path events). */
    void syncTreeCounts(std::uint32_t lane) const;
    /** Rebuild the lane's whole mirror from its tree (structure,
     *  counts, thresholds, SRAM charges). */
    void rebuildLane(std::uint32_t lane);
    /** Refresh only the effective-threshold table (cheap; used for
     *  sibling lanes when a pool event changes splittability). */
    void refreshThresholds(std::uint32_t lane);
    /** Copy the tree's counts back into the arena (slow-path exit). */
    void pullCounts(std::uint32_t lane);

    /** Slow path: delegate one access to the authoritative tree and
     *  re-sync the mirror(s). */
    CatTree::AccessResult slowAccess(std::uint32_t lane, RowAddr row);

    // Kept alive for the trees; destroyed after them (member order).
    std::shared_ptr<SharedCounterPool> pool_;
    std::vector<std::unique_ptr<CatTree>> trees_;
    std::vector<SchemeStats> stats_;

    // One contiguous allocation; per-lane layout (all uint32 words):
    //   [0,        M)        counts
    //   [M,       2M)        effective thresholds
    //   [2M,      3M)        per-access SRAM charges
    //   [3M,      3M + J)    jump table (J = 2^presplitDepth)
    //   [3M + J,  3M+J+4M+2) quad table (4(M-1) live entries plus a
    //                        zero pad: the branchless fixed-step
    //                        descent keeps issuing quad loads after a
    //                        row has already landed on a leaf, and a
    //                        leaf code indexes up to 4M+1)
    // padded to a 64-byte boundary, lane after lane.
    std::unique_ptr<std::uint32_t[]> arena_;
    std::size_t laneStride_ = 0;
    std::uint32_t numCounters_ = 0; //!< M (pool capacity when pooled)
    std::uint32_t jumpEntries_ = 0; //!< J
    std::uint32_t jumpShift_ = 0;
    /** Quad steps that take any jump-table entry to its deepest
     *  possible leaf - the fixed trip count of the branchless
     *  grouped descent. */
    std::uint32_t descentSteps_ = 0;
    std::uint32_t offThr_ = 0;      //!< lane-relative table offsets
    std::uint32_t offSram_ = 0;
    std::uint32_t offJump_ = 0;
    std::uint32_t offQuad_ = 0;
};

/**
 * The PRCAT/DRCAT scheme: one lane of a TreeBundle behind the
 * MitigationScheme interface (name, stats, onActivate feedback,
 * epoch rule).  makeScheme and makeBankSchemes build one bundle per
 * counter-pool group and hand out one of these per bank.
 */
class BundledCatScheme : public MitigationScheme
{
  public:
    BundledCatScheme(std::shared_ptr<TreeBundle> bundle,
                     std::uint32_t lane, RowAddr num_rows)
        : MitigationScheme(num_rows),
          bundle_(std::move(bundle)),
          lane_(lane)
    {
    }

    RefreshAction
    onActivate(RowAddr row) override
    {
        return bundle_->onActivate(lane_, row);
    }

    void
    onActivateBatch(const RowAddr *rows, std::size_t count) override
    {
        bundle_->onActivateBatch(lane_, rows, count);
    }

    void onEpoch() override { bundle_->onEpoch(lane_); }

    std::string name() const override
    {
        return bundle_->laneName(lane_);
    }

    const SchemeStats &stats() const override
    {
        return bundle_->laneStats(lane_);
    }

    /** The lane's authoritative tree, counts synced (for probes). */
    const CatTree &tree() const { return bundle_->tree(lane_); }

    const SharedCounterPool *sharedPool() const
    {
        return bundle_->sharedPool();
    }

    /** The bundle (counter-pool group) this scheme is one lane of. */
    TreeBundle &bundle() const { return *bundle_; }
    /** This scheme's lane within bundle(). */
    std::uint32_t lane() const { return lane_; }

  private:
    std::shared_ptr<TreeBundle> bundle_;
    std::uint32_t lane_;
};

} // namespace catsim

#endif // CATSIM_CORE_TREE_BUNDLE_HPP
