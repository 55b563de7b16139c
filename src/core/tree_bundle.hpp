/**
 * @file
 * The PRCAT/DRCAT scheme: one bank's CAT tree behind the
 * MitigationScheme interface, with a batch kernel that runs on the
 * tree's own tables.
 *
 * A TreeBundle is one bank: one CatTree (the only copy of the bank's
 * CAT state), an optional SharedCounterPool it shares with the other
 * banks of its rank, and the kernel.
 *
 * Fast path.  Almost every activation is a pure `++count`, exactly
 * when `counts_[c] < thr_[c]` for the tree's maintained fast-path
 * threshold (cat_tree.hpp).  onActivate runs that test inline - the
 * jump+quad walk of CatTree::leafSlotFor, one compare, one increment
 * and the SRAM charge computed from the leaf's depth - and only a
 * failed test calls CatTree::access, which applies the real
 * split/refresh/reconfigure rule (live pool arbitration and DRCAT
 * weights included).
 *
 * Batch kernel.  onActivateBatch descends groups of 16 rows as
 * branchless fixed-step chains over the frozen topology (scalar, AVX2
 * gathers, or AVX-512 with a fused conflict-detection commit), then
 * resolves them in stream order; the first row whose test fails goes
 * to CatTree::access and the group restarts after it, since a slow
 * event may reshape the tree.  `thr_` never exceeds the threshold the
 * tree itself would apply, so a batch is bit-identical to one
 * onActivate per row and to a bare CatTree for every stream, at every
 * tier; tests/test_tree_bundle proves it differentially.  Pooled banks
 * run the same kernel: within one bank's chunk only that bank's own
 * slow events touch the pool, and `thr_` ignores the pool.
 */

#ifndef CATSIM_CORE_TREE_BUNDLE_HPP
#define CATSIM_CORE_TREE_BUNDLE_HPP

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "core/cat_tree.hpp"
#include "core/mitigation.hpp"
#include "core/shared_pool.hpp"

namespace catsim
{

/**
 * Canonical CatTree::Params for a per-bank CAT tree: the paper's
 * Section IV-D split schedule when @p split_thresholds is empty, and
 * the rank-pool reshaping (capacity-wide numCounters, per-bank
 * presplitCounters) when @p pool is attached.  Every bundle's tree is
 * built through this one function, and differential tests build their
 * bare and reference trees through it too.
 */
CatTree::Params makeCatTreeParams(
    RowAddr num_rows, std::uint32_t num_counters,
    std::uint32_t max_levels, std::uint32_t threshold,
    bool enable_weights, std::vector<std::uint32_t> split_thresholds,
    SharedCounterPool *pool);

/** The PRCAT/DRCAT scheme for one bank. */
class TreeBundle : public MitigationScheme
{
  public:
    /**
     * Build the bank's tree from the canonical CAT parameters (see
     * makeCatTreeParams).  With @p pool the tree draws its growth from
     * that rank-shared budget, which the bundle keeps alive.
     */
    TreeBundle(RowAddr num_rows, std::uint32_t num_counters,
               std::uint32_t max_levels, std::uint32_t threshold,
               bool enable_weights,
               std::vector<std::uint32_t> split_thresholds,
               std::shared_ptr<SharedCounterPool> pool = nullptr);

    RefreshAction
    onActivate(RowAddr row) override
    {
        ++stats_.activations;
        if (row >= numRows_)
            CATSIM_PANIC("row ", row, " out of range");
        const std::uint32_t c =
            CatTree::slotNode(tree_.leafSlotFor(row));
        if (tree_.counts_[c] < tree_.thr_[c]) {
            ++tree_.counts_[c];
            stats_.sramAccesses += tree_.sramCharge(c);
            return {};
        }
        return slowActivate(row);
    }

    /** A contiguous chunk (no epoch markers) through the batch kernel
     *  of this host's simdTier(); identical to one onActivate per row. */
    void
    onActivateBatch(const RowAddr *rows, std::size_t count) override
    {
        onActivateBatch(rows, count, simdTier());
    }

    /**
     * The same chunk through the kernel of @p tier (see simdTier),
     * clamped to what this host supports; every tier is bit-identical,
     * so tests and the micro-bench use this to reach each rung.
     */
    void onActivateBatch(const RowAddr *rows, std::size_t count,
                         int tier);

    /**
     * Epoch boundary: full reset for PRCAT (no weights), counts-only
     * for DRCAT (weights enabled), paper Section V.
     */
    void onEpoch() override;

    /** e.g. "DRCAT_64", or "PRCAT_64_rank8" on a rank-shared pool. */
    std::string name() const override;

    /** The bank's tree, for probes and reports. */
    const CatTree &tree() const { return tree_; }

    /** The rank-shared counter budget; null for a private bank. */
    const SharedCounterPool *sharedPool() const { return pool_.get(); }

    /**
     * The best batch kernel this host runs: 2 = AVX-512 fused
     * descent+resolve, 1 = AVX2 gather descent, 0 = portable scalar.
     * Probed once; onActivateBatch switches on this value, so the tier
     * a report prints is the kernel that ran (all tiers are
     * bit-identical).  The perf gate keys its floors on it.
     */
    static int simdTier();

  private:
    /** Out-of-line slow path: CatTree::access plus the stats it
     *  implies. */
    RefreshAction slowActivate(RowAddr row);

    // Kept alive for the tree, which releases into it on destruction
    // (member order).
    std::shared_ptr<SharedCounterPool> pool_;
    CatTree tree_;
    /** Quad steps that take any jump-table entry to its deepest
     *  possible leaf - the fixed trip count of the branchless
     *  grouped descent. */
    std::uint32_t descentSteps_;
};

} // namespace catsim

#endif // CATSIM_CORE_TREE_BUNDLE_HPP
