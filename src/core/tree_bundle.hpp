/**
 * @file
 * The PRCAT/DRCAT scheme: one bank's CAT tree behind the
 * MitigationScheme interface, with a batch loop that runs on the
 * tree's own tables.
 *
 * A TreeBundle is one bank: one CatTree (the only copy of the bank's
 * CAT state), an optional SharedCounterPool it shares with the other
 * banks of its rank, and the batch loop.
 *
 * Fast path.  Almost every activation is a pure `++count`, exactly
 * when `counts_[c] < thr_[c]` for the tree's maintained fast-path
 * threshold (cat_tree.hpp).  onActivate runs that test inline - one
 * leaf-map load for the counter, one compare, one increment and the
 * SRAM charge computed from the leaf's depth - and only a failed test
 * calls CatTree::access, which applies the real
 * split/refresh/reconfigure rule (live pool arbitration and DRCAT
 * weights included).
 *
 * Batch loop.  onActivateBatch is the same test in one loop over the
 * chunk, with the slow path inline: a slow event may reshape the tree,
 * and the next row's lookup simply reads the updated map.  `thr_`
 * never exceeds the threshold the tree itself would apply, so a batch
 * is bit-identical to one onActivate per row and to a bare CatTree for
 * every stream; tests/test_tree_bundle proves it differentially.
 * Pooled banks run the same loop: within one bank's chunk only that
 * bank's own slow events touch the pool, and `thr_` ignores the pool.
 */

#ifndef CATSIM_CORE_TREE_BUNDLE_HPP
#define CATSIM_CORE_TREE_BUNDLE_HPP

#include <cstddef>
#include <memory>
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
        const std::uint32_t c = tree_.leafOf(row);
        if (tree_.counts_[c] < tree_.thr_[c]) {
            ++tree_.counts_[c];
            stats_.sramAccesses += tree_.sramCharge(c);
            return {};
        }
        return slowActivate(row);
    }

    /** A contiguous chunk (no epoch markers) through one scalar loop;
     *  identical to one onActivate per row. */
    void onActivateBatch(const RowAddr *rows, std::size_t count) override;

    /**
     * Epoch boundary: full reset for PRCAT (no weights), counts-only
     * for DRCAT (weights enabled), paper Section V.
     */
    void onEpoch() override;

    /** The bank's tree, for probes and reports. */
    const CatTree &tree() const { return tree_; }

    /** The rank-shared counter budget; null for a private bank. */
    const SharedCounterPool *sharedPool() const { return pool_.get(); }

    /**
     * This host's SIMD class: 2 = AVX-512 (F, CD and VPOPCNTDQ), 0 =
     * anything else.  Probed once.  The batch loop is the same scalar
     * code on every host; reports print this value to name the
     * hardware, and the perf gate keys its ratio floors on it.
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
};

} // namespace catsim

#endif // CATSIM_CORE_TREE_BUNDLE_HPP
