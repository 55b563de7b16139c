#include "tree_bundle.hpp"

#include "core/split_thresholds.hpp"

namespace catsim
{

CatTree::Params
makeCatTreeParams(RowAddr num_rows, std::uint32_t num_counters,
                  std::uint32_t max_levels, std::uint32_t threshold,
                  bool enable_weights,
                  std::vector<std::uint32_t> split_thresholds,
                  SharedCounterPool *pool)
{
    CatTree::Params p;
    p.numRows = num_rows;
    p.numCounters = num_counters;
    p.maxLevels = max_levels;
    p.refreshThreshold = threshold;
    p.splitThresholds = split_thresholds.empty()
        ? computeSplitThresholds(num_counters, max_levels, threshold)
        : std::move(split_thresholds);
    p.enableWeights = enable_weights;
    if (pool != nullptr) {
        // Rank-pooled tree: per-bank shape, pool-wide growth capacity.
        p.numCounters = pool->capacity();
        p.presplitCounters = num_counters;
        p.sharedPool = pool;
    }
    return p;
}

TreeBundle::TreeBundle(RowAddr num_rows, std::uint32_t num_counters,
                       std::uint32_t max_levels, std::uint32_t threshold,
                       bool enable_weights,
                       std::vector<std::uint32_t> split_thresholds,
                       std::shared_ptr<SharedCounterPool> pool)
    : MitigationScheme(num_rows),
      pool_(std::move(pool)),
      tree_(makeCatTreeParams(num_rows, num_counters, max_levels,
                              threshold, enable_weights,
                              std::move(split_thresholds), pool_.get()))
{
}

int
TreeBundle::simdTier()
{
    static const int tier = [] {
#if defined(__GNUC__) && defined(__x86_64__)
        // A caller may ask from a static initializer, where GCC wants
        // the CPU probe initialised explicitly.
        __builtin_cpu_init();
        if (__builtin_cpu_supports("avx512f") &&
            __builtin_cpu_supports("avx512cd") &&
            __builtin_cpu_supports("avx512vpopcntdq"))
            return 2;
#endif
        return 0;
    }();
    return tier;
}

RefreshAction
TreeBundle::slowActivate(RowAddr row)
{
    const auto r = tree_.access(row);
    stats_.sramAccesses += r.sramAccesses;
    stats_.splits += r.didSplit;
    stats_.merges += r.didReconfigure;
    if (!r.refreshed)
        return {};
    ++stats_.refreshEvents;
    stats_.victimRowsRefreshed += r.rowsRefreshed;
    return {r.rowsRefreshed, r.lo, r.hi};
}

void
TreeBundle::onActivateBatch(const RowAddr *rows, std::size_t count)
{
    Count sram = 0;
    std::size_t k = 0;
    while (k < count) {
        // The fast path, until a row needs the slow one.  The tables
        // are re-read after every slow event (which may reshape the
        // tree), so nothing stays live across the call below.
        const std::uint32_t *const leaf = tree_.leaf_.data();
        std::uint32_t *const counts = tree_.counts_.data();
        const std::uint32_t *const thr = tree_.thr_.data();
        const std::uint32_t *const depth = tree_.counterDepth_.data();
        const std::uint32_t shift = tree_.leafShift_;
        const std::uint32_t bias = tree_.sramChargeBias();
        const RowAddr numRows = numRows_;
        for (; k < count; ++k) {
            const RowAddr row = rows[k];
            if (row >= numRows)
                break;
            const std::uint32_t c = leaf[row >> shift];
            if (counts[c] >= thr[c])
                break;
            ++counts[c];
            sram += static_cast<std::uint32_t>(depth[c] + bias);
        }
        if (k == count)
            break;
        // CatTree::access panics on a row out of range.
        slowActivate(rows[k++]);
    }
    stats_.activations += count;
    stats_.sramAccesses += sram;
}

void
TreeBundle::onEpoch()
{
    if (tree_.params_.enableWeights) {
        // DRCAT: retention refresh clears disturbance, so the counts
        // restart, but the learned shape and weights survive - that
        // is the point of DRCAT (Section V-B).
        tree_.resetCountsOnly();
    } else {
        // PRCAT: rebuild the balanced pre-split tree (Section V-A).
        tree_.reset();
    }
    ++stats_.epochResets;
}

} // namespace catsim
