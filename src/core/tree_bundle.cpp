#include "tree_bundle.hpp"

#include <algorithm>
#include <type_traits>

#if defined(__GNUC__) && defined(__x86_64__)
#define CATSIM_X86_DESCENT 1
#include <immintrin.h>
#endif

#include "core/split_thresholds.hpp"

namespace catsim
{

namespace
{

/** Rows descended per branchless group by the batch kernel: enough
 *  parallel load chains to hide L1 latency, small enough that `cur`
 *  stays in registers. */
constexpr std::size_t kDescentGroup = 16;

/** The tree tables one batch reads - CatTree's own vectors, which
 *  CatTree::access never resizes, so the pointers stay valid across
 *  the batch's slow events - plus the walk geometry. */
struct TreeView
{
    std::uint32_t *counts;
    const std::uint32_t *thr;
    const std::uint32_t *depth;
    const std::uint32_t *jump;
    const std::uint32_t *quad;
    /** SRAM charge of leaf c = depth[c] + chargeBias, mod 2^32
     *  (CatTree::sramCharge). */
    std::uint32_t chargeBias;
    std::uint32_t shift;
    std::uint32_t steps;
    RowAddr numRows;
};

} // namespace

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
    // Deepest leaf reachable below the jump table, in two-level quad
    // steps (the quad table absorbs odd-depth leaves into the same
    // load, hence the round-up).
    const std::uint32_t maxDepth =
        std::min(tree_.params_.maxLevels - 1, tree_.rowBits_);
    const std::uint32_t below = maxDepth > tree_.presplitDepth_
        ? maxDepth - tree_.presplitDepth_
        : 0;
    descentSteps_ = (below + 1) / 2;
}

int
TreeBundle::simdTier()
{
    static const int tier = [] {
#if CATSIM_X86_DESCENT
        // Benchmark registration asks from a static initializer, where
        // GCC wants the CPU probe initialised explicitly.
        __builtin_cpu_init();
        if (__builtin_cpu_supports("avx512f") &&
            __builtin_cpu_supports("avx512cd") &&
            __builtin_cpu_supports("avx512vpopcntdq"))
            return 2;
        if (__builtin_cpu_supports("avx2"))
            return 1;
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

namespace
{

#if CATSIM_X86_DESCENT
#pragma GCC diagnostic push
// GCC's maskless gather intrinsics expand with an uninitialized
// pass-through operand that is fully overwritten; harmless, but it
// trips -Wmaybe-uninitialized at -O3 under -Werror.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

/**
 * AVX2 descent of one full group: the same jump+quad walk as the
 * scalar phase 1, eight rows per vector, with real vpgatherdd gathers
 * for the table loads (the build targets baseline x86-64, so this is
 * compiled as a separate clone and entered only at tier 1 or above).
 * Returns false - leaving @p cur untouched - when any row is out of
 * range, so the scalar path can re-walk the group and panic at the
 * exact offending element.
 */
template <int StepsC>
__attribute__((target("avx2"))) bool
descendGroupAvx2(const TreeView &t, const RowAddr *rows,
                 std::uint32_t *cur)
{
    static_assert(kDescentGroup % 8 == 0, "AVX2 path walks 8-row vectors");
    const std::uint32_t nSteps =
        StepsC >= 0 ? static_cast<std::uint32_t>(StepsC) : t.steps;
    const std::uint32_t shift = t.shift;
    const __m256i one = _mm256_set1_epi32(1);
    // Range check up front (the gather would read junk indices).
    __m256i maxRow = _mm256_setzero_si256();
    for (std::size_t half = 0; half < kDescentGroup / 8; ++half)
        maxRow = _mm256_max_epu32(
            maxRow, _mm256_loadu_si256(reinterpret_cast<const __m256i *>(
                        rows + 8 * half)));
    maxRow = _mm256_max_epu32(maxRow,
                              _mm256_srli_si256(maxRow, 8));
    maxRow = _mm256_max_epu32(maxRow,
                              _mm256_srli_si256(maxRow, 4));
    const std::uint32_t hi = static_cast<std::uint32_t>(
        std::max(_mm256_extract_epi32(maxRow, 0),
                 _mm256_extract_epi32(maxRow, 4)));
    if (hi >= t.numRows)
        return false;
    for (std::size_t half = 0; half < kDescentGroup / 8; ++half) {
        const __m256i row = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(rows + 8 * half));
        __m256i c = _mm256_i32gather_epi32(
            reinterpret_cast<const int *>(t.jump),
            _mm256_srl_epi32(row, _mm_cvtsi32_si128(
                                      static_cast<int>(shift))),
            4);
        for (std::uint32_t s = 0; s < nSteps; ++s) {
            const std::uint32_t bitPos = shift - 1 - 2 * s;
            const __m256i b1 = _mm256_and_si256(
                _mm256_srl_epi32(
                    row, _mm_cvtsi32_si128(
                             static_cast<int>(bitPos & 31u))),
                one);
            const __m256i b2 = _mm256_and_si256(
                _mm256_srl_epi32(
                    row, _mm_cvtsi32_si128(
                             static_cast<int>((bitPos - 1) & 31u))),
                one);
            const __m256i qidx = _mm256_add_epi32(
                _mm256_slli_epi32(c, 1),
                _mm256_add_epi32(_mm256_slli_epi32(b1, 1), b2));
            const __m256i next = _mm256_i32gather_epi32(
                reinterpret_cast<const int *>(t.quad), qidx, 4);
            // Keep the old code where it is already a leaf (odd) -
            // the vector version of the scalar cmov.
            const __m256i isLeaf = _mm256_cmpeq_epi32(
                _mm256_and_si256(c, one), one);
            c = _mm256_blendv_epi8(next, c, isLeaf);
        }
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(cur + 8 * half), c);
    }
    return true;
}

/**
 * AVX-512 processing of one full group: the descent of
 * descendGroupAvx2 at full zmm width, FUSED with the resolve phase.
 * The resolve is the conflict-detection histogram idiom: vpconflictd
 * marks, per lane, the earlier lanes that landed on the same counter,
 * so lane j's post-increment value is v + (earlier duplicates) + 1;
 * when every lane's value stays <= its threshold (the overwhelmingly
 * common case) the whole group commits with ONE scatter (duplicate
 * indices write in lane order, so the last duplicate's v + n wins)
 * and the SRAM charge is a horizontal sum over the gathered leaf
 * depths.  Any lane crossing its threshold aborts before any state is
 * touched and the scalar resolve re-runs the group from scratch -
 * bit-identical, since increments-then-delegate is exactly what the
 * serial loop would do.
 *
 * Returns 2 when the group was fully consumed, 1 when @p cur holds
 * the descended leaf codes for a scalar resolve (some lane crosses
 * its threshold), 0 when a row is out of range (caller re-walks to
 * panic at the exact element).
 */
template <int StepsC>
__attribute__((target("avx512f,avx512cd,avx512vpopcntdq"))) int
processGroupAvx512(const TreeView &t, const RowAddr *rows,
                   std::uint32_t *cur, Count *sramAcc)
{
    static_assert(kDescentGroup == 16,
                  "AVX-512 path processes one zmm of rows");
    const std::uint32_t nSteps =
        StepsC >= 0 ? static_cast<std::uint32_t>(StepsC) : t.steps;
    const std::uint32_t shift = t.shift;
    const __m512i one = _mm512_set1_epi32(1);
    const __m512i row = _mm512_loadu_si512(rows);
    if (_mm512_cmpge_epu32_mask(
            row, _mm512_set1_epi32(static_cast<int>(t.numRows))))
        return 0;
    __m512i c = _mm512_i32gather_epi32(
        _mm512_srl_epi32(row,
                         _mm_cvtsi32_si128(static_cast<int>(shift))),
        reinterpret_cast<const int *>(t.jump), 4);
    for (std::uint32_t s = 0; s < nSteps; ++s) {
        const std::uint32_t bitPos = shift - 1 - 2 * s;
        const __m512i b1 = _mm512_and_si512(
            _mm512_srl_epi32(
                row,
                _mm_cvtsi32_si128(static_cast<int>(bitPos & 31u))),
            one);
        const __m512i b2 = _mm512_and_si512(
            _mm512_srl_epi32(row, _mm_cvtsi32_si128(static_cast<int>(
                                      (bitPos - 1) & 31u))),
            one);
        const __m512i qidx = _mm512_add_epi32(
            _mm512_slli_epi32(c, 1),
            _mm512_add_epi32(_mm512_slli_epi32(b1, 1), b2));
        const __m512i next = _mm512_i32gather_epi32(
            qidx, reinterpret_cast<const int *>(t.quad), 4);
        const __mmask16 leaf = _mm512_test_epi32_mask(c, one);
        c = _mm512_mask_blend_epi32(leaf, next, c);
    }
    const __m512i cidx = _mm512_srli_epi32(c, 1);
    const __m512i v = _mm512_i32gather_epi32(
        cidx, reinterpret_cast<const int *>(t.counts), 4);
    const __m512i thr = _mm512_i32gather_epi32(
        cidx, reinterpret_cast<const int *>(t.thr), 4);
    const __m512i pre =
        _mm512_popcnt_epi32(_mm512_conflict_epi32(cidx));
    const __m512i val =
        _mm512_add_epi32(_mm512_add_epi32(v, pre), one);
    if (_mm512_cmpgt_epu32_mask(val, thr)) {
        _mm512_storeu_si512(cur, c);
        return 1;
    }
    _mm512_i32scatter_epi32(reinterpret_cast<int *>(t.counts), cidx, val,
                            4);
    const __m512i charge = _mm512_add_epi32(
        _mm512_i32gather_epi32(
            cidx, reinterpret_cast<const int *>(t.depth), 4),
        _mm512_set1_epi32(static_cast<int>(t.chargeBias)));
    *sramAcc +=
        static_cast<std::uint32_t>(_mm512_reduce_add_epi32(charge));
    return 2;
}

#pragma GCC diagnostic pop

#endif // CATSIM_X86_DESCENT

/**
 * The batch kernel: the grouped branchless descent over one chunk.
 * @p StepsC bakes the fixed descent trip count in at compile time (the
 * dispatch switch in onActivateBatch instantiates the common depths)
 * so the whole group's walk unrolls with `cur` held in registers;
 * StepsC < 0 falls back to the runtime bound in @p t.  @p tier picks
 * the rung (0..simdTier()); fast-path SRAM charges accumulate into
 * @p sram, and @p slow hands one access to the tree.
 */
template <int StepsC, typename SlowFn>
void
runBatch(const TreeView &t, const RowAddr *batch_rows, std::size_t count,
         int tier, Count &sram, SlowFn &&slow)
{
    const std::uint32_t nSteps =
        StepsC >= 0 ? static_cast<std::uint32_t>(StepsC) : t.steps;
    std::uint32_t *const counts = t.counts;
    const std::uint32_t *const thr = t.thr;
    const std::uint32_t *const depth = t.depth;
    const std::uint32_t *const jump = t.jump;
    const std::uint32_t *const quad = t.quad;
    const std::uint32_t bias = t.chargeBias;
    const std::uint32_t shift = t.shift;
    const RowAddr numRows = t.numRows;

    // Phase 1 of one group: descend it as branchless fixed-step
    // chains.  Consecutive rows walk the same frozen topology, so
    // their descents are independent loads the core overlaps; only
    // the counter compare/increment (phase 2) is order-dependent.
    const auto descend = [&](const RowAddr *rows, std::uint32_t *cur,
                             std::size_t group) {
        for (std::size_t k = 0; k < group; ++k) {
            const RowAddr row = rows[k];
            if (row >= numRows)
                CATSIM_PANIC("row ", row, " out of range");
            cur[k] = jump[row >> shift];
        }
        for (std::uint32_t s = 0; s < nSteps; ++s) {
            const std::uint32_t bitPos = shift - 1 - 2 * s;
            for (std::size_t k = 0; k < group; ++k) {
                const RowAddr row = rows[k];
                const std::uint32_t b1 = (row >> (bitPos & 31u)) & 1u;
                const std::uint32_t b2 =
                    (row >> ((bitPos - 1) & 31u)) & 1u;
                // Loaded unconditionally (the quad pad makes it safe
                // for leaf codes), kept only while still internal: a
                // conditional move, never a mispredictable leaf-depth
                // branch.
                const std::uint32_t next = quad[2 * cur[k] + 2 * b1 + b2];
                cur[k] = (cur[k] & 1u) ? cur[k] : next;
            }
        }
    };

    // Phase 2: resolve in stream order; returns how many of the
    // group's rows were consumed.  A slow event may change the
    // topology, so the rest of the group's descents are stale -
    // restart right after it.
    const auto resolve = [&](const RowAddr *rows, const std::uint32_t *cur,
                             std::size_t group) -> std::size_t {
        for (std::size_t k = 0; k < group; ++k) {
            const std::uint32_t c = cur[k] >> 1;
            if (counts[c] < thr[c]) {
                ++counts[c];
                sram += static_cast<std::uint32_t>(depth[c] + bias);
                continue;
            }
            slow(rows[k]);
            return k + 1;
        }
        return group;
    };

    std::size_t i = 0;
#if CATSIM_X86_DESCENT
    if (tier == 2) {
        while (count - i >= kDescentGroup) {
            const RowAddr *rows = batch_rows + i;
            alignas(64) std::uint32_t cur[kDescentGroup];
            const int st = processGroupAvx512<StepsC>(t, rows, cur, &sram);
            if (st == 2) {
                i += kDescentGroup;
                continue;
            }
            if (st == 0)
                descend(rows, cur, kDescentGroup); // panics
            i += resolve(rows, cur, kDescentGroup);
        }
    } else if (tier == 1) {
        while (count - i >= kDescentGroup) {
            const RowAddr *rows = batch_rows + i;
            alignas(32) std::uint32_t cur[kDescentGroup];
            if (!descendGroupAvx2<StepsC>(t, rows, cur))
                descend(rows, cur, kDescentGroup); // panics
            i += resolve(rows, cur, kDescentGroup);
        }
    }
#else
    (void)tier;
#endif
    // Full groups get the compile-time kDescentGroup trip count (the
    // lambdas inline at each call site, so the loops unroll
    // completely); the tail call keeps the runtime bound.
    while (count - i >= kDescentGroup) {
        const RowAddr *rows = batch_rows + i;
        std::uint32_t cur[kDescentGroup];
        descend(rows, cur, kDescentGroup);
        i += resolve(rows, cur, kDescentGroup);
    }
    while (i < count) {
        const RowAddr *rows = batch_rows + i;
        const std::size_t group = count - i;
        std::uint32_t cur[kDescentGroup];
        descend(rows, cur, group);
        i += resolve(rows, cur, group);
    }
}

} // namespace

void
TreeBundle::onActivateBatch(const RowAddr *rows, std::size_t count,
                            int tier)
{
    const TreeView view{
        tree_.counts_.data(),
        tree_.thr_.data(),
        tree_.counterDepth_.data(),
        tree_.jump_.data(),
        tree_.quad_.data(),
        tree_.sramChargeBias(),
        tree_.jumpShift_,
        descentSteps_,
        numRows_,
    };
    tier = std::clamp(tier, 0, simdTier());
    Count sram = 0;
    const auto slow = [this](RowAddr row) { slowActivate(row); };
    // The switch instantiates the common descent depths so the walk
    // fully unrolls (see runBatch).
    const auto run = [&](auto steps_c) {
        runBatch<decltype(steps_c)::value>(view, rows, count, tier, sram,
                                           slow);
    };
    switch (descentSteps_) {
    case 1:
        run(std::integral_constant<int, 1>{});
        break;
    case 2:
        run(std::integral_constant<int, 2>{});
        break;
    case 3:
        run(std::integral_constant<int, 3>{});
        break;
    case 4:
        run(std::integral_constant<int, 4>{});
        break;
    default:
        run(std::integral_constant<int, -1>{});
        break;
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

std::string
TreeBundle::name() const
{
    const auto &p = tree_.params();
    const std::uint32_t m =
        p.presplitCounters ? p.presplitCounters : p.numCounters;
    std::string n = p.enableWeights ? "DRCAT_" : "PRCAT_";
    n += std::to_string(m);
    if (p.sharedPool != nullptr)
        n += "_rank" + std::to_string(p.numCounters / m);
    return n;
}

} // namespace catsim
