#include "tree_bundle.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>

#if defined(__GNUC__) && defined(__x86_64__)
#define CATSIM_X86_DESCENT 1
#include <immintrin.h>
#endif

#include "common/bit.hpp"
#include "common/logging.hpp"
#include "core/split_thresholds.hpp"

namespace catsim
{

namespace
{

/** Arena lane stride granularity: 16 words = one 64-byte line. */
constexpr std::size_t kLaneAlignWords = 16;

/** Rows descended per branchless group by the private-bundle batch
 *  kernel: enough parallel load chains to hide L1 latency, small
 *  enough that `cur` stays in registers. */
constexpr std::size_t kDescentGroup = 16;

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
                       std::shared_ptr<SharedCounterPool> pool,
                       std::uint32_t lanes)
    : pool_(std::move(pool))
{
    if (lanes == 0 || (pool_ == nullptr && lanes != 1))
        CATSIM_FATAL("a tree bundle is one counter-pool group: a "
                     "private bank is one lane, got ", lanes);
    trees_.reserve(lanes);
    stats_.resize(lanes);
    for (std::uint32_t l = 0; l < lanes; ++l)
        trees_.push_back(std::make_unique<CatTree>(makeCatTreeParams(
            num_rows, num_counters, max_levels, threshold,
            enable_weights, split_thresholds, pool_.get())));

    const CatTree &t0 = *trees_.front();
    numCounters_ = t0.params_.numCounters;
    jumpShift_ = t0.jumpShift_;
    jumpEntries_ = 1u << t0.presplitDepth_;

    const std::uint32_t M = numCounters_;
    offThr_ = M;
    offSram_ = 2 * M;
    offJump_ = 3 * M;
    offQuad_ = 3 * M + jumpEntries_;
    // 4(M-1) live quad entries plus a zero pad: the grouped descent
    // is branchless, so rows that already hold a leaf code (up to
    // 2M-1) keep indexing quad[2*cur + 3] <= 4M+1 for the remaining
    // fixed steps; the pad turns those into harmless in-lane loads.
    const std::size_t laneWords = offQuad_ + 4 * M + 2;
    laneStride_ = (laneWords + kLaneAlignWords - 1) / kLaneAlignWords
                  * kLaneAlignWords;
    // Deepest leaf reachable below the jump table, in two-level quad
    // steps (the quad table absorbs odd-depth leaves into the same
    // load, hence the round-up).
    const std::uint32_t maxDepth =
        std::min(t0.params_.maxLevels - 1, t0.rowBits_);
    const std::uint32_t below =
        maxDepth > t0.presplitDepth_ ? maxDepth - t0.presplitDepth_ : 0;
    descentSteps_ = (below + 1) / 2;
    // make_unique<T[]> value-initialises: the quad pad starts zeroed.
    arena_ = std::make_unique<std::uint32_t[]>(laneStride_ * lanes);
    for (std::uint32_t l = 0; l < lanes; ++l)
        rebuildLane(l);
}

TreeBundle::~TreeBundle() = default;

int
TreeBundle::simdTier()
{
    static const int tier = [] {
#if CATSIM_X86_DESCENT
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

void
TreeBundle::rebuildLane(std::uint32_t lane)
{
    const CatTree &t = *trees_[lane];
    std::uint32_t *base = laneBase(lane);
    const std::uint32_t M = numCounters_;
    std::memcpy(base, t.counts_.data(), M * 4);
    std::memcpy(base + offJump_, t.jump_.data(), jumpEntries_ * 4);
    std::memcpy(base + offQuad_, t.quad_.data(), 4 * (M - 1) * 4);
    const std::uint32_t presplit = t.presplitDepth_;
    const std::uint32_t poolExtra = pool_ != nullptr ? 1u : 0u;
    std::uint32_t *sram = base + offSram_;
    for (std::uint32_t c = 0; c < M; ++c)
        sram[c] = t.counterInUse_[c]
            ? (t.counterDepth_[c] - presplit) + 2 + poolExtra
            : 0;
    refreshThresholds(lane);
}

void
TreeBundle::refreshThresholds(std::uint32_t lane)
{
    const CatTree &t = *trees_[lane];
    std::uint32_t *thr = laneBase(lane) + offThr_;
    const std::uint32_t M = numCounters_;
    const std::uint32_t T = t.params_.refreshThreshold;
    // "Can this tree grow right now": the lane's own free lists plus,
    // for a shared budget, a live pool counter.  When false every
    // leaf's effective threshold is T (Algorithm 1 degenerates to
    // refresh-only), which is exactly what CatTree::access computes.
    const bool growable =
        t.canGrow_ && (pool_ == nullptr || pool_->available() != 0);
    for (std::uint32_t c = 0; c < M; ++c) {
        if (!t.counterInUse_[c]) {
            thr[c] = 0;
            continue;
        }
        const std::uint32_t d = t.counterDepth_[c];
        const bool splittable =
            d + 1 < t.params_.maxLevels && d < t.rowBits_ && growable;
        thr[c] = splittable ? t.thresholdAt(d) : T;
    }
}

void
TreeBundle::syncTreeCounts(std::uint32_t lane) const
{
    CatTree &t = *trees_[lane];
    std::memcpy(t.counts_.data(), laneBase(lane), numCounters_ * 4);
}

void
TreeBundle::pullCounts(std::uint32_t lane)
{
    const CatTree &t = *trees_[lane];
    std::memcpy(laneBase(lane), t.counts_.data(), numCounters_ * 4);
}

CatTree::AccessResult
TreeBundle::slowAccess(std::uint32_t lane, RowAddr row)
{
    // The tree's counter array lags behind the arena between slow
    // events; hand the live values over, let the authoritative tree
    // apply the real split/refresh/reconfigure rule, then re-mirror.
    syncTreeCounts(lane);
    const CatTree::AccessResult res = trees_[lane]->access(row);
    if (res.didSplit || res.didReconfigure) {
        rebuildLane(lane);
        if (pool_ != nullptr) {
            // A pool event changes every sibling's splittability, and
            // a *freed* counter must lower their thresholds before
            // their next fast-path test (a stale-high threshold would
            // increment where the tree would split).  Splits only
            // shrink the pool - stale-low, safe - but refreshing both
            // directions here keeps the lanes on the exact rule.
            for (std::uint32_t l = 0; l < lanes(); ++l)
                if (l != lane)
                    refreshThresholds(l);
        }
    } else {
        // Refresh (count reset) or a conservative delegation that
        // ended in a plain increment: counts changed, structure did
        // not.  Re-pull the counts and heal this lane's thresholds in
        // case a sibling's growth made ours stale.
        pullCounts(lane);
        refreshThresholds(lane);
    }
    return res;
}

RefreshAction
TreeBundle::onActivate(std::uint32_t lane, RowAddr row)
{
    SchemeStats &st = stats_[lane];
    ++st.activations;
    if (row >= trees_[lane]->params_.numRows)
        CATSIM_PANIC("row ", row, " out of range");

    std::uint32_t *base = laneBase(lane);
    const std::uint32_t *quad = base + offQuad_;
    std::uint32_t cur = base[offJump_ + (row >> jumpShift_)];
    std::uint32_t bitPos = jumpShift_ - 1;
    while (!(cur & 1u)) {
        const std::uint32_t b1 = (row >> bitPos) & 1u;
        const std::uint32_t b2 = (row >> ((bitPos - 1) & 31u)) & 1u;
        cur = quad[2 * cur + 2 * b1 + b2];
        bitPos -= 2;
    }
    const std::uint32_t c = cur >> 1;
    if (base[c] < base[offThr_ + c]) {
        ++base[c];
        st.sramAccesses += base[offSram_ + c];
        return {};
    }

    const auto r = slowAccess(lane, row);
    st.sramAccesses += r.sramAccesses;
    if (r.didSplit)
        ++st.splits;
    if (r.didReconfigure)
        ++st.merges;
    if (!r.refreshed)
        return {};
    RefreshAction act;
    act.lo = r.lo;
    act.hi = r.hi;
    act.rowCount = r.rowsRefreshed;
    ++st.refreshEvents;
    st.victimRowsRefreshed += act.rowCount;
    return act;
}

namespace
{

/** A batch's stats, folded into SchemeStats once at the end - the
 *  inner loop carries nothing but the walk. */
struct BatchAcc
{
    Count sram = 0;
    Count splits = 0;
    Count merges = 0;
    Count events = 0;
    Count victims = 0;
};

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
 * compiled as a separate clone and entered only when the CPU reports
 * AVX2).  Returns false - leaving @p cur untouched - when any row is
 * out of range, so the scalar path can re-walk the group and panic at
 * the exact offending element.
 */
template <int StepsC>
__attribute__((target("avx2"))) bool
descendGroupAvx2(const std::uint32_t *base, const std::uint32_t *quad,
                 std::uint32_t steps, std::uint32_t shift,
                 std::uint32_t offJump, RowAddr numRows,
                 const RowAddr *rows, std::uint32_t *cur)
{
    static_assert(kDescentGroup % 8 == 0, "AVX2 path walks 8-row vectors");
    const std::uint32_t nSteps =
        StepsC >= 0 ? static_cast<std::uint32_t>(StepsC) : steps;
    const __m256i one = _mm256_set1_epi32(1);
    const auto *jump =
        reinterpret_cast<const int *>(base + offJump);
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
    if (hi >= numRows)
        return false;
    for (std::size_t half = 0; half < kDescentGroup / 8; ++half) {
        const __m256i row = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(rows + 8 * half));
        __m256i c = _mm256_i32gather_epi32(
            jump,
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
                reinterpret_cast<const int *>(quad), qidx, 4);
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
 * and the SRAM charge is a horizontal sum of the gathered per-counter
 * charges.  Any lane crossing its threshold aborts before any state
 * is touched and the scalar resolve re-runs the group from scratch -
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
processGroupAvx512(std::uint32_t *base, const std::uint32_t *quad,
                   std::uint32_t steps, std::uint32_t shift,
                   std::uint32_t offThr, std::uint32_t offSram,
                   std::uint32_t offJump, RowAddr numRows,
                   const RowAddr *rows, std::uint32_t *cur,
                   Count *sramAcc)
{
    static_assert(kDescentGroup == 16,
                  "AVX-512 path processes one zmm of rows");
    const std::uint32_t nSteps =
        StepsC >= 0 ? static_cast<std::uint32_t>(StepsC) : steps;
    const __m512i one = _mm512_set1_epi32(1);
    const __m512i row = _mm512_loadu_si512(rows);
    if (_mm512_cmpge_epu32_mask(
            row, _mm512_set1_epi32(static_cast<int>(numRows))))
        return 0;
    __m512i c = _mm512_i32gather_epi32(
        _mm512_srl_epi32(row,
                         _mm_cvtsi32_si128(static_cast<int>(shift))),
        reinterpret_cast<const int *>(base + offJump), 4);
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
            qidx, reinterpret_cast<const int *>(quad), 4);
        const __mmask16 leaf = _mm512_test_epi32_mask(c, one);
        c = _mm512_mask_blend_epi32(leaf, next, c);
    }
    const __m512i cidx = _mm512_srli_epi32(c, 1);
    const __m512i v = _mm512_i32gather_epi32(
        cidx, reinterpret_cast<const int *>(base), 4);
    const __m512i thr = _mm512_i32gather_epi32(
        cidx, reinterpret_cast<const int *>(base + offThr), 4);
    const __m512i pre =
        _mm512_popcnt_epi32(_mm512_conflict_epi32(cidx));
    const __m512i val =
        _mm512_add_epi32(_mm512_add_epi32(v, pre), one);
    if (_mm512_cmpgt_epu32_mask(val, thr)) {
        _mm512_storeu_si512(cur, c);
        return 1;
    }
    _mm512_i32scatter_epi32(reinterpret_cast<int *>(base), cidx, val,
                            4);
    const __m512i charge = _mm512_i32gather_epi32(
        cidx, reinterpret_cast<const int *>(base + offSram), 4);
    *sramAcc +=
        static_cast<std::uint32_t>(_mm512_reduce_add_epi32(charge));
    return 2;
}

#pragma GCC diagnostic pop

#endif // CATSIM_X86_DESCENT

/**
 * The private-bundle batch kernel: the grouped branchless descent over
 * one lane's chunk.  @p StepsC bakes the fixed descent trip count in
 * at compile time (the dispatch switch in onActivateBatch instantiates
 * the common depths) so the whole group's walk unrolls with `cur` held
 * in registers; StepsC < 0 falls back to the runtime @p steps bound.
 * @p tier is TreeBundle::simdTier(); @p slow delegates one access to
 * the authoritative tree.
 */
template <int StepsC, typename SlowFn>
void
runLane(std::uint32_t *base, const RowAddr *lane_rows, std::size_t count,
        RowAddr numRows, std::uint32_t steps, std::uint32_t shift,
        std::uint32_t offThr, std::uint32_t offSram,
        std::uint32_t offJump, std::uint32_t offQuad, int tier,
        BatchAcc &a, SlowFn &&slow)
{
    const std::uint32_t nSteps =
        StepsC >= 0 ? static_cast<std::uint32_t>(StepsC) : steps;
    const std::uint32_t *quad = base + offQuad;

    // Phase 1 of one group: descend it as branchless fixed-step
    // chains.  Consecutive rows of one lane walk the same frozen
    // topology, so their descents are independent loads the core
    // overlaps; only the counter compare/increment (phase 2) is
    // order-dependent.
    const auto descend = [&](const RowAddr *rows, std::uint32_t *cur,
                             std::size_t group) {
        for (std::size_t k = 0; k < group; ++k) {
            const RowAddr row = rows[k];
            if (row >= numRows)
                CATSIM_PANIC("row ", row, " out of range");
            cur[k] = base[offJump + (row >> shift)];
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
    // group's rows were consumed.  A slow event may change the lane's
    // topology, so the rest of the group's descents are stale -
    // restart right after it.
    const auto resolve = [&](const RowAddr *rows, const std::uint32_t *cur,
                             std::size_t group) -> std::size_t {
        for (std::size_t k = 0; k < group; ++k) {
            const std::uint32_t c = cur[k] >> 1;
            if (base[c] < base[offThr + c]) {
                ++base[c];
                a.sram += base[offSram + c];
                continue;
            }
            const auto r = slow(rows[k]);
            a.sram += r.sramAccesses;
            a.splits += r.didSplit;
            a.merges += r.didReconfigure;
            if (r.refreshed) {
                ++a.events;
                a.victims += r.rowsRefreshed;
            }
            return k + 1;
        }
        return group;
    };

    std::size_t i = 0;
#if CATSIM_X86_DESCENT
    if (tier == 2) {
        while (count - i >= kDescentGroup) {
            const RowAddr *rows = lane_rows + i;
            alignas(64) std::uint32_t cur[kDescentGroup];
            const int st = processGroupAvx512<StepsC>(
                base, quad, nSteps, shift, offThr, offSram, offJump,
                numRows, rows, cur, &a.sram);
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
            const RowAddr *rows = lane_rows + i;
            alignas(32) std::uint32_t cur[kDescentGroup];
            if (!descendGroupAvx2<StepsC>(base, quad, nSteps, shift,
                                          offJump, numRows, rows, cur))
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
        const RowAddr *rows = lane_rows + i;
        std::uint32_t cur[kDescentGroup];
        descend(rows, cur, kDescentGroup);
        i += resolve(rows, cur, kDescentGroup);
    }
    while (i < count) {
        const RowAddr *rows = lane_rows + i;
        const std::size_t group = count - i;
        std::uint32_t cur[kDescentGroup];
        descend(rows, cur, group);
        i += resolve(rows, cur, group);
    }
}

} // namespace

void
TreeBundle::onActivateBatch(std::uint32_t lane, const RowAddr *rows,
                            std::size_t count)
{
    if (pool_ != nullptr) {
        // Pooled lanes couple through live pool arbitration on the
        // slow path; the batch is exactly its onActivate sequence.
        for (std::size_t i = 0; i < count; ++i)
            onActivate(lane, rows[i]);
        return;
    }

    // A private bank: nothing outside this lane observes the order of
    // its accesses, so the grouped branchless descent runs the chunk.
    // The switch instantiates the common descent depths so the walk
    // fully unrolls (see runLane).
    BatchAcc acc;
    std::uint32_t *base = laneBase(lane);
    const RowAddr numRows = trees_[lane]->params_.numRows;
    const int tier = simdTier();
    const auto slow = [this, lane](RowAddr row) {
        return slowAccess(lane, row);
    };
    const auto run = [&](auto steps_c) {
        runLane<decltype(steps_c)::value>(
            base, rows, count, numRows, descentSteps_, jumpShift_,
            offThr_, offSram_, offJump_, offQuad_, tier, acc, slow);
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

    SchemeStats &st = stats_[lane];
    st.activations += count;
    st.sramAccesses += acc.sram;
    st.splits += acc.splits;
    st.merges += acc.merges;
    st.refreshEvents += acc.events;
    st.victimRowsRefreshed += acc.victims;
}

void
TreeBundle::onEpoch(std::uint32_t lane)
{
    CatTree &t = *trees_[lane];
    if (t.params_.enableWeights) {
        // DRCAT: retention refresh clears disturbance, so the counts
        // restart, but the learned shape and weights survive - that
        // is the point of DRCAT (Section V-B).
        t.resetCountsOnly();
        std::memset(laneBase(lane), 0, numCounters_ * 4);
        // A sibling's growth since our last event may have exhausted
        // or refilled the pool; epoch boundaries are rare enough to
        // re-check.
        if (pool_ != nullptr)
            refreshThresholds(lane);
    } else {
        // PRCAT: rebuild the balanced pre-split tree (Section V-A).
        t.reset();
        rebuildLane(lane);
        if (pool_ != nullptr) {
            // The reset released this lane's grown counters back to
            // the pool: siblings may be splittable again.
            for (std::uint32_t l = 0; l < lanes(); ++l)
                if (l != lane)
                    refreshThresholds(l);
        }
    }
    ++stats_[lane].epochResets;
}

const CatTree &
TreeBundle::tree(std::uint32_t lane) const
{
    syncTreeCounts(lane);
    return *trees_[lane];
}

std::string
TreeBundle::laneName(std::uint32_t lane) const
{
    const auto &p = trees_[lane]->params();
    const std::uint32_t m =
        p.presplitCounters ? p.presplitCounters : p.numCounters;
    std::string n = p.enableWeights ? "DRCAT_" : "PRCAT_";
    n += std::to_string(m);
    if (p.sharedPool != nullptr)
        n += "_rank" + std::to_string(p.numCounters / m);
    return n;
}

} // namespace catsim
