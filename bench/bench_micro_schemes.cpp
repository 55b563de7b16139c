/**
 * @file
 * Microbenchmarks (google-benchmark) for the mitigation-scheme hot
 * paths: per-activation cost of SCA, PRA, PRCAT, DRCAT and the counter
 * cache, CAT tree traversal/growth, and the PRNG/Zipf substrates.
 * These support the paper's latency claims (Section VII-A: PRCAT
 * lookup is far cheaper than a DRAM row activation).  Also covers the
 * sweep engine: thread-pool dispatch overhead and a small end-to-end
 * SweepRunner grid.
 */

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "common/lfsr.hpp"
#include "core/factory.hpp"
#include "core/tree_bundle.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/zipf.hpp"
#include "sim/activation_sim.hpp"
#include "sim/sweep.hpp"
#include "core/cat_tree.hpp"
#include "core/counter_cache.hpp"
#include "core/drcat.hpp"
#include "core/pra.hpp"
#include "core/prcat.hpp"
#include "oracles/reference_cat_tree.hpp"
#include "core/sca.hpp"
#include "core/split_thresholds.hpp"

namespace catsim
{

namespace
{

constexpr RowAddr kRows = 65536;

/** Pre-generated skewed row stream shared by scheme benchmarks. */
const std::vector<RowAddr> &
rowStream()
{
    static const std::vector<RowAddr> stream = [] {
        std::vector<RowAddr> s;
        s.reserve(1 << 16);
        Xoshiro256StarStar rng(99);
        ZipfSampler zipf(kRows, 1.1);
        for (std::size_t i = 0; i < (1 << 16); ++i)
            s.push_back(static_cast<RowAddr>(zipf.sample(rng)
                                             * 2654435761ULL
                                             % kRows));
        return s;
    }();
    return stream;
}

template <typename SchemeT, typename... Args>
void
schemeBench(benchmark::State &state, Args &&...args)
{
    SchemeT scheme(kRows, std::forward<Args>(args)...);
    const auto &stream = rowStream();
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            scheme.onActivate(stream[i & 0xFFFF]));
        ++i;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}

void
BM_ScaActivate(benchmark::State &state)
{
    schemeBench<Sca>(state,
                     static_cast<std::uint32_t>(state.range(0)),
                     32768u);
}
BENCHMARK(BM_ScaActivate)->Arg(64)->Arg(512);

void
BM_PraActivate(benchmark::State &state)
{
    schemeBench<Pra>(state, 0.002);
}
BENCHMARK(BM_PraActivate);

void
BM_PrcatActivate(benchmark::State &state)
{
    schemeBench<Prcat>(state,
                       static_cast<std::uint32_t>(state.range(0)),
                       11u, 32768u);
}
BENCHMARK(BM_PrcatActivate)->Arg(64)->Arg(512);

void
BM_DrcatActivate(benchmark::State &state)
{
    schemeBench<Drcat>(state,
                       static_cast<std::uint32_t>(state.range(0)),
                       11u, 32768u);
}
BENCHMARK(BM_DrcatActivate)->Arg(64)->Arg(512);

void
BM_CounterCacheActivate(benchmark::State &state)
{
    schemeBench<CounterCache>(state, 2048u, 8u, 32768u);
}
BENCHMARK(BM_CounterCacheActivate);

CatTree::Params
catParams(std::uint32_t M, std::uint32_t L, std::uint32_t T,
          bool weights = false)
{
    CatTree::Params p;
    p.numRows = kRows;
    p.numCounters = M;
    p.maxLevels = L;
    p.refreshThreshold = T;
    p.splitThresholds = computeSplitThresholds(M, L, T);
    p.enableWeights = weights;
    return p;
}

/**
 * CatTree::access on a replay-like skewed-random stream over a grown
 * tree - the walk the CMRPO figures spend their time in.  Instantiated
 * for both the flattened production tree and the frozen pointer-chasing
 * reference, so the Flat/Ref ratio IS the hot-path speedup (the PR 3
 * acceptance bar is Flat >= 3x Ref here).
 */
template <typename TreeT>
void
catTreeAccessBench(benchmark::State &state, bool weights)
{
    TreeT tree(catParams(64, 11, 32768, weights));
    const auto &stream = rowStream();
    for (std::size_t i = 0; i < (1 << 18); ++i)
        tree.access(stream[i & 0xFFFF]); // grow to steady state
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tree.access(stream[i & 0xFFFF]));
        ++i;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}

void
BM_CatTreeAccessFlat(benchmark::State &state)
{
    catTreeAccessBench<CatTree>(state, state.range(0) != 0);
}
BENCHMARK(BM_CatTreeAccessFlat)->Arg(0)->Arg(1);

void
BM_CatTreeAccessRef(benchmark::State &state)
{
    catTreeAccessBench<ReferenceCatTree>(state, state.range(0) != 0);
}
BENCHMARK(BM_CatTreeAccessRef)->Arg(0)->Arg(1);

constexpr std::uint32_t kBundleBanks = 16;
constexpr std::size_t kStreamLen = 1 << 16;

/** Per-bank skewed streams for the multi-bank bundle benchmarks. */
const std::vector<std::vector<RowAddr>> &
bankStreams()
{
    static const std::vector<std::vector<RowAddr>> streams = [] {
        std::vector<std::vector<RowAddr>> s(kBundleBanks);
        for (std::uint32_t b = 0; b < kBundleBanks; ++b) {
            Xoshiro256StarStar rng(1000 + b);
            ZipfSampler zipf(kRows, 1.1);
            s[b].reserve(kStreamLen);
            for (std::size_t i = 0; i < kStreamLen; ++i)
                s[b].push_back(static_cast<RowAddr>(
                    zipf.sample(rng) * 2654435761ULL % kRows));
        }
        return s;
    }();
    return streams;
}

/** 16-lane DRCAT bundle group via the factory (bundleWidth default). */
std::vector<std::unique_ptr<MitigationScheme>>
makeBundleGroup(std::uint32_t bundle_width)
{
    SchemeConfig cfg;
    cfg.kind = SchemeKind::Drcat;
    cfg.numCounters = 64;
    cfg.maxLevels = 11;
    cfg.threshold = 32768;
    cfg.bundleWidth = bundle_width;
    return makeBankSchemes(cfg, kRows, kBundleBanks);
}

/**
 * TreeBundle::onActivateLanes over the 16-bank group - the vectorized
 * multi-bank hot path the group replay drives.  Items/sec here divided
 * by BM_CatTreeAccessFlat's is the SoA bundling speedup on top of
 * PR 3's single-tree flattening.
 */
void
BM_TreeBundleLanes(benchmark::State &state)
{
    const auto schemes = makeBundleGroup(0);
    TreeBundle *bundle =
        &static_cast<BundledCatScheme &>(*schemes[0]).bundle();
    const auto &streams = bankStreams();
    // Grow every lane to steady state before timing.
    for (std::uint32_t b = 0; b < kBundleBanks; ++b)
        bundle->onActivateBatch(b, streams[b].data(), kStreamLen);
    constexpr std::size_t kChunk = 4096;
    std::size_t off = 0;
    std::vector<TreeBundle::LaneBatch> batches(kBundleBanks);
    for (auto _ : state) {
        for (std::uint32_t b = 0; b < kBundleBanks; ++b)
            batches[b] = {b, streams[b].data() + off, kChunk};
        bundle->onActivateLanes(batches.data(), batches.size());
        off = (off + kChunk) & (kStreamLen - 1);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * kBundleBanks * kChunk));
}
BENCHMARK(BM_TreeBundleLanes)->Unit(benchmark::kMicrosecond);

/** The same group as standalone trees stepped per bank - the
 *  pre-bundle replay inner loop, for the on-report comparison. */
void
BM_TreeBundleFlatBatch(benchmark::State &state)
{
    const auto schemes = makeBundleGroup(1);
    const auto &streams = bankStreams();
    for (std::uint32_t b = 0; b < kBundleBanks; ++b)
        schemes[b]->onActivateBatch(streams[b].data(), kStreamLen);
    constexpr std::size_t kChunk = 4096;
    std::size_t off = 0;
    for (auto _ : state) {
        for (std::uint32_t b = 0; b < kBundleBanks; ++b)
            schemes[b]->onActivateBatch(streams[b].data() + off,
                                        kChunk);
        off = (off + kChunk) & (kStreamLen - 1);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * kBundleBanks * kChunk));
}
BENCHMARK(BM_TreeBundleFlatBatch)->Unit(benchmark::kMicrosecond);

/** Worst-case deep leaf: single-row hammer after full growth. */
template <typename TreeT>
void
catTreeHammerBench(benchmark::State &state)
{
    TreeT tree(catParams(64, 11, 32768));
    for (int i = 0; i < 40000; ++i)
        tree.access(42);
    for (auto _ : state)
        benchmark::DoNotOptimize(tree.access(42));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}

void
BM_CatTreeHammer(benchmark::State &state)
{
    catTreeHammerBench<CatTree>(state);
}
BENCHMARK(BM_CatTreeHammer);

void
BM_CatTreeHammerRef(benchmark::State &state)
{
    catTreeHammerBench<ReferenceCatTree>(state);
}
BENCHMARK(BM_CatTreeHammerRef);

/**
 * DRCAT refresh storm with many counters: a tiny threshold makes every
 * ~T-th access a weighted refresh, which costs the reference an O(M)
 * weight sweep plus a linear merge-candidate scan, vs. the flat tree's
 * lazy ordinal bump and candidate bitset.
 */
template <typename TreeT>
void
catTreeRefreshStormBench(benchmark::State &state)
{
    TreeT tree(catParams(512, 11, 512, true));
    Xoshiro256StarStar rng(7);
    for (std::size_t i = 0; i < (1 << 18); ++i)
        tree.access(rng.nextDouble() < 0.8
            ? 42
            : static_cast<RowAddr>(rng.nextBounded(kRows)));
    for (auto _ : state)
        benchmark::DoNotOptimize(tree.access(42));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}

void
BM_CatTreeRefreshStormFlat(benchmark::State &state)
{
    catTreeRefreshStormBench<CatTree>(state);
}
BENCHMARK(BM_CatTreeRefreshStormFlat);

void
BM_CatTreeRefreshStormRef(benchmark::State &state)
{
    catTreeRefreshStormBench<ReferenceCatTree>(state);
}
BENCHMARK(BM_CatTreeRefreshStormRef);

void
BM_ReplayActivationsDrcat(benchmark::State &state)
{
    // End-to-end batched replay (chunked onActivateBatch) of one
    // marker-laced bank stream, the CMRPO evaluation inner loop.
    std::vector<std::vector<RowAddr>> streams(1);
    auto &s = streams[0];
    s.reserve(1 << 18);
    const auto &rows = rowStream();
    for (std::size_t i = 0; i < (1 << 18); ++i) {
        if (i % 50000 == 49999)
            s.push_back(kEpochMarker);
        else
            s.push_back(rows[i & 0xFFFF]);
    }
    SchemeConfig cfg;
    cfg.kind = SchemeKind::Drcat;
    cfg.numCounters = 64;
    cfg.maxLevels = 11;
    cfg.threshold = 1024;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            replayActivations(streams, cfg, kRows));
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * static_cast<std::int64_t>(s.size())));
}
BENCHMARK(BM_ReplayActivationsDrcat)->Unit(benchmark::kMillisecond);

void
BM_CatTreeReset(benchmark::State &state)
{
    CatTree::Params p;
    p.numRows = kRows;
    p.numCounters = static_cast<std::uint32_t>(state.range(0));
    p.maxLevels = 14;
    p.refreshThreshold = 32768;
    p.splitThresholds =
        computeSplitThresholds(p.numCounters, 14, 32768);
    CatTree tree(p);
    for (auto _ : state)
        tree.reset();
}
BENCHMARK(BM_CatTreeReset)->Arg(64)->Arg(512);

void
BM_Xoshiro(benchmark::State &state)
{
    Xoshiro256StarStar rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_Xoshiro);

void
BM_LfsrNineBits(benchmark::State &state)
{
    Lfsr lfsr(16, 0xACE1);
    for (auto _ : state)
        benchmark::DoNotOptimize(lfsr.nextBits(9));
}
BENCHMARK(BM_LfsrNineBits);

void
BM_ZipfSample(benchmark::State &state)
{
    Xoshiro256StarStar rng(2);
    ZipfSampler zipf(kRows, 1.1);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.sample(rng));
}
BENCHMARK(BM_ZipfSample);

void
BM_ThreadPoolSubmitWait(benchmark::State &state)
{
    // Per-job dispatch cost of the sweep engine's queue: submit a
    // batch of trivial jobs and drain it.
    const std::size_t jobs = static_cast<std::size_t>(state.range(0));
    ThreadPool pool(jobs);
    std::atomic<std::uint64_t> sink{0};
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i)
            pool.submit([&sink] { sink.fetch_add(1); });
        pool.wait();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_ThreadPoolSubmitWait)->Arg(1)->Arg(4);

void
BM_ParallelForOverhead(benchmark::State &state)
{
    const std::size_t jobs = static_cast<std::size_t>(state.range(0));
    std::atomic<std::uint64_t> sink{0};
    for (auto _ : state) {
        parallelFor(
            256, [&sink](std::size_t i) { sink.fetch_add(i); }, jobs);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_ParallelForOverhead)->Arg(1)->Arg(4);

void
BM_SweepSmallGrid(benchmark::State &state)
{
    // End-to-end SweepRunner: 2 schemes x 2 workloads at a tiny
    // scale; cells share baselines through the shared-future cache.
    const std::size_t jobs = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        SweepRunner sweep(0.02, jobs);
        std::vector<SweepCell> cells;
        for (const char *name : {"comm1", "swapt"}) {
            for (SchemeKind kind :
                 {SchemeKind::Drcat, SchemeKind::Sca}) {
                SweepCell c;
                c.workload.name = name;
                c.scheme.kind = kind;
                cells.push_back(c);
            }
        }
        benchmark::DoNotOptimize(sweep.runCmrpo(cells));
    }
}
BENCHMARK(BM_SweepSmallGrid)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

/**
 * Wall-time @p pass (which runs @p acts_per_pass activations) after
 * two warm-up passes (tree growth to steady state), repeating until
 * at least ~0.4 s is measured; returns activations per second.
 */
template <typename Fn>
double
actsPerSec(Fn &&pass, Count acts_per_pass)
{
    pass();
    pass();
    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();
    double elapsed = 0.0;
    Count reps = 0;
    do {
        pass();
        ++reps;
        elapsed = std::chrono::duration<double>(Clock::now() - t0)
                      .count();
    } while (elapsed < 0.4);
    return static_cast<double>(reps * acts_per_pass) / elapsed;
}

/**
 * The tentpole's headline numbers as first-class @@METRIC lines,
 * collected into BENCH_bench_micro_schemes.json by run_benches.sh and
 * regression-gated by scripts/check_perf.py:
 *
 *   flat_acts_per_sec       PR 3's hot path: one virtual onActivate
 *                           per activation on standalone trees
 *   flatbatch_acts_per_sec  standalone trees stepped with per-bank
 *                           onActivateBatch chunks
 *   bundle_acts_per_sec     the 16-lane TreeBundle::onActivateLanes
 *                           arena path
 *
 * All three drive the identical 16-bank DRCAT_64 group over identical
 * per-bank Zipf streams, so the ratios isolate the API/layout change.
 */
void
emitBundleSpeedupMetrics()
{
    const auto &streams = bankStreams();
    constexpr Count kActsPerPass =
        static_cast<Count>(kBundleBanks) * kStreamLen;

    const auto flat = makeBundleGroup(1);
    const double flatRate = actsPerSec(
        [&] {
            for (std::uint32_t b = 0; b < kBundleBanks; ++b) {
                MitigationScheme &s = *flat[b];
                const RowAddr *rows = streams[b].data();
                for (std::size_t i = 0; i < kStreamLen; ++i)
                    s.onActivate(rows[i]);
            }
        },
        kActsPerPass);

    const auto flatBatch = makeBundleGroup(1);
    const double flatBatchRate = actsPerSec(
        [&] {
            for (std::uint32_t b = 0; b < kBundleBanks; ++b)
                flatBatch[b]->onActivateBatch(streams[b].data(),
                                              kStreamLen);
        },
        kActsPerPass);

    const auto bundled = makeBundleGroup(0);
    TreeBundle *bundle =
        &static_cast<BundledCatScheme &>(*bundled[0]).bundle();
    std::vector<TreeBundle::LaneBatch> batches(kBundleBanks);
    const double bundleRate = actsPerSec(
        [&] {
            for (std::uint32_t b = 0; b < kBundleBanks; ++b)
                batches[b] = {b, streams[b].data(), kStreamLen};
            bundle->onActivateLanes(batches.data(), batches.size());
        },
        kActsPerPass);

    // Which bundle kernel this host ran (2 = AVX-512, 1 = AVX2,
    // 0 = scalar); check_perf.py keys its speedup floors on it.
    std::printf("@@METRIC bundle_simd_tier %d\n",
                TreeBundle::simdTier());
    std::printf("@@METRIC flat_acts_per_sec %.6g\n", flatRate);
    std::printf("@@METRIC flatbatch_acts_per_sec %.6g\n",
                flatBatchRate);
    std::printf("@@METRIC bundle_acts_per_sec %.6g\n", bundleRate);
    std::printf("@@METRIC bundle_speedup_vs_flat %.4f\n",
                bundleRate / flatRate);
    std::printf("@@METRIC bundle_speedup_vs_flatbatch %.4f\n",
                bundleRate / flatBatchRate);
    std::fflush(stdout);
}

} // namespace
} // namespace catsim

int
main(int argc, char **argv)
{
    catsim::emitBundleSpeedupMetrics();

    // CATSIM_MICRO_FILTER narrows the google-benchmark suite when the
    // caller (run_benches.sh, CI) cannot pass --benchmark_filter.
    std::vector<char *> args(argv, argv + argc);
    std::string filterArg;
    if (const char *f = std::getenv("CATSIM_MICRO_FILTER")) {
        filterArg = std::string("--benchmark_filter=") + f;
        args.push_back(filterArg.data());
    }
    int n = static_cast<int>(args.size());
    benchmark::Initialize(&n, args.data());
    if (benchmark::ReportUnrecognizedArguments(n, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
