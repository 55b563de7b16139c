/**
 * @file
 * Microbenchmarks (google-benchmark) for the mitigation-scheme hot
 * paths: per-activation cost of SCA, PRA, PRCAT, DRCAT, the counter
 * cache and the Misra-Gries table (indexed vs the frozen scanning
 * reference), CAT tree traversal/growth, and the PRNG/Zipf substrates.
 * These support the paper's latency claims (Section VII-A: PRCAT
 * lookup is far cheaper than a DRAM row activation).  Also covers the
 * timing front ends (trace generation and runTiming over pre-generated
 * traces, in records per second; one mitigated runTimingOnSources leg,
 * in activations per second) and the sweep engine: parallelFor's
 * per-call overhead and a small end-to-end SweepRunner grid.
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
#include "sim/experiment.hpp"
#include "sim/sweep.hpp"
#include "sim/timing_sim.hpp"
#include "trace/workloads.hpp"
#include "core/cat_tree.hpp"
#include "core/counter_cache.hpp"
#include "core/misra_gries.hpp"
#include "core/pra.hpp"
#include "oracles/reference_cat_tree.hpp"
#include "oracles/reference_misra_gries.hpp"
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

/** Per-activation onActivate on @p scheme over the shared stream. */
template <typename SchemeT>
void
activateBench(benchmark::State &state, SchemeT &scheme)
{
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

template <typename SchemeT, typename... Args>
void
schemeBench(benchmark::State &state, Args &&...args)
{
    SchemeT scheme(kRows, std::forward<Args>(args)...);
    activateBench(state, scheme);
}

/** A CAT config at the paper's L = 11, T = 32K. */
SchemeConfig
catConfig(SchemeKind kind, std::uint32_t num_counters)
{
    SchemeConfig cfg;
    cfg.kind = kind;
    cfg.numCounters = num_counters;
    cfg.maxLevels = 11;
    cfg.threshold = 32768;
    return cfg;
}

/** The factory's PRCAT/DRCAT scheme, one virtual onActivate per
 *  activation (the controller and closed-loop path). */
void
catActivateBench(benchmark::State &state, SchemeKind kind)
{
    const auto scheme = makeScheme(
        catConfig(kind, static_cast<std::uint32_t>(state.range(0))),
        kRows);
    activateBench(state, *scheme);
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
    catActivateBench(state, SchemeKind::Prcat);
}
BENCHMARK(BM_PrcatActivate)->Arg(64)->Arg(512);

void
BM_DrcatActivate(benchmark::State &state)
{
    catActivateBench(state, SchemeKind::Drcat);
}
BENCHMARK(BM_DrcatActivate)->Arg(64)->Arg(512);

void
BM_CounterCacheActivate(benchmark::State &state)
{
    schemeBench<CounterCache>(state, 2048u, 8u, 32768u);
}
BENCHMARK(BM_CounterCacheActivate);

/**
 * Misra-Gries at k = state.range(0), T = 32K: the indexed table and
 * the frozen scanning reference, so the ratio is what the row index
 * and free-entry bitmap buy per activation.
 */
void
BM_MisraGriesActivate(benchmark::State &state)
{
    schemeBench<MisraGries>(state,
                            static_cast<std::uint32_t>(state.range(0)),
                            32768u);
}
BENCHMARK(BM_MisraGriesActivate)->Arg(512);

void
BM_MisraGriesActivateRef(benchmark::State &state)
{
    schemeBench<ReferenceMisraGries>(
        state, static_cast<std::uint32_t>(state.range(0)), 32768u);
}
BENCHMARK(BM_MisraGriesActivateRef)->Arg(512);

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

/** The factory's 16-bank DRCAT_64 group (one bundle per bank). */
std::vector<std::unique_ptr<MitigationScheme>>
makeBankGroup()
{
    return makeBankSchemes(catConfig(SchemeKind::Drcat, 64), kRows,
                           kBundleBanks);
}

/** 16 bare DRCAT_64 trees, what the factory's schemes wrap. */
std::vector<std::unique_ptr<CatTree>>
makeBareTrees()
{
    std::vector<std::unique_ptr<CatTree>> trees;
    for (std::uint32_t b = 0; b < kBundleBanks; ++b)
        trees.push_back(std::make_unique<CatTree>(
            makeCatTreeParams(kRows, 64, 11, 32768, true, {}, nullptr)));
    return trees;
}

/**
 * Per-bank onActivateBatch chunks over the 16-bank group - the replay
 * path.  Items/sec here divided by BM_CatTreeAccessFlat's is the batch
 * loop's speedup on top of the flattened single tree.
 */
void
BM_TreeBundleBatch(benchmark::State &state)
{
    const auto schemes = makeBankGroup();
    const auto &streams = bankStreams();
    // Grow every bank to steady state before timing.
    for (std::uint32_t b = 0; b < kBundleBanks; ++b)
        schemes[b]->onActivateBatch(streams[b].data(), kStreamLen);
    constexpr std::size_t kChunk = 4096;
    std::size_t off = 0;
    for (auto _ : state) {
        for (std::uint32_t b = 0; b < kBundleBanks; ++b)
            schemes[b]->onActivateBatch(streams[b].data() + off, kChunk);
        off = (off + kChunk) & (kStreamLen - 1);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * kBundleBanks * kChunk));
}
BENCHMARK(BM_TreeBundleBatch)->Unit(benchmark::kMicrosecond);

/** The same group stepped one virtual onActivate per activation - the
 *  controller and closed-loop path, for the on-report comparison. */
void
BM_TreeBundlePerCall(benchmark::State &state)
{
    const auto schemes = makeBankGroup();
    const auto &streams = bankStreams();
    for (std::uint32_t b = 0; b < kBundleBanks; ++b)
        schemes[b]->onActivateBatch(streams[b].data(), kStreamLen);
    constexpr std::size_t kChunk = 4096;
    std::size_t off = 0;
    for (auto _ : state) {
        for (std::uint32_t b = 0; b < kBundleBanks; ++b) {
            MitigationScheme &s = *schemes[b];
            const RowAddr *rows = streams[b].data() + off;
            for (std::size_t i = 0; i < kChunk; ++i)
                benchmark::DoNotOptimize(s.onActivate(rows[i]));
        }
        off = (off + kChunk) & (kStreamLen - 1);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * kBundleBanks * kChunk));
}
BENCHMARK(BM_TreeBundlePerCall)->Unit(benchmark::kMicrosecond);

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
BM_FrontEndTraceGen(benchmark::State &state, const char *profile)
{
    // SyntheticWorkload::next alone: the stimulus layer of runTiming,
    // in records per second.
    const DramGeometry geometry = DramGeometry::dualCore2Ch();
    const AddressMapper mapper(geometry, MappingPolicy::RowRankBankChanCol);
    SyntheticWorkload gen(findWorkload(profile), geometry, mapper, 42, ~0ULL);
    TraceRecord rec;
    for (auto _ : state) {
        gen.next(rec);
        benchmark::DoNotOptimize(rec);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_FrontEndTraceGen, comm1, "comm1");
BENCHMARK_CAPTURE(BM_FrontEndTraceGen, libq, "libq");

void
BM_FrontEndRunTiming(benchmark::State &state, const char *profile)
{
    // runTiming without trace generation: a baseline run (dual-core
    // preset, no scheme, recording on) over pre-generated records, in
    // records per second through the core window, controller, mapper
    // and DRAM.
    TimingConfig sys = makeSystem(SystemPreset::DualCore2Ch);
    sys.scheme.kind = SchemeKind::None;
    sys.recordActivations = true;
    sys.epochScale = 0.01;
    const AddressMapper mapper(sys.geometry, sys.mapping);
    constexpr std::uint64_t kRecords = 1 << 18;
    std::vector<std::vector<TraceRecord>> traces(sys.numCores);
    for (CoreId c = 0; c < sys.numCores; ++c) {
        SyntheticWorkload gen(findWorkload(profile), sys.geometry, mapper,
                              42 * 7919ULL + c + 1, kRecords);
        for (TraceRecord rec; gen.next(rec);)
            traces[c].push_back(rec);
    }
    for (auto _ : state) {
        state.PauseTiming();
        std::vector<std::unique_ptr<TraceStream>> streams;
        for (const auto &t : traces)
            streams.push_back(std::make_unique<VectorTrace>(t));
        state.ResumeTiming();
        const TimingResult res = runTiming(
            sys, [&streams](CoreId c) { return std::move(streams[c]); });
        benchmark::DoNotOptimize(res.execCycles);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * sys.numCores * kRecords));
}
BENCHMARK_CAPTURE(BM_FrontEndRunTiming, comm1, "comm1")
    ->Unit(benchmark::kMillisecond);

void
BM_FrontEndRunTimingOnSources(benchmark::State &state)
{
    // One mitigated closed-loop ETO leg through runTimingOnSources:
    // the dual-core preset, the Static Medium Gaussian fleet
    // evalAdaptiveEto runs (two scaled epochs at one ACT per tRC per
    // bank), PRCAT_64 at the scaled threshold, scale 0.02.  Building
    // the fleet is untimed; drawing its rows is part of the leg.
    // Reported in activations per second.
    constexpr double kScaleValue = 0.02;
    const ExperimentRunner runner(kScaleValue);
    TimingConfig sys = makeSystem(SystemPreset::DualCore2Ch);
    sys.scheme.kind = SchemeKind::Prcat;
    sys.scheme.numCounters = 64;
    sys.scheme.maxLevels = 11;
    sys.scheme.threshold = runner.scaledThreshold(32768);
    sys.epochScale = kScaleValue;
    const AdaptiveAttackSpec attack; // Static, Medium, kernel 1
    Count acts = 0;
    for (auto _ : state) {
        state.PauseTiming();
        auto fleet = runner.adaptiveSources(sys, attack);
        state.ResumeTiming();
        const TimingResult res = runTimingOnSources(sys, fleet);
        acts += res.totalActivations;
        benchmark::DoNotOptimize(res.execCycles);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(acts));
}
BENCHMARK(BM_FrontEndRunTimingOnSources)->Unit(benchmark::kMillisecond);

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
    // scale, workload-major.  With 4 jobs the runner hands out one
    // cell per workload first, so both baselines compute at once, and
    // each workload's second cell waits on the shared-future cache.
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
 * The bundle kernel's headline numbers as first-class @@METRIC lines,
 * collected into BENCH_bench_micro_schemes.json by run_benches.sh and
 * regression-gated by scripts/check_perf.py:
 *
 *   flat_acts_per_sec       CatTree::access per activation on 16 bare
 *                           trees - the flattened tree, with no
 *                           scheme around it
 *   flatbatch_acts_per_sec  one virtual onActivate per activation on
 *                           the factory's schemes - the controller and
 *                           closed-loop path
 *   bundle_acts_per_sec     per-bank onActivateBatch on the factory's
 *                           schemes - the replay path
 *
 * All three drive 16 DRCAT_64 banks over identical per-bank Zipf
 * streams, so the ratios isolate the dispatch path.
 */
void
emitBundleSpeedupMetrics()
{
    const auto &streams = bankStreams();
    constexpr Count kActsPerPass =
        static_cast<Count>(kBundleBanks) * kStreamLen;

    auto trees = makeBareTrees();
    const double flatRate = actsPerSec(
        [&] {
            Count sram = 0;
            for (std::uint32_t b = 0; b < kBundleBanks; ++b) {
                CatTree &t = *trees[b];
                const RowAddr *rows = streams[b].data();
                for (std::size_t i = 0; i < kStreamLen; ++i)
                    sram += t.access(rows[i]).sramAccesses;
            }
            benchmark::DoNotOptimize(sram);
        },
        kActsPerPass);

    const auto perCall = makeBankGroup();
    const double flatBatchRate = actsPerSec(
        [&] {
            for (std::uint32_t b = 0; b < kBundleBanks; ++b) {
                MitigationScheme &s = *perCall[b];
                const RowAddr *rows = streams[b].data();
                for (std::size_t i = 0; i < kStreamLen; ++i)
                    s.onActivate(rows[i]);
            }
        },
        kActsPerPass);

    const auto batched = makeBankGroup();
    const double bundleRate = actsPerSec(
        [&] {
            for (std::uint32_t b = 0; b < kBundleBanks; ++b)
                batched[b]->onActivateBatch(streams[b].data(),
                                            kStreamLen);
        },
        kActsPerPass);

    // This host's SIMD class (2 = AVX-512, 0 = other); check_perf.py
    // keys its speedup floors on it.
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
