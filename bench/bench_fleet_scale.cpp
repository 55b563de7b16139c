/**
 * @file
 * Fleet-scale shard-scaling bench.
 *
 * Replays an attacked-bank-skewed synthetic fleet (every 8th pair of
 * banks hammers 10x harder than the rest - the skew dynamic shard
 * hand-out exists for) through ShardedSim at 1, 2, 4 and 8 shards and
 * reports the scaling curve:
 *
 *   acts_per_sec_core      single-shard throughput (the per-core rate
 *                          check_perf.py guards across PRs)
 *   fleet_acts_per_sec_sK  aggregate throughput at K shards
 *   fleet_speedup_sK       aggregate speedup over the 1-shard run
 *   fleet_efficiency_sK    speedup / min(K, hardware cores)
 *   fleet_worker_tier      2 = host has >= 4 cores, 1 = 2-3, 0 = 1
 *                          (check_perf.py keys its speedup floors by
 *                          tier; a 1-core CI box cannot show a 4x)
 *   fleet_result_*         merged SchemeStats - bit-identical at every
 *                          shard count, so CI diffs these lines between
 *                          CATSIM_SHARDS=1 and =4 runs for free
 *
 * The bench itself re-checks the determinism contract: if any shard
 * count's merged totals differ from the 1-shard run it exits nonzero.
 * With CATSIM_CHECKPOINT set every fleet run journals per shard, so a
 * SIGKILLed bench resumes finished shards from disk.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/parallel.hpp"
#include "sim/activation_source.hpp"
#include "sim/shard.hpp"

namespace catsim
{
namespace
{

constexpr std::uint32_t kBanks = 64;  //!< quad-core-class flat topology
constexpr RowAddr kRows = 65536;

/**
 * Deterministic per-global-bank source with the attacked-bank skew:
 * banks where bank % 8 < 2 run ten times hotter.  Hot banks land two
 * per 16-bank shard at 4 shards, so the contiguous split stays
 * balanced while individual banks are wildly uneven.
 */
std::unique_ptr<ActivationSource>
makeSkewedSource(std::uint32_t bank, std::uint64_t acts_per_epoch)
{
    AttackSourceParams p;
    p.numRows = kRows;
    p.targets = {RowAddr(100 + bank), RowAddr(500 + bank),
                 RowAddr(900 + bank)};
    p.actsPerEpoch =
        (bank % 8 < 2) ? acts_per_epoch * 10 : acts_per_epoch;
    p.epochs = 2;
    p.seed = 1000 + bank;
    return std::make_unique<SyntheticAttackSource>(p);
}

struct ScalePoint
{
    std::uint32_t shards = 0;
    double seconds = 0.0;
    FleetResult fleet;
};

int
workerTier(unsigned hw)
{
    if (hw >= 4)
        return 2;
    if (hw >= 2)
        return 1;
    return 0;
}

} // namespace
} // namespace catsim

int
main()
{
    using namespace catsim;
    using Clock = std::chrono::steady_clock;

    const double scale = benchScale();
    const std::size_t jobs = defaultJobs();
    benchBanner("Fleet-scale shard scaling curve", scale, jobs);

    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const int tier = workerTier(hw);
    std::printf("host: %u hardware thread(s), worker tier %d, "
                "jobs %zu\n\n",
                hw, tier, jobs);

    // Co-scale the refresh threshold with the activation volume, same
    // 512 floor as ExperimentRunner::scaledThreshold.
    const auto threshold = std::max<std::uint32_t>(
        static_cast<std::uint32_t>(32768.0 * scale), 512);
    SchemeConfig cfg = mkScheme(SchemeKind::Prcat, 64, 11, threshold);
    const auto acts_per_epoch =
        static_cast<std::uint64_t>(100000.0 * scale);
    const auto make_source = [&](std::uint32_t bank) {
        return makeSkewedSource(bank, acts_per_epoch);
    };

    // Oracle run at the env-selected shard count (CATSIM_SHARDS),
    // untimed: it doubles as warm-up, and emitting fleet_result_* from
    // it means runs at CATSIM_SHARDS=1 and =4 genuinely exercised
    // different shardings when CI diffs those lines.
    const std::uint32_t result_shards = defaultShards();
    ShardedSim oracle_sim(cfg, kRows, ShardPlan::make(kBanks, result_shards),
                          jobs);
    const FleetResult oracle_fleet =
        oracle_sim.run(make_source, "fleet-scale-bench");
    std::printf("result run: %u shard(s) (CATSIM_SHARDS), %zu resumed "
                "from checkpoint\n\n",
                oracle_sim.plan().numShards(), oracle_fleet.resumedShards);

    std::vector<std::uint32_t> shard_counts = {1, 2, 4, 8};
    std::vector<ScalePoint> points;
    for (std::uint32_t shards : shard_counts) {
        ShardedSim sim(cfg, kRows, ShardPlan::make(kBanks, shards), jobs);
        ScalePoint pt;
        pt.shards = sim.plan().numShards();
        const auto t0 = Clock::now();
        pt.fleet = sim.run(make_source, "fleet-scale-bench");
        pt.seconds =
            std::chrono::duration<double>(Clock::now() - t0).count();
        points.push_back(std::move(pt));
    }

    // Determinism self-check: every shard count must merge to the
    // same totals as the oracle run.
    const ReplayResult &oracle = oracle_fleet.total;
    if (!oracle_fleet.errors.empty()) {
        std::fprintf(stderr, "FAIL: %zu shard error(s) in oracle run\n",
                     oracle_fleet.errors.size());
        return 1;
    }
    for (const ScalePoint &pt : points) {
        if (!pt.fleet.errors.empty()) {
            std::fprintf(stderr,
                         "FAIL: %zu shard error(s) at shards=%u\n",
                         pt.fleet.errors.size(), pt.shards);
            return 1;
        }
        if (!(pt.fleet.total == oracle)) {
            std::fprintf(stderr,
                         "FAIL: totals at shards=%u differ from the "
                         "1-shard run (determinism contract broken)\n",
                         pt.shards);
            return 1;
        }
    }

    const double acts =
        static_cast<double>(oracle.stats.activations);
    const double rate1 = acts / std::max(points[0].seconds, 1e-9);

    std::printf("%-8s %12s %14s %9s %8s\n", "shards", "seconds",
                "acts/sec", "speedup", "eff");
    for (const ScalePoint &pt : points) {
        const double rate = acts / std::max(pt.seconds, 1e-9);
        const double speedup = rate / rate1;
        const auto cores =
            static_cast<double>(std::min<unsigned>(pt.shards, hw));
        std::printf("%-8u %12.4f %14.0f %8.2fx %8.2f\n", pt.shards,
                    pt.seconds, rate, speedup, speedup / cores);
    }
    std::printf("\n");

    benchMetric("fleet_worker_tier", tier);
    benchMetric("acts_per_sec_core", rate1);
    for (const ScalePoint &pt : points) {
        const double rate = acts / std::max(pt.seconds, 1e-9);
        const std::string suffix = "_s" + std::to_string(pt.shards);
        benchMetric("fleet_acts_per_sec" + suffix, rate);
        benchMetric("fleet_speedup" + suffix, rate / rate1);
        benchMetric(
            "fleet_efficiency" + suffix,
            rate / rate1 /
                static_cast<double>(std::min<unsigned>(pt.shards, hw)));
    }

    // Shard-count-invariant result metrics: CI runs this bench at
    // CATSIM_SHARDS=1 and =4 and diffs these lines verbatim.
    benchMetric("fleet_result_activations",
                static_cast<double>(oracle.stats.activations));
    benchMetric("fleet_result_refresh_events",
                static_cast<double>(oracle.stats.refreshEvents));
    benchMetric("fleet_result_victim_rows",
                static_cast<double>(oracle.stats.victimRowsRefreshed));
    benchMetric("fleet_result_sram_accesses",
                static_cast<double>(oracle.stats.sramAccesses));
    benchMetric("fleet_result_epoch_resets",
                static_cast<double>(oracle.stats.epochResets));
    benchMetric("fleet_result_epochs",
                static_cast<double>(oracle.epochs));
    return 0;
}
