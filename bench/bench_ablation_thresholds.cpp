/**
 * @file
 * Ablation - how much do the Section IV-D split thresholds matter?
 *
 * docs/DESIGN.md Section 4 calls out the split-threshold schedule as the
 * CAT design choice with the least published detail.  This bench
 * compares three schedules for DRCAT_64/L11 on the full workload
 * suite:
 *   paper    - the calibrated/generic schedule from Section IV-D
 *              (T/2 last, 2^(1/3) ratio, halved first)
 *   eager    - all split thresholds = T/16 (split as soon as possible)
 *   lazy     - all split thresholds = T/2 (split late, near refresh)
 * measuring victim rows refreshed per bank per epoch and the mean
 * CMRPO (the latter through SchemeConfig::splitThresholds, which the
 * runner co-scales with T).
 *
 * Both metrics run as SweepRunner grids: the victim-row replays as
 * (schedule x 18 workloads) runMetric cells tagged with the schedule,
 * the CMRPO means as the usual scheme-config grid.  Per-schedule means
 * accumulate in suite order, so the victim-row numbers match the old
 * serial loops bit for bit at any CATSIM_JOBS.
 */

#include <iostream>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/split_thresholds.hpp"
#include "bench_common.hpp"

using namespace catsim;

namespace
{

enum class Schedule
{
    Paper,
    Eager,
    Lazy,
};

constexpr Schedule kSchedules[] = {Schedule::Paper, Schedule::Eager,
                                   Schedule::Lazy};

std::vector<std::uint32_t>
makeSchedule(Schedule kind, std::uint32_t M, std::uint32_t L,
             std::uint32_t T)
{
    switch (kind) {
      case Schedule::Paper:
        return computeSplitThresholds(M, L, T);
      case Schedule::Eager: {
        std::vector<std::uint32_t> thr(L, std::max(T / 16, 2u));
        thr[L - 1] = T;
        return thr;
      }
      case Schedule::Lazy: {
        std::vector<std::uint32_t> thr(L, T / 2);
        thr[L - 1] = T;
        return thr;
      }
    }
    return {};
}

/** Victim rows per bank per epoch for one (schedule, workload) cell:
 *  replay the cached baseline streams through a custom-schedule
 *  DRCAT_64/L11. */
double
victimRowsMetric(ExperimentRunner &runner, const SweepCell &cell)
{
    const std::uint32_t T = runner.scaledThreshold(32768);
    const auto &base =
        runner.baseline(SystemPreset::DualCore2Ch, cell.workload);
    const double norm =
        static_cast<double>(base.bankStreams.size())
        * std::max<double>(1.0, static_cast<double>(base.epochs));
    const RowAddr rows =
        makeSystem(SystemPreset::DualCore2Ch).geometry.rowsPerBank;

    SchemeConfig cfg = mkScheme(SchemeKind::Drcat, 64, 11, T);
    cfg.splitThresholds =
        makeSchedule(static_cast<Schedule>(cell.tag), 64, 11, T);
    const ReplayResult replay =
        replayActivations(base.bankStreams, cfg, rows);
    return static_cast<double>(replay.stats.victimRowsRefreshed) / norm;
}

const char *
scheduleName(Schedule s)
{
    switch (s) {
      case Schedule::Paper: return "paper";
      case Schedule::Eager: return "eager";
      case Schedule::Lazy: return "lazy";
    }
    return "?";
}

} // namespace

int
main()
{
    const double scale = benchScale();
    SweepRunner sweep(scale);
    benchBanner("Ablation: split-threshold schedules (DRCAT_64/L11)",
                scale, sweep.jobs());

    const auto &suite = workloadSuite();

    // Grid 1: victim rows / bank / epoch, schedule-major then suite
    // order (the accumulation order of the old serial loops).
    std::vector<SweepCell> rowCells;
    rowCells.reserve(std::size(kSchedules) * suite.size());
    for (const Schedule s : kSchedules) {
        for (const auto &profile : suite) {
            SweepCell c;
            c.workload.name = profile.name;
            c.tag = static_cast<std::uint64_t>(s);
            rowCells.push_back(c);
        }
    }
    const auto victims = sweep.runMetric(rowCells, victimRowsMetric);

    // Grid 2: mean CMRPO per schedule via custom-schedule DRCAT
    // configs (built from the paper threshold; the runner co-scales).
    std::vector<SchemeConfig> configs;
    for (const Schedule s : kSchedules) {
        SchemeConfig cfg = mkScheme(SchemeKind::Drcat, 64, 11, 32768);
        cfg.splitThresholds = makeSchedule(s, 64, 11, 32768);
        configs.push_back(std::move(cfg));
    }
    const std::vector<double> cmrpoMeans =
        suiteMeanCmrpo(sweep, configs);

    std::vector<RunningStat> rowsPerSchedule(std::size(kSchedules));
    std::size_t idx = 0;
    for (std::size_t s = 0; s < std::size(kSchedules); ++s)
        for (std::size_t w = 0; w < suite.size(); ++w)
            rowsPerSchedule[s].add(victims[idx++]);

    TextTable table({"schedule", "victim rows / bank / epoch",
                     "vs paper", "mean CMRPO"});
    for (std::size_t s = 0; s < std::size(kSchedules); ++s) {
        const char *name = scheduleName(kSchedules[s]);
        table.addRow(
            {std::string(name)
                 + (kSchedules[s] == Schedule::Paper
                        ? " (Section IV-D)"
                        : kSchedules[s] == Schedule::Eager
                            ? " (all T/16)"
                            : "  (all T/2)"),
             TextTable::fixed(rowsPerSchedule[s].mean(), 1),
             TextTable::fixed(rowsPerSchedule[s].mean()
                                  / rowsPerSchedule[0].mean(),
                              2),
             TextTable::pct(cmrpoMeans[s], 2)});
        benchMetric(std::string("victim_rows_per_bank_epoch_") + name,
                    rowsPerSchedule[s].mean());
        benchMetric(std::string("cmrpo_mean_") + name, cmrpoMeans[s]);
    }
    table.print(std::cout);

    std::cout << "\nReading: eager splitting burns counters on groups "
                 "that never turn hot (so late hot spots refresh "
                 "coarsely); lazy splitting leaves hot rows in big "
                 "groups longer.  The paper's staged schedule balances "
                 "the two.\n";
    return 0;
}
