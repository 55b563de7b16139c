/**
 * @file
 * Fig 13 - ETO of the benign workload under kernel row-hammer attacks
 * for three mixes (Heavy 75%, Medium 50%, Light 25% target accesses)
 * and T = 32K/16K/8K, comparing SCA, PRCAT and DRCAT at the paper's
 * per-threshold counter counts (SCA_128/PRCAT_64/DRCAT_64; doubled at
 * T=8K).  Attacks follow Section VIII-D: 4 Gaussian-placed target rows
 * per bank, mixed into a memory-intensive benign workload.
 *
 * Every (threshold, mode, scheme, kernel) cell is an independent
 * timing run, so the whole figure is one SweepRunner ETO grid; kernel
 * means are folded from the cell-indexed results in kernel order,
 * matching the old serial loops bit for bit.
 */

#include <iostream>

#include "common/table.hpp"
#include "bench_common.hpp"

using namespace catsim;

namespace
{

SweepCell
attackCell(AttackMode mode, std::uint64_t kernel,
           const SchemeConfig &cfg)
{
    SweepCell c;
    c.preset = SystemPreset::DualCore2Ch;
    c.workload.name = "comm2"; // memory-intensive benign background
    c.workload.isAttack = true;
    c.workload.attackMode = mode;
    c.workload.attackKernel = kernel;
    c.scheme = cfg;
    return c;
}

} // namespace

int
main()
{
    const double scale = benchScale();
    SweepRunner sweep(scale);
    benchBanner("Fig 13: ETO under kernel attacks", scale,
                sweep.jobs());
    const std::uint64_t kernels = attackKernelCount();
    std::cout << "averaging over " << kernels
              << " attack kernels per cell (paper: 12; set "
                 "CATSIM_ATTACK_KERNELS)\n\n";

    const AttackMode modes[] = {AttackMode::Heavy, AttackMode::Medium,
                                AttackMode::Light};

    // One flat ETO grid covering the whole figure: for every
    // (threshold, mode) row, three scheme columns x `kernels` cells.
    std::vector<SweepCell> cells;
    for (std::uint32_t threshold : {32768u, 16384u, 8192u}) {
        const std::uint32_t sca = threshold == 8192 ? 256 : 128;
        const std::uint32_t cat = threshold == 8192 ? 128 : 64;
        for (AttackMode mode : modes) {
            const SchemeConfig cfgs[] = {
                mkScheme(SchemeKind::Sca, sca, 0, threshold),
                mkScheme(SchemeKind::Prcat, cat, 11, threshold),
                mkScheme(SchemeKind::Drcat, cat, 11, threshold),
            };
            for (const SchemeConfig &cfg : cfgs)
                for (std::uint64_t k = 1; k <= kernels; ++k)
                    cells.push_back(attackCell(mode, k, cfg));
        }
    }

    const std::vector<double> etos = sweep.runEto(cells);

    TextTable table({"T", "mode", "SCA", "PRCAT", "DRCAT"});
    const char *schemeNames[] = {"SCA", "PRCAT", "DRCAT"};
    std::size_t idx = 0;
    for (std::uint32_t threshold : {32768u, 16384u, 8192u}) {
        for (AttackMode mode : modes) {
            std::vector<std::string> row{
                std::to_string(threshold / 1024) + "K",
                attackModeName(mode)};
            for (int scheme = 0; scheme < 3; ++scheme) {
                RunningStat stat;
                for (std::uint64_t k = 1; k <= kernels; ++k)
                    stat.add(etos[idx++]);
                row.push_back(TextTable::pct(stat.mean(), 3));
                benchMetric("eto_mean_T"
                                + std::to_string(threshold / 1024)
                                + "K_"
                                + std::string(attackModeName(mode))
                                + "_" + schemeNames[scheme],
                            stat.mean());
            }
            table.addRow(std::move(row));
        }
    }
    table.print(std::cout);
    std::cout << "\nExpected shape (paper): heavier attacks -> higher "
                 "ETO; SCA worst (up to ~4.5% at T=16K Heavy), CAT "
                 "variants < 0.9%; T=8K lower than 16K because the "
                 "counter count doubles.\n";
    return 0;
}
