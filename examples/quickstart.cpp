/**
 * @file
 * Quickstart: protect one DRAM bank with a Counter-based Adaptive Tree
 * in ~40 lines.
 *
 * Build & run:
 *   cmake -B build -S . && cmake --build build -j
 *   ./build/examples/quickstart
 *
 * A DRCAT instance watches a bank's row-activation stream.  For each
 * activation it returns a RefreshAction; a non-zero rowCount orders
 * the memory controller to refresh that victim range.  Here we hammer
 * one row among background noise and watch the tree confine the
 * refresh work to a tiny group around the aggressor.
 */

#include <iostream>

#include "common/rng.hpp"
#include "core/factory.hpp"
#include "core/tree_bundle.hpp"

int
main()
{
    using namespace catsim;

    const RowAddr kRows = 65536;     // rows in the bank
    const std::uint32_t kT = 32768;  // refresh threshold (DDR3-era)

    // 64 on-chip counters, trees up to 11 levels - the paper's sweet
    // spot (Fig 10).
    SchemeConfig cfg;
    cfg.kind = SchemeKind::Drcat;
    cfg.numCounters = 64;
    cfg.maxLevels = 11;
    cfg.threshold = kT;
    const auto scheme = makeScheme(cfg, kRows);
    // PRCAT/DRCAT instances expose their tree for inspection.
    auto &drcat = static_cast<TreeBundle &>(*scheme);

    Xoshiro256StarStar rng(7);
    const RowAddr aggressor = 31337;

    Count refreshes = 0, rowsRefreshed = 0;
    for (int i = 0; i < 200000; ++i) {
        // 70 % of traffic hammers one row; the rest is background.
        const RowAddr row = rng.nextDouble() < 0.7
            ? aggressor
            : static_cast<RowAddr>(rng.nextBounded(kRows));

        const RefreshAction act = drcat.onActivate(row);
        if (act.triggered()) {
            ++refreshes;
            rowsRefreshed += act.rowCount;
            std::cout << "refresh #" << refreshes << ": rows ["
                      << act.lo << ", " << act.hi << "] ("
                      << act.rowCount << " rows)\n";
        }
    }

    const auto &tree = drcat.tree();
    std::cout << "\naggressor leaf depth: " << tree.leafDepth(aggressor)
              << " (max " << 11 - 1 << "), group ["
              << tree.leafRange(aggressor).first << ", "
              << tree.leafRange(aggressor).second << "]\n"
              << "counter splits: " << drcat.stats().splits
              << ", total rows refreshed: " << rowsRefreshed << "\n"
              << "SRAM accesses per activation (avg): "
              << static_cast<double>(drcat.stats().sramAccesses)
                     / static_cast<double>(drcat.stats().activations)
              << "\n";

    std::cout << "\nThe tree zoomed in on the aggressor: each refresh "
                 "covers only its small group plus the two adjacent "
                 "rows, instead of a 1K-row static group (SCA) or "
                 "random early refreshes (PRA).\n";
    return 0;
}
