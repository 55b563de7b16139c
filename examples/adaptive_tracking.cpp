/**
 * @file
 * Scenario: watch DRCAT's tree follow a migrating hot spot.
 *
 * The paper's Section V motivates DRCAT with temporal changes in
 * access patterns (context switches, application phases).  This
 * example hammers a hot region, lets the tree converge, then moves
 * the hot region and prints, epoch by epoch, how the 2-bit weights
 * merge cold leaves and re-split around the new aggressor - versus
 * PRCAT, which rebuilds from the balanced tree every epoch.
 *
 * The two schemes are independent, so each epoch advances them
 * concurrently via parallelFor (CATSIM_JOBS workers); each scheme owns
 * its RNG and reporting happens after the join, so the output is
 * identical at any job count.
 */

#include <iomanip>
#include <iostream>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/factory.hpp"
#include "core/tree_bundle.hpp"

namespace
{

using namespace catsim;

/** A 32-counter, 11-level CAT scheme of @p kind at threshold @p t. */
std::unique_ptr<MitigationScheme>
makeCat(SchemeKind kind, std::uint32_t t)
{
    SchemeConfig cfg;
    cfg.kind = kind;
    cfg.numCounters = 32;
    cfg.maxLevels = 11;
    cfg.threshold = t;
    return makeScheme(cfg, 65536);
}

/** One epoch of traffic: 80 % to the hot row, 20 % background. */
Count
epochTraffic(MitigationScheme &scheme, RowAddr hot, std::uint64_t seed)
{
    Xoshiro256StarStar rng(seed);
    // Batch-first: generate the epoch's stream, hand it over in one
    // onActivateBatch call (bit-identical to the per-call loop), and
    // read the victim-row total off the scheme's stats.
    std::vector<RowAddr> rows(120000);
    for (RowAddr &row : rows)
        row = rng.nextDouble() < 0.8
            ? hot
            : static_cast<RowAddr>(rng.nextBounded(65536));
    const Count before = scheme.stats().victimRowsRefreshed;
    scheme.onActivateBatch(rows.data(), rows.size());
    const Count refreshed =
        scheme.stats().victimRowsRefreshed - before;
    scheme.onEpoch();
    return refreshed;
}

/** Advance both schemes one epoch, DRCAT and PRCAT in parallel. */
std::pair<Count, Count>
epochBoth(MitigationScheme &drcat, MitigationScheme &prcat, RowAddr hot,
          std::uint64_t seed)
{
    Count d = 0, p = 0;
    parallelFor(2, [&](std::size_t i) {
        if (i == 0)
            d = epochTraffic(drcat, hot, seed);
        else
            p = epochTraffic(prcat, hot, seed);
    });
    return {d, p};
}

void
report(const char *label, const TreeBundle &scheme, RowAddr hot,
       Count rows_this_epoch)
{
    const auto &tree = scheme.tree();
    const auto [lo, hi] = tree.leafRange(hot);
    std::cout << "  " << std::left << std::setw(6) << label
              << " hot-leaf depth " << tree.leafDepth(hot)
              << ", group size " << (hi - lo + 1) << ", rows refreshed "
              << rows_this_epoch << ", merges so far "
              << scheme.stats().merges << "\n";
}

} // namespace

int
main()
{
    using namespace catsim;

    const std::uint32_t kT = 8192;
    const auto drcatScheme = makeCat(SchemeKind::Drcat, kT);
    const auto prcatScheme = makeCat(SchemeKind::Prcat, kT);
    // PRCAT/DRCAT instances expose their tree for inspection.
    auto &drcat = static_cast<TreeBundle &>(*drcatScheme);
    auto &prcat = static_cast<TreeBundle &>(*prcatScheme);

    const RowAddr hotA = 4242, hotB = 50505;

    std::cout << "Phase 1: hot row " << hotA << " (4 epochs)\n";
    for (int e = 0; e < 4; ++e) {
        const auto [d, p] = epochBoth(drcat, prcat, hotA, 100 + e);
        std::cout << " epoch " << e << ":\n";
        report("DRCAT", drcat, hotA, d);
        report("PRCAT", prcat, hotA, p);
    }

    std::cout << "\nPhase 2: hot row moves to " << hotB
              << " (4 epochs)\n";
    for (int e = 4; e < 8; ++e) {
        const auto [d, p] = epochBoth(drcat, prcat, hotB, 100 + e);
        std::cout << " epoch " << e << ":\n";
        report("DRCAT", drcat, hotB, d);
        report("PRCAT", prcat, hotB, p);
    }

    std::cout << "\ntotals: DRCAT refreshed "
              << drcat.stats().victimRowsRefreshed << " rows with "
              << drcat.stats().merges << " reconfigurations; PRCAT "
              << prcat.stats().victimRowsRefreshed << " rows with "
              << prcat.stats().epochResets << " full rebuilds\n"
              << "\nWhat to look for: DRCAT keeps the deep leaf on the "
                 "hot row across epochs (no re-learning) and, after "
                 "the migration, merges cold sibling leaves (weight 0) "
                 "to free counters for the new hot region (paper "
                 "Fig 7).  The transition epoch is where DRCAT pays "
                 "its chase cost - the coarse refreshes before the "
                 "weights saturate - while PRCAT re-learns through "
                 "free splits but forgets every counter at each epoch, "
                 "which is the accuracy loss Section V-A warns about "
                 "for distributed-refresh DDRx devices.\n";
    return 0;
}
