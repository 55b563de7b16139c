/**
 * @file
 * Scenario: evaluate the mitigation design space for YOUR workload.
 *
 * A memory-system architect picks a workload (any of the 18 built-in
 * MSC-style profiles, default blackscholes), sweeps the schemes the
 * paper compares, and reads off the power/performance trade-off:
 * CMRPO broken into dynamic / static / refresh components, plus ETO.
 *
 * Usage:
 *   ./build/examples/workload_study [workload=black] [threshold=32768]
 *                                   [scale=0.1]
 */

#include <iostream>

#include "common/config.hpp"
#include "common/table.hpp"
#include "sim/experiment.hpp"

int
main(int argc, char **argv)
{
    using namespace catsim;

    const Config cfg = Config::fromArgs(argc, argv);
    const std::string name = cfg.getString("workload", "black");
    const auto threshold =
        static_cast<std::uint32_t>(cfg.getUint("threshold", 32768));
    const double scale = cfg.getDouble("scale", 0.1);
    cfg.rejectUnread();

    const WorkloadProfile &profile = findWorkload(name);
    std::cout << "workload " << profile.name << " (" << profile.suite
              << "): readRatio=" << profile.readRatio
              << " zipfTheta=" << profile.zipfTheta
              << " hotRows=" << profile.hotRows
              << " hotFraction=" << profile.hotFraction
              << " meanGap=" << profile.meanGap << "\n"
              << "refresh threshold T=" << threshold
              << ", scale=" << scale << "\n\n";

    ExperimentRunner runner(scale);
    WorkloadSpec w;
    w.name = name;

    const auto mk = [threshold](SchemeKind kind,
                                std::uint32_t counters,
                                std::uint32_t levels, double p = 0) {
        SchemeConfig s;
        s.kind = kind;
        s.numCounters = counters;
        s.maxLevels = levels;
        s.threshold = threshold;
        if (p > 0)
            s.praProbability = p;
        return s;
    };
    const SchemeConfig schemes[] = {
        mk(SchemeKind::Pra, 0, 0,
           threshold <= 16384 ? 0.003 : 0.002),
        mk(SchemeKind::Sca, 64, 0),
        mk(SchemeKind::Sca, 128, 0),
        mk(SchemeKind::Prcat, 64, 11),
        mk(SchemeKind::Drcat, 64, 11),
        mk(SchemeKind::CounterCache, 2048, 0),
    };

    TextTable table({"scheme", "CMRPO", "dyn mW", "static mW",
                     "refresh mW", "rows refreshed", "ETO"});
    for (const auto &s : schemes) {
        const auto r =
            runner.evalCmrpo(SystemPreset::DualCore2Ch, w, s);
        const double eto =
            runner.evalEto(SystemPreset::DualCore2Ch, w, s);
        table.addRow({s.label(), TextTable::pct(r.cmrpo, 2),
                      TextTable::fixed(r.power.dynamic, 4),
                      TextTable::fixed(r.power.statik, 4),
                      TextTable::fixed(r.power.refresh, 4),
                      TextTable::num(r.stats.victimRowsRefreshed),
                      TextTable::pct(eto, 3)});
    }
    table.print(std::cout);

    std::cout << "\nHow to read this: PRA pays for random bits on "
                 "every access; SCA pays for coarse group refreshes; "
                 "the CAT variants pay mostly their small static "
                 "cost.  The counter cache is the exact-but-expensive "
                 "upper bound on precision.\n";
    return 0;
}
