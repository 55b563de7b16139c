/**
 * @file
 * Config-driven simulator CLI: run any workload / attack through any
 * scheme on any system preset and print the full result sheet.
 *
 * Usage (key=value arguments, all optional):
 *   simulate scheme=none|sca|pra|prcat|drcat|cc|mg|rfm
 *            counters=64 levels=11 threshold=32768
 *            workload=black system=dual2ch scale=0.1 seed=42
 *            attack=none|heavy|medium|light kernel=1 p=0.002 eto=1
 *            kind=gaussian|multibank|manysided|halfdouble
 *            rfmbudget=64 policy=lru|lfu|random pool=K
 *
 * Everything except scale=/eto=/trace= is read by SystemConfig::parse
 * (sim/system_config.hpp documents the full surface), so any config
 * line printed by SystemConfig::format() pastes straight back into
 * this CLI.  `counters` may be any M >= 2 (the CAT pre-splits unevenly
 * for non-powers of two); `policy` selects the counter-cache victim
 * policy; `pool=K` (K > 1, CAT schemes) shares one pool of K x
 * counters among each group of K consecutive banks - set K to the
 * geometry's banks-per-rank (8) for per-rank pools; `rfmbudget`
 * is the RFM scheme's ACTs per refresh-management command.
 *   simulate trace=file.trc traceformat=native|dramsim
 *            epochrecords=N scheme=... threshold=...
 *
 * With trace=, the file is ingested (DRAMSim-style or native), mapped
 * through the system's AddressMapper into per-bank activation streams
 * (a kEpochMarker every N=epochrecords records, 0 = single epoch),
 * and replayed through the scheme; the replay stats are printed.
 *
 * A key that the chosen mode does not read (a typo, or epochrecords=
 * without trace=) is fatal rather than silently ignored.
 *
 * Examples:
 *   ./build/examples/simulate
 *   ./build/examples/simulate scheme=sca counters=128 workload=comm1
 *   ./build/examples/simulate scheme=pra p=0.003 threshold=16384
 *   ./build/examples/simulate attack=heavy scheme=drcat eto=1
 *   ./build/examples/simulate trace=hammer.trc traceformat=dramsim
 */

#include <iostream>

#include "common/config.hpp"
#include "common/logging.hpp"
#include "common/table.hpp"
#include "sim/experiment.hpp"
#include "trace/trace_ingest.hpp"

int
main(int argc, char **argv)
{
    using namespace catsim;

    const Config cfg = Config::fromArgs(argc, argv);

    // The whole scheme/system/workload/attack surface is read by the
    // one shared parser; only simulate-specific keys (scale=, eto=,
    // trace=...) are read here.
    const SystemConfig parsed = SystemConfig::parse(cfg);
    const SchemeConfig &scheme = parsed.scheme;
    const SystemPreset preset = parsed.preset;
    const WorkloadSpec &w = parsed.workload;
    const std::string system = systemPresetName(preset);
    // Read by both modes, so a trace replay still accepts them.
    const double scale = cfg.getDouble("scale", 0.1);
    const bool withEto = cfg.getBool("eto", false);

    // External-trace mode: ingest, map into per-bank streams, replay.
    // Parsed after workload/attack so bogus values of those keys are
    // still rejected; scale/seed do not apply to a fixed trace.
    const std::string tracePath = cfg.getString("trace", "");
    if (!tracePath.empty()) {
        const TraceFormat format = parseTraceFormat(
            cfg.getString("traceformat", "native"));
        const std::uint64_t epochRecords = cfg.getUint("epochrecords", 0);
        cfg.rejectUnread();
        if (scheme.kind == SchemeKind::None)
            CATSIM_FATAL("trace replay needs a real scheme");
        VectorTrace trace = readTraceFileAs(tracePath, format);
        const TimingConfig sys = makeSystem(preset);
        const AddressMapper mapper(sys.geometry, sys.mapping);
        const auto streams =
            traceBankStreams(trace, mapper, sys.geometry, epochRecords);
        const ReplayResult r = replayActivations(
            streams, scheme, sys.geometry.rowsPerBank);

        std::cout << "replaying " << trace.size() << " records from '"
                  << tracePath << "' through " << scheme.label()
                  << " on " << system << "\n\n";
        TextTable sheet({"metric", "value"});
        sheet.addRow({"banks", TextTable::num(r.banks)});
        sheet.addRow({"epochs (bank 0)", TextTable::num(r.epochs)});
        sheet.addRow({"activations",
                      TextTable::num(r.stats.activations)});
        sheet.addRow({"refresh events",
                      TextTable::num(r.stats.refreshEvents)});
        sheet.addRow({"victim rows refreshed",
                      TextTable::num(r.stats.victimRowsRefreshed)});
        sheet.addRow({"SRAM accesses",
                      TextTable::num(r.stats.sramAccesses)});
        sheet.addRow({"CAT splits", TextTable::num(r.stats.splits)});
        sheet.print(std::cout);
        return 0;
    }

    cfg.rejectUnread();
    ExperimentRunner runner(scale);

    std::cout << "simulating " << w.label() << " on " << system
              << " with " << scheme.label()
              << " (T=" << scheme.threshold
              << ", scale=" << runner.scale() << ")\n"
              << "config: " << parsed.format() << "\n\n";

    const auto &base = runner.baseline(preset, w);
    const auto sys = makeSystem(preset);
    const double banks = sys.geometry.totalBanks();

    TextTable sheet({"metric", "value"});
    sheet.addRow({"simulated time (ms)",
                  TextTable::fixed(base.execSeconds * 1e3, 2)});
    sheet.addRow({"activations", TextTable::num(base.totalActivations)});
    sheet.addRow({"reads", TextTable::num(base.controller.reads)});
    sheet.addRow({"writes", TextTable::num(base.controller.writes)});
    sheet.addRow({"refresh epochs", TextTable::num(base.epochs)});
    sheet.addRow({"activations/bank/epoch",
                  TextTable::fixed(
                      static_cast<double>(base.totalActivations) / banks
                          / std::max<Count>(base.epochs, 1),
                      0)});

    if (scheme.kind != SchemeKind::None) {
        const auto r = runner.evalCmrpo(preset, w, scheme);
        sheet.addRow({"CMRPO", TextTable::pct(r.cmrpo, 2)});
        sheet.addRow({"  dynamic power (mW/bank)",
                      TextTable::fixed(r.power.dynamic, 4)});
        sheet.addRow({"  static power (mW/bank)",
                      TextTable::fixed(r.power.statik, 4)});
        sheet.addRow({"  refresh power (mW/bank)",
                      TextTable::fixed(r.power.refresh, 4)});
        sheet.addRow({"refresh events",
                      TextTable::num(r.stats.refreshEvents)});
        sheet.addRow({"victim rows refreshed",
                      TextTable::num(r.stats.victimRowsRefreshed)});
        sheet.addRow({"CAT splits", TextTable::num(r.stats.splits)});
        sheet.addRow({"DRCAT merges", TextTable::num(r.stats.merges)});
        if (withEto) {
            sheet.addRow({"ETO",
                          TextTable::pct(
                              runner.evalEto(preset, w, scheme), 3)});
        }
    }
    sheet.print(std::cout);
    return 0;
}
