/**
 * @file
 * Fig 14 (beyond the paper) - CMRPO under *adaptive* attackers.
 *
 * The paper's Section VIII-D kernels are static: targets are chosen
 * once and hammered blindly.  Modern attacks adapt - TRRespass-style
 * attackers observe the defense's refresh behaviour and re-aim.  This
 * bench drives every scheme with three closed-loop attacker families
 * through the ActivationSource pipeline (no recorded baselines):
 *
 *   Static       fixed Gaussian targets per bank (paper's kernels,
 *                replayed through the closed-loop engine)
 *   MultiBank    one target set synchronized across all 16 banks
 *   RefreshAware rotates an aggressor to a fresh row whenever the
 *                defense refreshes victims around it
 *
 * Expected shape: exact per-row counting (CounterCache) is largely
 * insensitive to re-aiming, while tree/group schemes that concentrate
 * counters on learned hot locations (PRCAT/DRCAT) pay much more
 * refresh power against the refresh-aware attacker - each re-aim
 * lands in a coarse region whose whole span must be refreshed on
 * trigger.  PRA is memoryless, so adaptation gains nothing.
 */

#include <iostream>

#include "common/table.hpp"
#include "bench_common.hpp"

using namespace catsim;

int
main()
{
    const double scale = benchScale();
    SweepRunner sweep(scale);
    benchBanner("Fig 14: CMRPO under adaptive (closed-loop) attackers",
                scale, sweep.jobs());
    const std::uint64_t kernels = attackKernelCount();
    std::cout << "averaging over " << kernels
              << " target placements per cell (CATSIM_ATTACK_KERNELS)"
              << "\n\n";

    const AttackerKind attackers[] = {AttackerKind::Static,
                                      AttackerKind::MultiBank,
                                      AttackerKind::RefreshAware};
    const std::uint32_t threshold = 32768;
    const SchemeConfig schemes[] = {
        mkScheme(SchemeKind::CounterCache, 2048, 0, threshold),
        mkScheme(SchemeKind::Prcat, 64, 11, threshold),
        mkScheme(SchemeKind::Drcat, 64, 11, threshold),
        mkScheme(SchemeKind::Pra, 0, 0, threshold,
                 praProbabilityFor(threshold)),
    };
    const char *schemeNames[] = {"CC", "PRCAT", "DRCAT", "PRA"};

    // One flat closed-loop grid: attacker rows x scheme columns x
    // `kernels` placements per cell.
    std::vector<AdaptiveCell> cells;
    for (AttackerKind attacker : attackers) {
        for (const SchemeConfig &cfg : schemes) {
            for (std::uint64_t k = 1; k <= kernels; ++k) {
                AdaptiveCell c;
                c.preset = SystemPreset::DualCore2Ch;
                c.attack.attacker = attacker;
                c.attack.mode = AttackMode::Medium;
                c.attack.kernel = k;
                c.scheme = cfg;
                cells.push_back(c);
            }
        }
    }

    const std::vector<EvalResult> results = sweep.runAdaptive(cells);

    TextTable table({"attacker", "CC", "PRCAT", "DRCAT", "PRA"});
    // means[attacker][scheme], folded from cell-indexed results.
    double means[3][4] = {};
    std::size_t idx = 0;
    for (int a = 0; a < 3; ++a) {
        std::vector<std::string> row{attackerKindName(attackers[a])};
        for (int s = 0; s < 4; ++s) {
            RunningStat stat;
            for (std::uint64_t k = 1; k <= kernels; ++k)
                stat.add(results[idx++].cmrpo);
            means[a][s] = stat.mean();
            row.push_back(TextTable::pct(stat.mean(), 2));
            benchMetric("cmrpo_mean_"
                            + std::string(
                                attackerKindName(attackers[a]))
                            + "_" + schemeNames[s],
                        stat.mean());
        }
        table.addRow(std::move(row));
    }
    table.print(std::cout);

    // The adaptive gain: how much more mitigation power the
    // refresh-aware attacker extracts than the static kernels.
    std::cout << "\nrefresh-aware / static CMRPO ratio per scheme:\n";
    for (int s = 0; s < 4; ++s) {
        const double gain =
            means[0][s] > 0.0 ? means[2][s] / means[0][s] : 0.0;
        std::cout << "  " << schemeNames[s] << ": "
                  << TextTable::fixed(gain, 2) << "x\n";
        benchMetric("adaptive_gain_" + std::string(schemeNames[s]),
                    gain);
    }
    // Per-bank CMRPO cannot distinguish MultiBank from Static: every
    // scheme instance watches one bank, and synchronizing target
    // placement across banks changes no single bank's stream
    // statistics (the identical rows above demonstrate it).  The
    // coordination shows up in the *timing* path instead - all banks
    // trigger victim refreshes in the same window - so that leg is
    // measured as ETO through the full open-loop timing pipeline.
    std::cout << "\nETO through the timing path (kernel 1, Medium):\n";
    std::vector<SweepCell> etoCells;
    for (AttackKernelKind kind : {AttackKernelKind::Gaussian,
                                  AttackKernelKind::MultiBank}) {
        for (int s = 1; s <= 2; ++s) { // PRCAT, DRCAT
            SweepCell c;
            c.preset = SystemPreset::DualCore2Ch;
            c.workload.name = "comm2";
            c.workload.isAttack = true;
            c.workload.attackMode = AttackMode::Medium;
            c.workload.attackKernel = 1;
            c.workload.attackKernelKind = kind;
            c.scheme = schemes[s];
            etoCells.push_back(c);
        }
    }
    const std::vector<double> etos = sweep.runEto(etoCells);

    TextTable etoTable({"kernel placement", "PRCAT", "DRCAT"});
    idx = 0;
    for (AttackKernelKind kind : {AttackKernelKind::Gaussian,
                                  AttackKernelKind::MultiBank}) {
        std::vector<std::string> row{attackKernelKindName(kind)};
        for (int s = 1; s <= 2; ++s) {
            row.push_back(TextTable::pct(etos[idx], 3));
            benchMetric("eto_"
                            + std::string(attackKernelKindName(kind))
                            + "_" + schemeNames[s],
                        etos[idx]);
            ++idx;
        }
        etoTable.addRow(std::move(row));
    }
    etoTable.print(std::cout);

    // Attacker-success complement (PR 4 follow-on): the defense-cost
    // grids above say what mitigation *costs*; this says what the
    // attacker *achieved* - the maximum activations any row
    // accumulated before a refresh covered its victims, as a fraction
    // of the (scaled) refresh threshold.  Deterministic schemes pin
    // this at ~1.0 by construction; PRA's probabilistic gap lets a
    // flat-out hammer overshoot.
    std::cout << "\nmax inter-refresh disturbance / threshold "
                 "(kernel 1, Medium):\n";
    std::vector<AdaptiveCell> disturbCells;
    for (AttackerKind attacker : attackers) {
        for (const SchemeConfig &cfg : schemes) {
            AdaptiveCell c;
            c.preset = SystemPreset::DualCore2Ch;
            c.attack.attacker = attacker;
            c.attack.mode = AttackMode::Medium;
            c.attack.kernel = 1;
            c.scheme = cfg;
            disturbCells.push_back(c);
        }
    }
    const std::vector<double> disturb = sweep.runAdaptiveMetric(
        disturbCells,
        [](ExperimentRunner &r, const AdaptiveCell &c) {
            return r.evalAdaptiveDisturbance(c.preset, c.attack,
                                             c.scheme);
        });

    TextTable disturbTable({"attacker", "CC", "PRCAT", "DRCAT", "PRA"});
    idx = 0;
    for (int a = 0; a < 3; ++a) {
        std::vector<std::string> row{attackerKindName(attackers[a])};
        for (int s = 0; s < 4; ++s) {
            row.push_back(TextTable::fixed(disturb[idx], 3));
            benchMetric("disturb_max_"
                            + std::string(
                                attackerKindName(attackers[a]))
                            + "_" + schemeNames[s],
                        disturb[idx]);
            ++idx;
        }
        disturbTable.addRow(std::move(row));
    }
    disturbTable.print(std::cout);

    std::cout << "\nExpected shape: re-aiming defeats learned counter "
                 "placement (PRCAT/DRCAT pay multiples of their "
                 "static-attack CMRPO; each rotated aggressor lands "
                 "in a coarse tree region), exact per-row counting "
                 "(CC) is nearly insensitive, and memoryless PRA "
                 "gains nothing from adaptation; the disturbance "
                 "table shows every deterministic scheme holding the "
                 "attacker at the threshold while PRA does not.\n";

    // Closed-loop ETO (the runTimingOnSources stimulus path): unlike the
    // open-loop ETO table above - where the attacker is a recorded
    // trace that cannot react - every cell here runs two full timing
    // legs (baseline fleet vs mitigated fleet) with the attacker
    // hammering at the bank's maximum ACT rate, and RefreshAware
    // attackers re-aiming on the defense's observed refreshes while
    // the clock runs.  This is the slowdown an adaptive attacker
    // actually inflicts, not the one a frozen stream would.
    std::cout << "\nclosed-loop ETO through the stimulus timing "
                 "path (kernel 1, Medium):\n";
    std::vector<AdaptiveCell> clEtoCells;
    for (AttackerKind attacker : attackers) {
        for (const SchemeConfig &cfg : schemes) {
            AdaptiveCell c;
            c.preset = SystemPreset::DualCore2Ch;
            c.attack.attacker = attacker;
            c.attack.mode = AttackMode::Medium;
            c.attack.kernel = 1;
            c.scheme = cfg;
            clEtoCells.push_back(c);
        }
    }
    const std::vector<double> clEtos = sweep.runAdaptiveEto(clEtoCells);

    TextTable clEtoTable({"attacker", "CC", "PRCAT", "DRCAT", "PRA"});
    idx = 0;
    for (int a = 0; a < 3; ++a) {
        std::vector<std::string> row{attackerKindName(attackers[a])};
        for (int s = 0; s < 4; ++s) {
            row.push_back(TextTable::pct(clEtos[idx], 3));
            benchMetric("adaptive_eto_"
                            + std::string(
                                attackerKindName(attackers[a]))
                            + "_" + schemeNames[s],
                        clEtos[idx]);
            ++idx;
        }
        clEtoTable.addRow(std::move(row));
    }
    clEtoTable.print(std::cout);

    std::cout << "\nExpected shape: a saturating hammer makes every "
                 "victim refresh a stall the bank cannot hide, so "
                 "closed-loop ETO exceeds the trace-driven table "
                 "above; RefreshAware re-aiming raises PRCAT/DRCAT "
                 "further (rotated aggressors trigger coarse-region "
                 "refreshes more often) while CC, which refreshes "
                 "exactly two victim rows per trigger, barely moves.\n";
    return 0;
}
