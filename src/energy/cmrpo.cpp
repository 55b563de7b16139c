#include "cmrpo.hpp"

#include "common/logging.hpp"

namespace catsim
{

PowerBreakdown
schemePower(const SchemeConfig &config, const SchemeStats &stats,
            double exec_seconds)
{
    if (exec_seconds <= 0.0)
        CATSIM_FATAL("schemePower needs a positive execution time");

    HwCost hw = HwModel::cost(config.kind, config.numCounters,
                              config.maxLevels, config.threshold);
    if (config.sharesPool()) {
        // Rank-shared counter pool: one structure of k x M counters
        // serves k banks.  Every activation pays the bigger array's
        // dynamic access energy (plus the arbitration access already
        // counted in sramAccesses), while leakage and area are the
        // bank's 1/k share.  See docs/DESIGN.md Section 9.
        const double k = static_cast<double>(config.banksPerPool);
        const HwCost rank = HwModel::cost(
            config.kind, config.numCounters * config.banksPerPool,
            config.maxLevels, config.threshold);
        hw.dynPerAccess = rank.dynPerAccess;
        hw.staticPerInterval = rank.staticPerInterval / k;
        hw.areaMm2 = rank.areaMm2 / k;
    }

    PowerBreakdown p;
    // nJ / s = nW; divide by 1e6 for mW.
    const double toMw = 1e-6;

    double dynNj = hw.dynPerAccess * static_cast<double>(stats.activations);
    // PRA draws per decision; a random-eviction counter cache draws
    // per conflict miss (both report through stats.prngBits).
    if (config.kind == SchemeKind::Pra
        || (config.kind == SchemeKind::CounterCache
            && config.evictionPolicy == EvictionPolicyKind::Random)) {
        dynNj += EnergyConstants::kPrngPerBitNj
                 * static_cast<double>(stats.prngBits);
    }
    if (config.kind == SchemeKind::CounterCache) {
        dynNj += EnergyConstants::kCounterDramAccessNj
                 * static_cast<double>(stats.counterDramReads
                                       + stats.counterDramWrites);
    }
    p.dynamic = dynNj / exec_seconds * toMw;

    p.statik = hw.staticPerInterval / EnergyConstants::kIntervalSeconds
               / EnergyConstants::kStaticAmortization * toMw;

    p.refresh = EnergyConstants::kRefreshPerRowNj
                * static_cast<double>(stats.victimRowsRefreshed)
                / exec_seconds * toMw;
    return p;
}

double
cmrpo(const PowerBreakdown &power, RowAddr rows_per_bank)
{
    return power.total() / HwModel::regularRefreshPowerMw(rows_per_bank);
}

double
eto(double baseline_seconds, double mitigated_seconds)
{
    if (baseline_seconds <= 0.0)
        CATSIM_FATAL("eto needs a positive baseline time");
    return (mitigated_seconds - baseline_seconds) / baseline_seconds;
}

} // namespace catsim
