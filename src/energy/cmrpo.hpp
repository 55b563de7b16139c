/**
 * @file
 * CMRPO - Crosstalk Mitigation Refresh Power Overhead (paper
 * Section VI).
 *
 * CMRPO is the average power a mitigation scheme spends deciding which
 * rows to refresh plus actually refreshing them, relative to the
 * regular retention-refresh power of the bank (2.5 mW per 64K rows).
 * Three components add up (Section VII-B):
 *   1. dynamic power: per-activation scheme energy x activation rate;
 *   2. static power: SRAM + logic leakage over the refresh interval;
 *   3. refresh power: 1 nJ per victim row x victim-refresh rate.
 */

#ifndef CATSIM_ENERGY_CMRPO_HPP
#define CATSIM_ENERGY_CMRPO_HPP

#include "core/factory.hpp"
#include "core/mitigation.hpp"
#include "energy/hw_model.hpp"

namespace catsim
{

/** Power components of a scheme, per bank, in mW. */
struct PowerBreakdown
{
    MilliWatt dynamic = 0.0;
    MilliWatt statik = 0.0;
    MilliWatt refresh = 0.0;

    MilliWatt total() const { return dynamic + statik + refresh; }
};

/**
 * Per-bank power of a scheme given measured event counts.
 *
 * @param config   Scheme configuration (selects the Table II row).
 * @param stats    Event counts accumulated over the run (per bank, or
 *                 totals divided by bank count).
 * @param exec_seconds Wall-clock execution time of the run.
 */
PowerBreakdown schemePower(const SchemeConfig &config,
                           const SchemeStats &stats,
                           double exec_seconds);

/** CMRPO: power overhead relative to regular refresh of the bank. */
double cmrpo(const PowerBreakdown &power, RowAddr rows_per_bank);

/**
 * ETO - execution time overhead: slowdown of a run with mitigation
 * relative to the unprotected baseline (paper Section VI).
 */
double eto(double baseline_seconds, double mitigated_seconds);

} // namespace catsim

#endif // CATSIM_ENERGY_CMRPO_HPP
