/**
 * @file
 * Shared helpers for the figure/table bench binaries.
 */

#ifndef CATSIM_BENCH_BENCH_COMMON_HPP
#define CATSIM_BENCH_BENCH_COMMON_HPP

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "sim/experiment.hpp"
#include "sim/sweep.hpp"

namespace catsim
{

/**
 * Experiment scale for bench binaries: CATSIM_SCALE when set,
 * otherwise 0.2 (about one fifth of a real 64 ms refresh interval with
 * the refresh threshold co-scaled - see docs/DESIGN.md Section 7).  Set
 * CATSIM_SCALE=1.0 for full-interval runs.
 */
inline double
benchScale()
{
    const char *env = std::getenv("CATSIM_SCALE");
    if (!env)
        return 0.2;
    return experimentScale();
}

/**
 * Attack target placements averaged per cell (fig13, fig14, fig16):
 * CATSIM_ATTACK_KERNELS when set, otherwise 3 (the paper uses 12).  As
 * with CATSIM_SCALE, a set value must be wholly the number, here an
 * integer in [1, 12]; anything else is fatal rather than quietly
 * running another placement count.
 */
inline std::uint64_t
attackKernelCount()
{
    const char *env = std::getenv("CATSIM_ATTACK_KERNELS");
    if (!env)
        return 3;
    char *end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end == env || *end != '\0'
        || std::isspace(static_cast<unsigned char>(env[0])) || v < 1
        || v > 12)
        CATSIM_FATAL("CATSIM_ATTACK_KERNELS='", env,
                     "' is not an integer in [1, 12]");
    return static_cast<std::uint64_t>(v);
}

/** Print the standard bench banner. */
inline void
benchBanner(const std::string &what, double scale, std::size_t jobs = 0)
{
    std::cout << "### " << what << '\n'
              << "### catsim reproduction of Seyedzadeh et al., "
                 "\"Mitigating Wordline Crosstalk using Adaptive Trees "
                 "of Counters\", ISCA 2018\n"
              << "### experiment scale s=" << scale
              << " (CATSIM_SCALE to change; s<1 co-scales epoch length "
                 "and refresh threshold)\n";
    if (jobs > 0)
        std::cout << "### sweep jobs=" << jobs
                  << " (CATSIM_JOBS to change; results are identical "
                     "at any job count)\n";
    std::cout << '\n';
}

/**
 * Mean CMRPO for each scheme config over a list of workload names,
 * evaluated as one parallel sweep grid.  means[i] belongs to
 * configs[i]; workloads accumulate in the given order, so the means
 * are bit-identical to the serial per-config loops they replace.  The
 * single cell builder shared by every config x workload CMRPO grid.
 */
inline std::vector<double>
meanCmrpoPerConfig(SweepRunner &sweep,
                   const std::vector<SchemeConfig> &configs,
                   const std::vector<std::string> &workloads,
                   SystemPreset preset = SystemPreset::DualCore2Ch)
{
    std::vector<SweepCell> cells;
    cells.reserve(configs.size() * workloads.size());
    for (const auto &cfg : configs) {
        for (const auto &w : workloads) {
            SweepCell c;
            c.preset = preset;
            c.workload.name = w;
            c.scheme = cfg;
            cells.push_back(c);
        }
    }
    const auto results = sweep.runCmrpo(cells);
    std::vector<double> means(configs.size());
    std::size_t i = 0;
    for (std::size_t c = 0; c < configs.size(); ++c) {
        RunningStat stat;
        for (std::size_t w = 0; w < workloads.size(); ++w)
            stat.add(results[i++].cmrpo);
        means[c] = stat.mean();
    }
    return means;
}

/** Mean CMRPO per config over the full 18-workload suite. */
inline std::vector<double>
suiteMeanCmrpo(SweepRunner &sweep,
               const std::vector<SchemeConfig> &configs,
               SystemPreset preset = SystemPreset::DualCore2Ch)
{
    std::vector<std::string> names;
    for (const auto &profile : workloadSuite())
        names.push_back(profile.name);
    return meanCmrpoPerConfig(sweep, configs, names, preset);
}

/**
 * Emit a machine-readable result metric.  run_benches.sh collects
 * every `@@METRIC <name> <value>` line from a bench's log into the
 * "metrics" object of its BENCH_<name>.json, so per-figure result
 * values (mean CMRPO/ETO per scheme) are tracked across PRs alongside
 * wall time.  @p name must be space-free; spaces are replaced.
 */
inline void
benchMetric(std::string name, double value)
{
    for (char &c : name)
        if (c == ' ' || c == '\t' || c == '"')
            c = '_';
    std::ostringstream os;
    os << "@@METRIC " << name << ' ' << std::setprecision(10) << value;
    std::cout << os.str() << '\n';
}

/** Scheme shorthand used by several figures. */
inline SchemeConfig
mkScheme(SchemeKind kind, std::uint32_t counters, std::uint32_t levels,
         std::uint32_t threshold, double p = 0.002)
{
    SchemeConfig cfg;
    cfg.kind = kind;
    cfg.numCounters = counters;
    cfg.maxLevels = levels;
    cfg.threshold = threshold;
    cfg.praProbability = p;
    return cfg;
}

/** PRA probability the paper pairs with each refresh threshold. */
inline double
praProbabilityFor(std::uint32_t threshold)
{
    switch (threshold) {
      case 65536: return 0.001;
      case 32768: return 0.002;
      case 16384: return 0.003;
      case 8192: return 0.005;
      default: return 0.002;
    }
}

} // namespace catsim

#endif // CATSIM_BENCH_BENCH_COMMON_HPP
