#include "sweep.hpp"

#include <limits>
#include <sstream>
#include <type_traits>

namespace catsim
{

namespace
{

/** Canonical spec string: the whole cell, so a changed grid misses. */
std::string
cellSpec(const SweepCell &c)
{
    return c.system().format() + "|tag=" + std::to_string(c.tag);
}

std::string
cellSpec(const AdaptiveCell &c)
{
    std::ostringstream os;
    os << SystemConfig{c.preset, WorkloadSpec{}, c.scheme}.format()
       << "|attacker=" << attackerKindName(c.attack.attacker)
       << "|mode=" << static_cast<int>(c.attack.mode)
       << "|kernel=" << c.attack.kernel << "|seed=" << c.attack.seed
       << "|targets=" << c.attack.targetsPerBank
       << "|epochs=" << c.attack.epochs;
    return os.str();
}

std::string
cellLabel(const SweepCell &c)
{
    return c.label();
}

std::string
cellLabel(const AdaptiveCell &c)
{
    return std::string(attackerKindName(c.attack.attacker)) + "@"
           + SystemConfig{c.preset, WorkloadSpec{}, c.scheme}.label();
}

/** Journal blob codecs; doubles bit-exact so resumes are identical. */
void
putResult(BlobWriter &w, double v)
{
    w.putDouble(v);
}

void
putResult(BlobWriter &w, const EvalResult &e)
{
    w.putDouble(e.cmrpo);
    w.putDouble(e.power.dynamic);
    w.putDouble(e.power.statik);
    w.putDouble(e.power.refresh);
    w.putDouble(e.baselineSeconds);
    w.putStats(e.stats);
}

bool
getResult(BlobReader &r, double *v)
{
    return r.getDouble(v);
}

bool
getResult(BlobReader &r, EvalResult *e)
{
    return r.getDouble(&e->cmrpo) && r.getDouble(&e->power.dynamic)
           && r.getDouble(&e->power.statik)
           && r.getDouble(&e->power.refresh)
           && r.getDouble(&e->baselineSeconds) && r.getStats(&e->stats);
}

/** Mark a permanently-failed cell's result slot. */
void
markFailed(double *v)
{
    *v = std::numeric_limits<double>::quiet_NaN();
}

void
markFailed(EvalResult *e)
{
    *e = EvalResult{};
    e->cmrpo = std::numeric_limits<double>::quiet_NaN();
}

} // namespace

SweepRunner::SweepRunner(double scale, std::size_t jobs)
    : runner_(scale), tasks_(jobs)
{
}

template <typename Result, typename Cell, typename Eval>
std::vector<Result>
SweepRunner::runJournaled(const char *kind, const std::vector<Cell> &cells,
                          const Eval &eval)
{
    const std::size_t n = cells.size();
    JournaledGrid grid;
    grid.what = std::string(kind) + " cells";
    grid.failSite = "sweep_cell";
    for (std::size_t i = 0; i < n; ++i) {
        grid.keys.push_back(std::string(kind) + '#' + std::to_string(i)
                            + '|' + cellSpec(cells[i]));
        grid.labels.push_back(cellLabel(cells[i]));
        // A sweep cell's group is its baseline, so distinct baselines
        // start first; closed-loop cells share no set-up.
        if constexpr (std::is_same_v<Cell, SweepCell>) {
            const SweepCell &c = cells[i];
            grid.groups.push_back(runner_.cacheKey(c.preset, c.workload));
        }
    }
    const std::uint64_t seq = tasks_.nextSeq(kind);
    if (!tasks_.checkpointDir().empty()) {
        std::ostringstream runKey;
        runKey << kind << "|seq=" << seq << "|scale=" << std::hexfloat
               << scale() << "|cells=" << n;
        for (const auto &k : grid.keys)
            runKey << '|' << k;
        grid.runKey = runKey.str();
    }

    std::vector<Result> results(n);
    tasks_.run(
        grid,
        [&results](std::size_t i, const std::string &blob) {
            BlobReader r(blob);
            return getResult(r, &results[i]) && r.atEnd();
        },
        [&](std::size_t i) { results[i] = eval(cells[i]); },
        [&results](std::size_t i) {
            BlobWriter w;
            putResult(w, results[i]);
            return w.str();
        });
    for (const CellError &e : tasks_.lastErrors())
        markFailed(&results[e.index]);
    return results;
}

std::vector<EvalResult>
SweepRunner::runCmrpo(const std::vector<SweepCell> &cells)
{
    return runJournaled<EvalResult>(
        "cmrpo", cells, [this](const SweepCell &c) {
            return runner_.evalCmrpo(c.preset, c.workload, c.scheme);
        });
}

std::vector<double>
SweepRunner::runEto(const std::vector<SweepCell> &cells)
{
    return runJournaled<double>(
        "eto", cells, [this](const SweepCell &c) {
            return runner_.evalEto(c.preset, c.workload, c.scheme);
        });
}

std::vector<EvalResult>
SweepRunner::runAdaptive(const std::vector<AdaptiveCell> &cells)
{
    return runJournaled<EvalResult>(
        "adaptive", cells, [this](const AdaptiveCell &c) {
            return runner_.evalAdaptive(c.preset, c.attack, c.scheme);
        });
}

std::vector<double>
SweepRunner::runAdaptiveEto(const std::vector<AdaptiveCell> &cells)
{
    return runJournaled<double>(
        "adaptive-eto", cells, [this](const AdaptiveCell &c) {
            return runner_.evalAdaptiveEto(c.preset, c.attack, c.scheme);
        });
}

std::vector<double>
SweepRunner::runAdaptiveMetric(
    const std::vector<AdaptiveCell> &cells,
    const std::function<double(ExperimentRunner &,
                               const AdaptiveCell &)> &fn)
{
    return runJournaled<double>(
        "adaptive-metric", cells,
        [this, &fn](const AdaptiveCell &c) { return fn(runner_, c); });
}

std::vector<double>
SweepRunner::runMetric(
    const std::vector<SweepCell> &cells,
    const std::function<double(ExperimentRunner &, const SweepCell &)>
        &fn)
{
    return runJournaled<double>(
        "metric", cells,
        [this, &fn](const SweepCell &c) { return fn(runner_, c); });
}

} // namespace catsim
