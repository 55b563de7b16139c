#include "sweep.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "common/fault_injection.hpp"
#include "common/logging.hpp"

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

/** Every AdaptiveAttackSpec field, as the tail of a spec string. */
std::string
attackSpec(const AdaptiveAttackSpec &a)
{
    std::ostringstream os;
    os << "|attacker=" << attackerKindName(a.attacker)
       << "|mode=" << static_cast<int>(a.mode) << "|kernel=" << a.kernel
       << "|seed=" << a.seed << "|targets=" << a.targetsPerBank
       << "|epochs=" << a.epochs;
    return os.str();
}

std::string
cellSpec(const AdaptiveCell &c)
{
    return SystemConfig{c.preset, WorkloadSpec{}, c.scheme}.format()
           + attackSpec(c.attack);
}

/** What a group of cells shares: the preset and the whole attack. */
std::string
stimulusKey(const AdaptiveCell &c)
{
    return std::to_string(static_cast<int>(c.preset)) + attackSpec(c.attack);
}

/** The schemes of a group's cells, in order. */
std::vector<SchemeConfig>
groupSchemes(const std::vector<const AdaptiveCell *> &group)
{
    std::vector<SchemeConfig> schemes;
    for (const AdaptiveCell *c : group)
        schemes.push_back(c->scheme);
    return schemes;
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

/** Keep-going mode from CATSIM_SWEEP_KEEP_GOING (=1 enables). */
bool
keepGoingFromEnv()
{
    const char *env = std::getenv("CATSIM_SWEEP_KEEP_GOING");
    return env && std::string(env) == "1";
}

/** A CellError for cell @p index from the exception being handled. */
CellError
currentCellError(std::size_t index, const std::string &label, int attempts)
{
    CellError err{index, label, "unknown error", attempts};
    try {
        throw;
    } catch (const std::exception &e) {
        err.message = e.what();
    } catch (...) {
    }
    return err;
}

} // namespace

SweepRunner::SweepRunner(double scale, std::size_t jobs)
    : runner_(scale), jobs_(jobs ? jobs : 1),
      checkpointDir_(checkpointDirFromEnv()), keepGoing_(keepGoingFromEnv())
{
}

template <typename Result, typename Cell, typename Eval, typename GroupKey,
          typename EvalGroup>
std::vector<Result>
SweepRunner::runJournaled(const char *kind, const std::vector<Cell> &cells,
                          const Eval &eval, const GroupKey &groupKey,
                          const EvalGroup &evalGroup)
{
    const std::size_t n = cells.size();
    std::vector<std::string> keys;
    keys.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        keys.push_back(std::string(kind) + '#' + std::to_string(i) + '|'
                       + cellSpec(cells[i]));
    const std::uint64_t seq = seq_[kind]++;
    errors_.clear();
    resumed_ = 0;
    std::unique_ptr<CheckpointJournal> journal;
    if (!checkpointDir_.empty()) {
        std::ostringstream runKey;
        runKey << kind << "|seq=" << seq << "|scale=" << std::hexfloat
               << scale() << "|cells=" << n;
        for (const auto &k : keys)
            runKey << '|' << k;
        journal =
            std::make_unique<CheckpointJournal>(checkpointDir_, runKey.str());
    }

    // Replay: journaled cells (validated by key + CRC at open) are
    // decoded in place and never re-run.
    std::vector<Result> results(n);
    std::vector<std::size_t> pending;
    pending.reserve(n);
    std::string blob;
    for (std::size_t i = 0; i < n; ++i) {
        if (journal && journal->lookup(keys[i], &blob)) {
            BlobReader r(blob);
            if (getResult(r, &results[i]) && r.atEnd()) {
                ++resumed_;
                continue;
            }
        }
        pending.push_back(i);
    }
    if (resumed_ > 0)
        CATSIM_INFORM("checkpoint: resumed ", resumed_, "/", n, " ", kind,
                      " cells from ", journal->path());

    // One cell per baseline first: a worker handed a baseline's second
    // cell would only block on the timing run its first cell is still
    // running.  Closed-loop cells share no baseline and keep index
    // order.
    if constexpr (std::is_same_v<Cell, SweepCell>) {
        std::vector<char> leads(n, 0);
        std::set<std::string> seen;
        for (const std::size_t i : pending)
            leads[i] = seen.insert(runner_.cacheKey(cells[i].preset,
                                                    cells[i].workload))
                           .second;
        std::stable_partition(pending.begin(), pending.end(),
                              [&leads](std::size_t i) { return leads[i]; });
    }

    // Tasks, in hand-out order.  Cells with the same non-empty group
    // key share one evaluation, at most ceil(pending / jobs) of them
    // per task so that no grid has fewer tasks than workers; a task
    // goes out in the place of its first cell.
    std::vector<std::vector<std::size_t>> tasks;
    constexpr bool kGrouped = !std::is_null_pointer_v<GroupKey>;
    if constexpr (kGrouped) {
        const std::size_t cap = (pending.size() + jobs_ - 1) / jobs_;
        std::map<std::string, std::size_t> open; // key -> its last task
        for (const std::size_t i : pending) {
            const std::string key = groupKey(cells[i]);
            const auto it = key.empty() ? open.end() : open.find(key);
            if (it != open.end() && tasks[it->second].size() < cap) {
                tasks[it->second].push_back(i);
                continue;
            }
            if (!key.empty())
                open[key] = tasks.size();
            tasks.push_back({i});
        }
    } else {
        for (const std::size_t i : pending)
            tasks.push_back({i});
    }

    // Losing a record only costs a re-run on resume, so keep-going
    // carries on; fail-fast dies loudly, because a broken journal would
    // make every later resume silently partial.
    const auto journalCell = [&](std::size_t i) {
        BlobWriter w;
        putResult(w, results[i]);
        try {
            journal->append(keys[i], w.str());
        } catch (const std::exception &e) {
            if (!keepGoing_)
                throw;
            CATSIM_WARN("checkpoint append failed for ",
                        cellLabel(cells[i]), ": ", e.what());
        }
    };

    std::mutex errMutex;
    const int maxAttempts = keepGoing_ ? 2 : 1;
    // Cell i's attempt failed; called while its error is handled.  True
    // when a retry is left; else the error is recorded, and fail-fast
    // rethrows it, which poisons the grid: no new task starts.
    const auto failed = [&](std::size_t i, int attempt) {
        if (attempt < maxAttempts)
            return true; // transient? one retry
        {
            std::lock_guard<std::mutex> lock(errMutex);
            errors_.push_back(
                currentCellError(i, cellLabel(cells[i]), attempt));
        }
        if (!keepGoing_)
            throw;
        return false; // failed cells are never journaled
    };
    // Cell i alone, from attempt @p first on.
    const auto runCell = [&](std::size_t i, int first) {
        for (int attempt = first; attempt <= maxAttempts; ++attempt) {
            try {
                fault::maybeThrow("sweep_cell");
                results[i] = eval(cells[i]);
                if (journal)
                    journalCell(i);
                return;
            } catch (...) {
                if (!failed(i, attempt))
                    return;
            }
        }
    };
    const auto runTask = [&](std::size_t t) {
        const std::vector<std::size_t> &task = tasks[t];
        if constexpr (kGrouped) {
            if (task.size() > 1) {
                std::vector<const Cell *> group;
                for (const std::size_t i : task)
                    group.push_back(&cells[i]);
                std::vector<Result> out;
                bool shared = true;
                try {
                    out = evalGroup(group);
                } catch (...) {
                    shared = false;
                }
                if (!shared) {
                    // Re-run alone, each cell names its own failure.
                    for (const std::size_t i : task)
                        runCell(i, 1);
                    return;
                }
                // The shared pass was every cell's first attempt; each
                // cell still passes the fail point itself, in task
                // order, and a hit fails that cell alone.
                for (std::size_t k = 0; k < task.size(); ++k) {
                    const std::size_t i = task[k];
                    try {
                        fault::maybeThrow("sweep_cell");
                        results[i] = std::move(out[k]);
                        if (journal)
                            journalCell(i);
                    } catch (...) {
                        if (failed(i, 1))
                            runCell(i, 2);
                    }
                }
                return;
            }
        }
        runCell(task.front(), 1);
    };
    try {
        parallelFor(tasks.size(), runTask, jobs_);
    } catch (...) {
        // parallelFor names the failure by its task's position; the
        // report below names it by its grid index.
        if (keepGoing_ || errors_.empty())
            throw;
    }

    std::sort(errors_.begin(), errors_.end(),
              [](const CellError &a, const CellError &b) {
                  return a.index < b.index;
              });
    if (errors_.empty())
        return results;
    if (!keepGoing_) {
        const CellError &e = errors_.front();
        throw std::runtime_error("cell " + std::to_string(e.index) + " ("
                                 + e.label + "): " + e.message);
    }
    CATSIM_WARN("keep-going: ", errors_.size(), "/", n, " ", kind,
                " cells failed permanently and were not checkpointed");
    for (const auto &e : errors_) {
        CATSIM_WARN("  cell ", e.index, " (", e.label, "), ", e.attempts,
                    " attempts: ", e.message);
        markFailed(&results[e.index]);
    }
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
    // Cells of one attack share its fleet when the fleet is open loop
    // and their schemes share a pool grouping; closed-loop sources
    // react to their own cell's scheme, so such a cell runs alone.
    std::map<std::string, bool> closedLoop; // stimulusKey -> probe
    const auto groupKey = [this, &closedLoop](const AdaptiveCell &c) {
        const std::string stimulus = stimulusKey(c);
        auto it = closedLoop.find(stimulus);
        if (it == closedLoop.end())
            it = closedLoop
                     .emplace(stimulus, runner_.adaptiveClosedLoop(
                                            c.preset, c.attack))
                     .first;
        return it->second ? std::string()
                          : stimulus + "|pool="
                                + std::to_string(c.scheme.poolBanks());
    };
    return runJournaled<EvalResult>(
        "adaptive", cells,
        [this](const AdaptiveCell &c) {
            return runner_.evalAdaptive(c.preset, c.attack, c.scheme);
        },
        groupKey,
        [this](const std::vector<const AdaptiveCell *> &group) {
            return runner_.evalAdaptive(group.front()->preset,
                                        group.front()->attack,
                                        groupSchemes(group));
        });
}

std::vector<double>
SweepRunner::runAdaptiveEto(const std::vector<AdaptiveCell> &cells)
{
    // Cells of one attack share its unmitigated leg, open or closed
    // loop: that leg runs no scheme.
    return runJournaled<double>(
        "adaptive-eto", cells,
        [this](const AdaptiveCell &c) {
            return runner_.evalAdaptiveEto(c.preset, c.attack, c.scheme);
        },
        stimulusKey,
        [this](const std::vector<const AdaptiveCell *> &group) {
            return runner_.evalAdaptiveEto(group.front()->preset,
                                           group.front()->attack,
                                           groupSchemes(group));
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
