/**
 * @file
 * Parallel sweep engine over experiment grids.
 *
 * The paper's headline figures are grids of independent
 * workload x scheme x system evaluations (Fig 10: counters x levels x
 * thresholds x 18 workloads), so a SweepRunner takes the whole grid as
 * a flat vector of cells and evaluates them on parallelFor's threads
 * (CATSIM_JOBS of them by default).  Results come back indexed by cell
 * - never by completion order - and every cell's evaluation is
 * deterministic given its spec, so the output is bit-identical to the
 * serial path at any job count.
 *
 * Cells that share a (preset, workload) pair share one baseline timing
 * run: the underlying ExperimentRunner's cache hands out per-key
 * shared futures, so the first cell to need a baseline computes it and
 * concurrent cells block instead of duplicating the work.  To keep
 * workers from blocking, the runner hands out the first pending cell
 * of every baseline, in index order, before any second cell, so a cold
 * workload-major grid computes up to `jobs` baselines at once.
 *
 * Adaptive cells share no baseline, but cells of one attack can share
 * its stimulus (runAdaptive, runAdaptiveEto): the runner hands them
 * out group-major, as one task per group of pending cells with the
 * same preset and attack spec (and, for runAdaptive, an open-loop
 * attack and one pool grouping), at most ceil(pending / jobs) cells
 * per task, and tasks in the order of their first cell.  A group is
 * evaluated in one call, then each of its cells passes the
 * `sweep_cell` fail point in task order; a fired hit fails that cell
 * alone, and a group whose evaluation throws re-runs its cells one at
 * a time, so a failure is always named by its own cell.
 *
 * The order decides only when a cell runs, never its result; it does
 * decide which hit of the `sweep_cell` fail point lands on which cell,
 * since every attempt of a cell takes one hit, in hand-out order.
 *
 * Crash safety: with CATSIM_CHECKPOINT=dir every finished cell is
 * journaled (sim/checkpoint.hpp) the moment it completes, and a
 * restarted run replays the journal and re-runs only the missing cells
 * - because each cell is a pure function of its spec, the resumed
 * output is byte-identical to an uninterrupted run.  The default is
 * fail-fast: the first failure stops the hand-out of new cells and is
 * rethrown as "cell <grid index> (<label>): <what>".  With
 * CATSIM_SWEEP_KEEP_GOING=1 a failing cell is retried once and then
 * recorded as a structured CellError while the rest of the grid
 * completes; its result slot holds NaN (metric runs) or an EvalResult
 * with cmrpo = NaN.
 */

#ifndef CATSIM_SIM_SWEEP_HPP
#define CATSIM_SIM_SWEEP_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment.hpp"

namespace catsim
{

/** One grid point: what to run and which scheme to evaluate. */
struct SweepCell
{
    SystemPreset preset = SystemPreset::DualCore2Ch;
    WorkloadSpec workload;
    SchemeConfig scheme;
    /** Free-form variant id for runMetric callbacks (e.g. which split
     *  schedule an ablation cell evaluates); unused by runCmrpo/Eto. */
    std::uint64_t tag = 0;

    /** The cell as one SystemConfig - the single parse/format/label
     *  surface (sim/system_config.hpp); benches derive cell tags from
     *  this instead of hand-assembling label strings. */
    SystemConfig system() const { return {preset, workload, scheme}; }

    /** "scheme@workload/preset" via SystemConfig::label(). */
    std::string label() const { return system().label(); }
};

/**
 * One closed-loop grid point (bench_fig14_adaptive): an adaptive
 * attack scenario against a scheme.  No recorded baseline is involved,
 * so these cells are pure functions of their spec and need no shared
 * cache at all.
 */
struct AdaptiveCell
{
    SystemPreset preset = SystemPreset::DualCore2Ch;
    AdaptiveAttackSpec attack;
    SchemeConfig scheme;
};

/** Evaluates experiment grids concurrently. */
class SweepRunner
{
  public:
    /**
     * @param scale Experiment scale forwarded to ExperimentRunner.
     * @param jobs  Worker count (1 = serial; default CATSIM_JOBS).
     */
    explicit SweepRunner(double scale = experimentScale(),
                         std::size_t jobs = defaultJobs());

    /** CMRPO replay for every cell; results[i] belongs to cells[i]. */
    std::vector<EvalResult> runCmrpo(const std::vector<SweepCell> &cells);

    /** ETO timing run for every cell; results[i] belongs to cells[i]. */
    std::vector<double> runEto(const std::vector<SweepCell> &cells);

    /**
     * Closed-loop adaptive-attack replay for every cell; results[i]
     * belongs to cells[i].  Cells never touch the baseline cache, so
     * the grid parallelizes embarrassingly and stays bit-identical at
     * any job count.  Cells of one open-loop attack whose schemes
     * share a pool grouping go out as groups (see the file comment)
     * and share one fleet (ExperimentRunner::evalAdaptive); a
     * closed-loop attack's cells go out one per task.
     */
    std::vector<EvalResult> runAdaptive(
        const std::vector<AdaptiveCell> &cells);

    /**
     * Closed-loop ETO timing runs (two runTimingOnSources legs per
     * cell, see ExperimentRunner::evalAdaptiveEto); results[i] belongs
     * to cells[i].  Like runAdaptive, cells are pure functions of
     * their spec - no baseline cache, bit-identical at any job count.
     * Cells of one attack, open or closed loop, go out as groups (see
     * the file comment) and share one unmitigated leg.
     */
    std::vector<double> runAdaptiveEto(
        const std::vector<AdaptiveCell> &cells);

    /**
     * Arbitrary per-cell metric over closed-loop cells (the
     * AdaptiveCell counterpart of runMetric); results[i] belongs to
     * cells[i], and every cell goes out alone.  @p fn must be
     * deterministic given its cell and thread-safe - the runner's
     * evalAdaptive* family is.  fig14 uses this for the
     * attacker-success (max inter-refresh disturbance) complement of
     * the CMRPO grid.
     */
    std::vector<double> runAdaptiveMetric(
        const std::vector<AdaptiveCell> &cells,
        const std::function<double(ExperimentRunner &,
                                   const AdaptiveCell &)> &fn);

    /**
     * Arbitrary per-cell metric on the same threads and shared baseline
     * cache; results[i] belongs to cells[i].  @p fn must be
     * deterministic given its cell and thread-safe against concurrent
     * calls (the shared ExperimentRunner is).  This is how benches
     * with bespoke evaluations (e.g. the split-schedule ablation's
     * victim-row replays) ride the sweep engine without teaching it
     * their metric.
     */
    std::vector<double> runMetric(
        const std::vector<SweepCell> &cells,
        const std::function<double(ExperimentRunner &,
                                   const SweepCell &)> &fn);

    /** The shared runner (baseline cache, counters, disk cache dir). */
    ExperimentRunner &runner() { return runner_; }

    std::size_t jobs() const { return jobs_; }
    double scale() const { return runner_.scale(); }

    /**
     * Directory for the crash-safe run journal; "" disables
     * checkpointing.  Defaults to the CATSIM_CHECKPOINT environment
     * variable.  Not thread-safe against in-flight runs.
     */
    void setCheckpointDir(const std::string &dir) { checkpointDir_ = dir; }
    const std::string &checkpointDir() const { return checkpointDir_; }

    /**
     * Keep-going mode: a failing cell is retried once, then recorded
     * in lastErrors() while every other cell completes.  Defaults to
     * the CATSIM_SWEEP_KEEP_GOING environment variable (=1 enables);
     * off means fail-fast (the first cell failure aborts the grid,
     * though cells finished before it are still journaled).
     */
    void setKeepGoing(bool keepGoing) { keepGoing_ = keepGoing; }
    bool keepGoing() const { return keepGoing_; }

    /**
     * Per-cell errors from the most recent run* call (empty on full
     * success; in fail-fast mode the first of them was thrown).
     * Sorted by cell index.
     */
    const std::vector<CellError> &lastErrors() const { return errors_; }

    /** Cells served from the journal by the most recent run* call. */
    std::size_t lastResumedCells() const { return resumed_; }

  private:
    /**
     * Shared body of every run* method: replays the journal, evaluates
     * the missing cells with @p eval on parallelFor in hand-out order,
     * journals each cell the moment it finishes, and reports failures
     * (see the file comment).  @p kind names the run flavor (part of
     * the journal run key).  When @p groupKey is given, pending cells
     * whose keys are equal and non-empty go out together as one task,
     * and @p evalGroup maps the task's cells to their results in
     * order.
     */
    template <typename Result, typename Cell, typename Eval,
              typename GroupKey = std::nullptr_t,
              typename EvalGroup = std::nullptr_t>
    std::vector<Result> runJournaled(const char *kind,
                                     const std::vector<Cell> &cells,
                                     const Eval &eval,
                                     const GroupKey &groupKey = nullptr,
                                     const EvalGroup &evalGroup = nullptr);

    ExperimentRunner runner_;
    std::size_t jobs_;
    std::string checkpointDir_;
    bool keepGoing_;
    /** Invocations per run kind in this process, a run-key part: it
     *  tells repeated grids apart and is reproduced by a re-run of the
     *  same program, so resume matches. */
    std::map<std::string, std::uint64_t> seq_;
    std::vector<CellError> errors_;
    std::size_t resumed_ = 0;
};

} // namespace catsim

#endif // CATSIM_SIM_SWEEP_HPP
