/**
 * @file
 * The parallel-for that runs every sweep grid.
 *
 * parallelFor starts a plain group of threads that pull cell indices
 * from one shared atomic counter and joins them, so uneven cells (an
 * ETO cell next to a replay, a cell whose baseline is still running)
 * balance without any scheduler.  The job count defaults to the
 * CATSIM_JOBS environment variable (hardware concurrency when unset);
 * one job degenerates to inline execution on the calling thread so the
 * serial path needs no special casing.
 *
 * Determinism contract: scheduling decides only WHERE and WHEN a cell
 * runs, never what it computes.  Callers index results by cell, never
 * by completion order, and each cell is a pure function of its spec,
 * so any job count produces bit-identical output.  Errors are
 * deterministic too: the failure of the LOWEST failing index is
 * rethrown (see below), not the first to finish.
 */

#ifndef CATSIM_COMMON_PARALLEL_HPP
#define CATSIM_COMMON_PARALLEL_HPP

#include <cstddef>
#include <functional>

namespace catsim
{

/**
 * Job count from the CATSIM_JOBS environment variable; hardware
 * concurrency (at least 1) when unset or unparsable.
 */
std::size_t defaultJobs();

/**
 * Run fn(0) .. fn(n - 1) on min(jobs, n) threads and block until all
 * complete.  Indices are handed out dynamically from one counter, so
 * per-index work may be uneven; with one worker the calls happen in
 * index order on the calling thread, and with two or more the calling
 * thread runs none of them.  Every call passes the `parallel_cell`
 * fail point first.  A failed call stops the hand-out of further
 * indices; the error of the lowest failing index (among the calls that
 * ran) is rethrown as a std::runtime_error prefixed with "cell N:", so
 * the surfaced failure names a cell rather than a thread.  Non-std
 * exceptions propagate unwrapped.
 */
void parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn,
                 std::size_t jobs = defaultJobs());

} // namespace catsim

#endif // CATSIM_COMMON_PARALLEL_HPP
