/**
 * @file
 * Work-stealing thread pool and parallel-for used by the sweep and
 * shard engines.
 *
 * The pool keeps one deque per worker.  submit() places jobs on the
 * workers' deques round-robin by submission index; a worker pops its
 * own deque LIFO (newest first, cache-warm) and, when its deque is
 * empty, steals the OLDEST job from another worker's deque (FIFO
 * steal, scanning victims round-robin from its own index).  Stealing
 * is what keeps unevenly-loaded fleets busy: when one shard of a
 * sharded simulation runs hot (attacked banks), the workers that
 * drained their own shards pull the hot worker's queued jobs instead
 * of idling.  Jobs are coarse (milliseconds to seconds of simulation),
 * so the deques hang off one pool mutex - the win is the *scheduling
 * policy* (no worker idles while any deque holds work), not lock-free
 * queue throughput.
 *
 * The job count defaults to the CATSIM_JOBS environment variable
 * (hardware concurrency when unset); jobs == 1 degenerates to inline
 * execution on the calling thread so the serial path needs no special
 * casing.  With CATSIM_NUMA_PIN=1 each worker pins itself round-robin
 * across the host's NUMA nodes (Linux; a no-op elsewhere), so
 * shard-per-worker runs keep their scheme state node-local.
 *
 * Determinism contract: scheduling (placement, stealing, pinning)
 * decides only WHERE and WHEN a job runs, never what it computes.
 * Callers index results by job id (e.g. grid cell or shard id), never
 * by completion order, and each job is a pure function of its spec, so
 * any job count - and any steal schedule - produces bit-identical
 * output.  Errors are deterministic too: wait() rethrows the failure
 * of the LOWEST submission index (see below), not the first to finish.
 */

#ifndef CATSIM_COMMON_PARALLEL_HPP
#define CATSIM_COMMON_PARALLEL_HPP

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace catsim
{

/**
 * Job count from the CATSIM_JOBS environment variable; hardware
 * concurrency (at least 1) when unset or unparsable.
 */
std::size_t defaultJobs();

/** True when CATSIM_NUMA_PIN=1 requests worker pinning. */
bool numaPinEnabled();

/**
 * Fixed-size worker pool with per-worker deques and work stealing
 * (LIFO local pop, FIFO cross-worker steal).
 */
class ThreadPool
{
  public:
    /** @param jobs Worker count; 0 and 1 both mean "run inline". */
    explicit ThreadPool(std::size_t jobs = defaultJobs());

    /** Drains outstanding work, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Worker count (1 when running inline). */
    std::size_t jobs() const { return jobs_; }

    /**
     * Enqueue one job on the deque of worker (submission index mod
     * jobs).  With jobs() == 1 the job runs immediately on the calling
     * thread.  Jobs must not submit further jobs.
     */
    void submit(std::function<void()> job);

    /**
     * Block until every submitted job has finished.  If any jobs
     * threw, rethrows the error of the job with the LOWEST submission
     * index (the rest are dropped), wrapped as a std::runtime_error
     * whose message is prefixed with "task N:" - so the reported
     * failure is deterministic across thread schedules (and steal
     * schedules) whenever the set of failing jobs is.  Non-std
     * exceptions propagate unwrapped.
     */
    void wait();

    /**
     * Jobs executed by a worker other than the one they were placed
     * on (i.e. successful steals) since construction.  Scheduling
     * telemetry only - the result of a run never depends on it.
     */
    std::uint64_t steals() const
    {
        return steals_.load(std::memory_order_relaxed);
    }

  private:
    void workerLoop(std::size_t self);
    void recordException(std::size_t seq);
    /** Pop a runnable job for worker @p self; false when none exist.
     *  Caller holds mutex_. */
    bool takeJob(std::size_t self,
                 std::pair<std::size_t, std::function<void()>> *out,
                 bool *stolen);

    std::size_t jobs_;
    std::vector<std::thread> workers_;
    /** One deque per worker: owner pops back (LIFO), thieves pop
     *  front (FIFO).  All guarded by mutex_ - see the file comment. */
    std::vector<std::deque<std::pair<std::size_t, std::function<void()>>>>
        queues_;
    std::mutex mutex_;
    std::condition_variable workReady_;
    std::condition_variable allDone_;
    std::size_t inFlight_ = 0;
    std::size_t submitSeq_ = 0;
    bool stopping_ = false;
    std::exception_ptr firstError_;
    std::size_t firstErrorSeq_ = 0;
    std::atomic<std::uint64_t> steals_{0};
};

/**
 * Run fn(0) .. fn(n - 1) across @p jobs workers and block until all
 * complete.  Indices are handed out dynamically, so per-index work may
 * be uneven; with jobs <= 1 the calls happen in index order on the
 * calling thread.  If calls threw, rethrows the error of the lowest
 * failing index as a std::runtime_error prefixed with "cell N:" (among
 * the cells that actually ran before the grid was poisoned), so the
 * surfaced failure names a cell rather than a thread.  Non-std
 * exceptions propagate unwrapped.
 */
void parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn,
                 std::size_t jobs = defaultJobs());

} // namespace catsim

#endif // CATSIM_COMMON_PARALLEL_HPP
