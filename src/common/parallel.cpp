#include "parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.hpp"

namespace catsim
{

std::size_t
defaultJobs()
{
    if (const char *env = std::getenv("CATSIM_JOBS")) {
        char *end = nullptr;
        const long v = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && v >= 1)
            return static_cast<std::size_t>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn,
            std::size_t jobs)
{
    // Dynamic index handout: cheap and balances uneven cells.  A
    // failed call poisons the grid so no worker picks up a new index
    // (with one worker, the serial stop-at-first-throw) instead of
    // burning through the remaining cells.  The lowest failing cell
    // index wins regardless of which worker hit it, so the rethrown
    // message is stable across job counts whenever the set of failing
    // cells is.
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex errMutex;
    std::size_t errIndex = n;
    std::exception_ptr errPtr;
    const auto work = [&] {
        for (std::size_t i = next.fetch_add(1); i < n;
             i = next.fetch_add(1)) {
            if (failed.load(std::memory_order_relaxed))
                return;
            try {
                fault::maybeThrow("parallel_cell");
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errMutex);
                if (!errPtr || i < errIndex) {
                    errPtr = std::current_exception();
                    errIndex = i;
                }
                failed.store(true, std::memory_order_relaxed);
            }
        }
    };

    const std::size_t workers = std::min(jobs ? jobs : 1, n);
    if (workers <= 1) {
        work(); // on the caller, in index order
    } else {
        // The caller only waits: a cell run here would nest under
        // whatever the caller has open (a profiler's thread_local
        // span, say).
        std::vector<std::thread> threads;
        threads.reserve(workers);
        try {
            for (std::size_t w = 0; w < workers; ++w)
                threads.emplace_back(work);
        } catch (...) {
            // A thread failed to start.  The started ones use this
            // frame's locals, so stop the hand-out and join them
            // before unwinding.
            failed.store(true, std::memory_order_relaxed);
            for (auto &t : threads)
                t.join();
            throw;
        }
        for (auto &t : threads)
            t.join();
    }
    if (errPtr) {
        try {
            std::rethrow_exception(errPtr);
        } catch (const std::exception &e) {
            throw std::runtime_error(
                "cell " + std::to_string(errIndex) + ": " + e.what());
        }
        // Non-std exceptions propagate unwrapped.
    }
}

} // namespace catsim
