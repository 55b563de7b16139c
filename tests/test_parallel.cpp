/**
 * @file
 * Tests for parallelFor (common/parallel).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel.hpp"

namespace catsim
{

namespace
{

/** RAII guard that restores CATSIM_JOBS after a test. */
class JobsEnvGuard
{
  public:
    JobsEnvGuard()
    {
        const char *v = std::getenv("CATSIM_JOBS");
        if (v)
            saved_ = v;
        had_ = v != nullptr;
    }
    ~JobsEnvGuard()
    {
        if (had_)
            ::setenv("CATSIM_JOBS", saved_.c_str(), 1);
        else
            ::unsetenv("CATSIM_JOBS");
    }

  private:
    std::string saved_;
    bool had_ = false;
};

} // namespace

TEST(Parallel, DefaultJobsHonoursEnv)
{
    JobsEnvGuard guard;
    ::setenv("CATSIM_JOBS", "3", 1);
    EXPECT_EQ(defaultJobs(), 3u);
    ::setenv("CATSIM_JOBS", "1", 1);
    EXPECT_EQ(defaultJobs(), 1u);
}

TEST(Parallel, DefaultJobsRejectsGarbage)
{
    JobsEnvGuard guard;
    for (const char *bad : {"0", "-2", "abc", "4x", ""}) {
        ::setenv("CATSIM_JOBS", bad, 1);
        EXPECT_GE(defaultJobs(), 1u) << "input: " << bad;
        EXPECT_NE(defaultJobs(), 0u) << "input: " << bad;
    }
    ::unsetenv("CATSIM_JOBS");
    EXPECT_GE(defaultJobs(), 1u);
}

TEST(Parallel, ParallelForCoversEachIndexOnce)
{
    const std::size_t n = 337;
    // Distinct vector elements: no synchronization needed per slot.
    std::vector<int> hits(n, 0);
    parallelFor(
        n, [&hits](std::size_t i) { ++hits[i]; }, 5);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i], 1) << "index " << i;
}

TEST(Parallel, ParallelForSerialRunsInIndexOrder)
{
    std::vector<std::size_t> order;
    parallelFor(
        10, [&order](std::size_t i) { order.push_back(i); }, 1);
    std::vector<std::size_t> expect(10);
    std::iota(expect.begin(), expect.end(), 0u);
    EXPECT_EQ(order, expect);
}

TEST(Parallel, ParallelForZeroAndExcessWorkers)
{
    std::atomic<int> counter{0};
    parallelFor(0, [&counter](std::size_t) { counter.fetch_add(1); }, 4);
    EXPECT_EQ(counter.load(), 0);
    // More workers than items must still hit every item exactly once.
    parallelFor(3, [&counter](std::size_t) { counter.fetch_add(1); }, 16);
    EXPECT_EQ(counter.load(), 3);
}

TEST(Parallel, ParallelForPropagatesException)
{
    EXPECT_THROW(parallelFor(
                     20,
                     [](std::size_t i) {
                         if (i == 11)
                             throw std::runtime_error("cell failed");
                     },
                     4),
                 std::runtime_error);
}

TEST(Parallel, ParallelForReportsLowestFailingCell)
{
    // All cells throw.  The first indices handed out are 0..jobs-1, so
    // cell 0 always fails and must win the report at any job count.
    for (std::size_t jobs : {std::size_t(1), std::size_t(4)}) {
        try {
            parallelFor(
                16,
                [](std::size_t i) {
                    throw std::runtime_error("cell" + std::to_string(i));
                },
                jobs);
            FAIL() << "expected rethrow at jobs=" << jobs;
        } catch (const std::runtime_error &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("cell 0:"), std::string::npos)
                << "jobs=" << jobs << ": " << what;
            EXPECT_NE(what.find("cell0"), std::string::npos)
                << "jobs=" << jobs << ": " << what;
        }
    }
}

TEST(Parallel, ParallelForBitIdenticalAcrossJobCounts)
{
    // Each cell is a pure function of its index; any job count (and
    // any steal schedule) must produce the same output vector.
    auto cell = [](std::size_t i) {
        std::uint64_t h = i * 0x9E3779B97F4A7C15ULL + 1;
        h ^= h >> 31;
        return h * 0xBF58476D1CE4E5B9ULL;
    };
    const std::size_t n = 97;
    std::vector<std::uint64_t> ref(n);
    parallelFor(
        n, [&ref, &cell](std::size_t i) { ref[i] = cell(i); }, 1);
    for (std::size_t jobs : {2u, 5u, 16u}) {
        std::vector<std::uint64_t> out(n, 0);
        parallelFor(
            n, [&out, &cell](std::size_t i) { out[i] = cell(i); },
            jobs);
        EXPECT_EQ(out, ref) << "jobs=" << jobs;
    }
}

TEST(Parallel, ParallelForPassesNonStdExceptionsThroughUnwrapped)
{
    // Only std::exception carries a message to prefix with "cell N:";
    // anything else reaches the caller as thrown, at any job count.
    for (std::size_t jobs : {std::size_t(1), std::size_t(4)}) {
        try {
            parallelFor(
                8,
                [](std::size_t i) {
                    if (i == 0)
                        throw 42;
                },
                jobs);
            FAIL() << "expected rethrow at jobs=" << jobs;
        } catch (int v) {
            EXPECT_EQ(v, 42) << "jobs=" << jobs;
        }
    }
}

TEST(Parallel, ParallelForSerialNamesFailingIndex)
{
    std::vector<int> ran(10, 0);
    try {
        parallelFor(
            10,
            [&ran](std::size_t i) {
                ran[i] = 1;
                if (i == 7)
                    throw std::runtime_error("seven");
            },
            1);
        FAIL() << "expected rethrow";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("cell 7"), std::string::npos) << what;
        EXPECT_NE(what.find("seven"), std::string::npos) << what;
    }
    // The serial path stops at the first throw.
    EXPECT_EQ(ran[8], 0);
    EXPECT_EQ(ran[9], 0);
}

TEST(Parallel, ParallelForRunsCellsOffTheCallingThread)
{
    // With two or more workers the caller only waits: a cell run on
    // the caller would nest under whatever the caller has open (e.g. a
    // profiler span kept in a thread_local).  Each cell takes 1 ms, so
    // a caller that took cells would get some before the workers
    // drained the grid.
    const std::thread::id caller = std::this_thread::get_id();
    std::mutex mutex;
    std::set<std::thread::id> ids;
    parallelFor(
        64,
        [&](std::size_t) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            std::lock_guard<std::mutex> lock(mutex);
            ids.insert(std::this_thread::get_id());
        },
        4);
    EXPECT_EQ(ids.count(caller), 0u);
    EXPECT_GE(ids.size(), 1u);
    EXPECT_LE(ids.size(), 4u);

    // One worker: every cell runs on the caller, in index order.
    ids.clear();
    parallelFor(
        8,
        [&](std::size_t) {
            std::lock_guard<std::mutex> lock(mutex);
            ids.insert(std::this_thread::get_id());
        },
        1);
    EXPECT_EQ(ids, std::set<std::thread::id>{caller});
}

TEST(Parallel, ParallelForStopsHandingOutAfterAFailure)
{
    // Cell 0 fails at once; every other cell first waits for that
    // failure, then takes 50 ms.  A loop that keeps handing out cells
    // after a failure would count (almost) all 999 of them; one that
    // stops counts only the cells already running on the other
    // workers.
    std::atomic<bool> zeroFailed{false};
    std::atomic<int> counted{0};
    const auto start = std::chrono::steady_clock::now();
    EXPECT_THROW(
        parallelFor(
            1000,
            [&](std::size_t i) {
                if (i == 0) {
                    zeroFailed.store(true);
                    throw std::runtime_error("cell zero");
                }
                while (!zeroFailed.load()
                       && std::chrono::steady_clock::now() - start
                              < std::chrono::seconds(10))
                    std::this_thread::yield();
                std::this_thread::sleep_for(std::chrono::milliseconds(50));
                counted.fetch_add(1);
            },
            4),
        std::runtime_error);
    EXPECT_LT(counted.load(), 100);
}

} // namespace catsim
