/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * A span is one timed call the benchmark made into a simulator layer:
 * its name (the layer), host start/end in seconds since the tracer was
 * created, the span that was open on the same thread when it began
 * (its parent), the sweep cell it belongs to, and two free fields - a
 * grouping key (which baseline a call waited on) and a tag (which
 * scheme kind a replay ran).  Spans stay in memory and are written out
 * once, when the run ends.  Self time is a span's duration minus the
 * durations of its direct children.
 */

#ifndef CATSIM_PERFBENCH_TRACER_HPP
#define CATSIM_PERFBENCH_TRACER_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** Host seconds on the steady clock. */
inline double
hostNow()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch())
        .count();
}

struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    std::int64_t id = 0;
    std::int64_t parent = -1; //!< -1 for a root span
    std::int64_t cell = -1;   //!< sweep cell index, -1 outside cells
    std::int64_t key = -1;    //!< grouping key (e.g. workload index)
    std::string tag;          //!< free label (e.g. scheme kind)

    double seconds() const { return end - start; }
};

class Tracer
{
  public:
    Tracer() : origin_(hostNow()) {}

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    const std::vector<Span> &spans() const { return spans_; }

    /** Id the next span will get: marks phase boundaries. */
    std::int64_t nextId()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return nextId_;
    }

    /** Spans lost because storing them failed. */
    std::uint64_t dropped() const { return dropped_.load(); }

    /** Self time of every span, indexed like spans(). */
    std::vector<double> selfSeconds() const;

    /** Write every span as one JSON document (with @p manifest). */
    bool writeJson(const std::string &path,
                   const std::string &manifest) const;

  private:
    friend class ScopedSpan;

    std::int64_t open();
    void close(Span span);

    double origin_;
    std::atomic<std::uint64_t> dropped_{0};
    std::mutex mutex_;
    std::int64_t nextId_ = 0;
    std::vector<Span> spans_;
};

/**
 * Records one span for its lifetime; a null tracer records nothing.
 * Spans opened while another is open on the same thread become its
 * children and inherit its cell.
 */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const char *name, std::int64_t cell = -1,
               std::int64_t key = -1, std::string tag = {});
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer_;
    Span span_;
    std::int64_t savedParent_ = -1;
    std::int64_t savedCell_ = -1;
};

} // namespace perfbench

#endif // CATSIM_PERFBENCH_TRACER_HPP
