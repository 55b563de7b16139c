/**
 * @file
 * The benchmark's three workloads.  Each drives libcatsim's public
 * entry points from outside and reports its simulated results as
 * canonical lines (outputs.hpp):
 *
 *  - cmrpo_cold:  the fig08 grid on a fresh SweepRunner with no disk
 *                 cache, so every pass recomputes the 18 baselines.
 *  - replay_warm: the fig10 grid replayed from baselines that set-up
 *                 computed and saved to a disk cache.
 *  - closed_loop: fig16-style runAdaptive cells plus runAdaptiveEto
 *                 cells, stepped one activation at a time.
 */

#ifndef CATSIM_PERFBENCH_WORKLOADS_HPP
#define CATSIM_PERFBENCH_WORKLOADS_HPP

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "tracer.hpp"

namespace perfbench
{

constexpr std::uint64_t kDefaultSeed = 42;
/** Experiment scale of every workload (ExperimentRunner's s). */
constexpr double kScale = 0.02;

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::size_t jobs = 1;      //!< min(host cores, 2)
    std::string revision = "unknown";
    std::string tmpDir = ".bench_build/tmp";
    std::string traceDir = ".bench_build/traces";
    std::string referenceDir = "perfbench/reference";
    bool writeReference = false;
    bool printInputs = false;
};

/** Named work and event totals, summed by the workloads. */
using Counters = std::map<std::string, double>;

/** What one timed pass simulated. */
struct PassResult
{
    double wall = 0.0;           //!< host seconds of the timed calls
    std::size_t cells = 0;       //!< sweep cells evaluated
    double activations = 0.0;    //!< simulated row activations processed
    std::vector<std::string> lines; //!< checked results, in grid order
    Counters counts;             //!< simulated event counts of the pass
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Untimed preparation before the timed passes.  Repeated in an
     * untraced run (the median is setup_s); traced once otherwise.
     */
    virtual void setup(Tracer *tracer, Counters &once) = 0;

    /** One timed pass over the grid; spans recorded when tracing. */
    virtual PassResult pass(Tracer *tracer) = 0;

    /** Lines for a subset of the grid evaluated again on @p jobs workers. */
    virtual std::vector<std::string> subsetAt(std::size_t jobs) = 0;

    /**
     * Traced runs only: split the simulator's front end from outside
     * into trace / sim.timing / controller spans (plus sim.baseline
     * where the workload has baseline legs).  Returns result lines of
     * the split runs, which must equal the same keys' pass lines.
     */
    virtual std::vector<std::string> splitFrontEnd(Tracer &tracer,
                                                   Counters &once) = 0;

    /** Digest of the generated stimulus (differs between seeds). */
    virtual std::uint64_t inputDigest() const = 0;
};

/** Null when @p opt.workload names no workload. */
std::unique_ptr<Workload> makeWorkload(const Options &opt);

const std::vector<std::string> &workloadNames();

} // namespace perfbench

#endif // CATSIM_PERFBENCH_WORKLOADS_HPP
