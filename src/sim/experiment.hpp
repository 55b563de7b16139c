/**
 * @file
 * Experiment orchestration shared by the bench binaries and examples.
 *
 * An ExperimentRunner owns a cache of baseline timing runs (one per
 * workload/system pair) whose recorded activation streams feed cheap
 * scheme replays for CMRPO, and runs full timing simulations for ETO.
 *
 * Scaled experiments: simulating a full 64 ms refresh interval per
 * configuration is expensive, so the runner supports a scale factor
 * s in (0,1] (CATSIM_SCALE).  Scaling shrinks the epoch length AND the
 * refresh threshold together, which preserves the counting dynamics
 * (triggers per epoch, tree shapes, ordering between schemes) exactly;
 * the runner then de-scales the reported refresh power and ETO (both
 * are per-epoch quantities spread over a 1/s shorter run) so reported
 * numbers estimate the unscaled system.  PRA is threshold-free and
 * needs no correction.  docs/DESIGN.md Section 7 discusses fidelity.
 */

#ifndef CATSIM_SIM_EXPERIMENT_HPP
#define CATSIM_SIM_EXPERIMENT_HPP

#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "energy/cmrpo.hpp"
#include "sim/activation_sim.hpp"
#include "sim/system_config.hpp"
#include "sim/timing_sim.hpp"
#include "trace/attack.hpp"
#include "trace/workloads.hpp"

namespace catsim
{

/**
 * Closed-loop attacker families evaluated by bench_fig14_adaptive and
 * the modern scenario corpus of bench_fig16_modern.
 */
enum class AttackerKind
{
    Static,       //!< fixed Gaussian targets, open loop
    MultiBank,    //!< fixed targets synchronized across banks
    RefreshAware, //!< TRR-style: rotates aggressors on observed refresh
    ManySided,    //!< aggressor pairs straddling each victim (v+-1)
    HalfDouble,   //!< far pairs at distance 2 (blast radius 2)
    CloudMix,     //!< benign multi-tenant Zipf mix with phase changes
};

/** Attacker name for labels/reports. */
const char *attackerKindName(AttackerKind kind);

/**
 * One closed-loop attack scenario: every bank is driven by a live
 * per-bank attacker source (no recorded baseline involved), hammering
 * at the bank's maximum activation rate with the paper's Heavy/Medium/
 * Light target mix.
 */
struct AdaptiveAttackSpec
{
    AttackerKind attacker = AttackerKind::Static;
    AttackMode mode = AttackMode::Medium;
    std::uint64_t kernel = 1;          //!< target-placement seed (1..12)
    std::uint64_t seed = 42;           //!< per-bank stream seed base
    std::uint32_t targetsPerBank = 4;  //!< initial aggressors per bank
    std::uint64_t epochs = 2;          //!< scaled 64 ms epochs simulated
};

/** Build the TimingConfig skeleton for a preset. */
TimingConfig makeSystem(SystemPreset preset);

/** Per-workload/scheme evaluation results. */
struct EvalResult
{
    double cmrpo = 0.0;
    PowerBreakdown power;       //!< per bank
    SchemeStats stats;          //!< totals over banks
    double baselineSeconds = 0.0;
};

/**
 * Orchestrates baseline caching, replays and timing runs.
 *
 * Thread safety: every public method may be called concurrently (the
 * SweepRunner does).  The baseline cache hands out one shared_future
 * per (preset, workload) key, so concurrent evaluations that share a
 * baseline compute it exactly once and the rest block on the future.
 * Cached entries live for the runner's lifetime, so returned
 * references stay valid.
 *
 * Disk persistence: when CATSIM_BASELINE_CACHE names a directory (or
 * setBaselineCacheDir() is called), computed baselines - including
 * their recorded activation streams - are serialized there and later
 * runs load them instead of re-running the timing simulation.
 */
class ExperimentRunner
{
  public:
    /**
     * @param scale Experiment scale s in (0,1]; defaults to the
     *              CATSIM_SCALE environment variable (1.0 when unset).
     */
    explicit ExperimentRunner(double scale = experimentScale());

    /**
     * Baseline (no mitigation) timing run with recorded activation
     * streams; cached per (preset, workload).
     */
    const TimingResult &baseline(SystemPreset preset,
                                 const WorkloadSpec &workload);

    /**
     * CMRPO of a scheme on a workload via activation replay of the
     * cached baseline streams.  @p scheme carries the PAPER threshold;
     * the runner applies the scale internally.
     */
    EvalResult evalCmrpo(SystemPreset preset,
                         const WorkloadSpec &workload,
                         const SchemeConfig &scheme);

    /** ETO of a scheme on a workload via a full timing run. */
    double evalEto(SystemPreset preset, const WorkloadSpec &workload,
                   const SchemeConfig &scheme);

    /**
     * CMRPO of a scheme against a closed-loop adaptive attack.  Unlike
     * evalCmrpo there is no recorded baseline: every bank is driven by
     * a live attacker source (RefreshAware sources observe each
     * RefreshAction and re-aim), so the whole cell is one pure
     * function of its spec - cheap, deterministic, and cache-free.
     */
    EvalResult evalAdaptive(SystemPreset preset,
                            const AdaptiveAttackSpec &attack,
                            const SchemeConfig &scheme);

    /**
     * evalAdaptive for every scheme of @p schemes against one attack;
     * result k belongs to schemes[k] and equals evalAdaptive on it
     * alone, bit for bit.  When the attack's sources are open loop
     * (ActivationSource::closedLoop), no scheme can influence them, so
     * one fleet feeds every scheme in one replay pass, and the schemes
     * must then share one pool grouping (replaySources).  Closed-loop
     * sources react to the scheme they face, so each scheme gets a
     * fleet of its own.
     */
    std::vector<EvalResult> evalAdaptive(
        SystemPreset preset, const AdaptiveAttackSpec &attack,
        const std::vector<SchemeConfig> &schemes);

    /** True when the attack's sources react to the defense
     *  (ActivationSource::closedLoop), so schemes cannot share them. */
    bool adaptiveClosedLoop(SystemPreset preset,
                            const AdaptiveAttackSpec &attack) const;

    /**
     * Attacker-success complement to evalAdaptive's defense-cost view:
     * the maximum number of activations any single row accumulated
     * before a refresh covered both of its victims (the
     * test_integration_safety ledger), over all banks of the same
     * closed-loop scenario, reported as a fraction of the scaled
     * refresh threshold.  Deterministic schemes stay at/just above 1.0
     * (a CAT split consumes the triggering access, so a hammered row
     * can overshoot by a few accesses); values meaningfully above 1.0
     * mean the attacker outran the defense (PRA's probabilistic gap).
     * Pure function of its arguments, like evalAdaptive.
     */
    double evalAdaptiveDisturbance(SystemPreset preset,
                                   const AdaptiveAttackSpec &attack,
                                   const SchemeConfig &scheme);

    /**
     * ETO of a scheme under a closed-loop attack, via two full timing
     * runs on the stimulus path (runTimingOnSources): a baseline leg
     * with the identical attacker fleet and no mitigation, and a
     * mitigated leg where every victim refresh blocks the hammered
     * bank.  RefreshAware attackers observe the mitigated leg's
     * RefreshActions mid-flight - the overhead of a defense that is
     * being actively evaded, which no replay of a recorded stream can
     * express.  Pure function of its arguments, like evalAdaptive.
     */
    double evalAdaptiveEto(SystemPreset preset,
                           const AdaptiveAttackSpec &attack,
                           const SchemeConfig &scheme);

    /**
     * evalAdaptiveEto for every scheme of @p schemes against one
     * attack; result k belongs to schemes[k] and equals evalAdaptiveEto
     * on it alone, bit for bit.  The baseline leg runs no scheme, so
     * it runs once for all of them; each scheme then gets its own
     * mitigated leg on a fresh fleet.
     */
    std::vector<double> evalAdaptiveEto(
        SystemPreset preset, const AdaptiveAttackSpec &attack,
        const std::vector<SchemeConfig> &schemes);

    /** Records per core targeting ~1.2 scaled epochs for a profile. */
    std::uint64_t recordsFor(const WorkloadSpec &workload,
                             const TimingConfig &sys) const;

    double scale() const { return scale_; }

    /** Scale a paper threshold for simulation. */
    std::uint32_t scaledThreshold(std::uint32_t threshold) const;

    /**
     * Directory for on-disk baseline persistence; "" disables it.
     * Defaults to the CATSIM_BASELINE_CACHE environment variable.
     * Not thread-safe against in-flight evaluations - set it up front.
     */
    void setBaselineCacheDir(const std::string &dir);
    const std::string &baselineCacheDir() const { return cacheDir_; }

    /**
     * The identity of a (preset, workload) baseline: its key in the
     * in-memory cache, and the name and header key of its disk cache
     * file.  Sweeps hand out one cell per key first (sim/sweep.hpp).
     */
    std::string cacheKey(SystemPreset preset,
                         const WorkloadSpec &workload) const;

    /** On-disk path a baseline would use; "" when caching is off. */
    std::string baselineCachePath(SystemPreset preset,
                                  const WorkloadSpec &workload) const;

    /** Timing simulations actually executed (cache misses). */
    std::uint64_t baselineComputeCount() const
    {
        return computeCount_.load();
    }

    /** Baselines satisfied from the on-disk cache. */
    std::uint64_t baselineDiskLoads() const { return diskLoads_.load(); }

    /** Attacker fleets built by the evalAdaptive* family: one per
     *  stimulus pass, however many schemes the pass fed. */
    std::uint64_t stimulusPasses() const { return stimulusPasses_.load(); }

    /**
     * Live per-bank attacker sources for one closed-loop scenario, as
     * every evalAdaptive* leg gets them: a fresh, identically seeded
     * fleet per call (sources are stateful).  Not counted in
     * stimulusPasses().
     */
    std::vector<std::unique_ptr<ActivationSource>> adaptiveSources(
        const TimingConfig &sys,
        const AdaptiveAttackSpec &attack) const;

  private:
    /** A cached baseline plus the mapper its streams were built with. */
    struct BaselineEntry
    {
        // The mapper must outlive the stream factories referencing it.
        std::unique_ptr<AddressMapper> mapper;
        TimingResult timing;
        /** epochMarkerPositions of each bank stream, found once for
         *  every replay of this baseline. */
        std::vector<std::vector<std::size_t>> markers;
    };
    using BaselinePtr = std::shared_ptr<const BaselineEntry>;

    StreamFactory streamFactory(const WorkloadSpec &workload,
                                const TimingConfig &sys,
                                std::uint64_t records,
                                const AddressMapper &mapper) const;
    /** adaptiveSources for one stimulus pass, counted. */
    std::vector<std::unique_ptr<ActivationSource>> adaptiveFleet(
        const TimingConfig &sys, const AdaptiveAttackSpec &attack);
    SchemeConfig scaledScheme(const SchemeConfig &scheme) const;
    EvalResult evalFromReplay(const ReplayResult &replay,
                              const SchemeConfig &scheme,
                              double exec_seconds,
                              const TimingConfig &sys) const;
    const BaselineEntry &baselineEntry(SystemPreset preset,
                                       const WorkloadSpec &workload);
    BaselinePtr computeBaseline(SystemPreset preset,
                                const WorkloadSpec &workload,
                                const std::string &key);

    double scale_;
    std::string cacheDir_;
    std::mutex mutex_;
    std::map<std::string, std::shared_future<BaselinePtr>> baselines_;
    std::atomic<std::uint64_t> computeCount_{0};
    std::atomic<std::uint64_t> diskLoads_{0};
    std::atomic<std::uint64_t> stimulusPasses_{0};
};

} // namespace catsim

#endif // CATSIM_SIM_EXPERIMENT_HPP
