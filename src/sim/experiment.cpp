#include "experiment.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/config.hpp"
#include "common/logging.hpp"
#include "sim/baseline_io.hpp"

namespace catsim
{

const char *
attackerKindName(AttackerKind kind)
{
    switch (kind) {
      case AttackerKind::Static:
        return "Static";
      case AttackerKind::MultiBank:
        return "MultiBank";
      case AttackerKind::RefreshAware:
        return "RefreshAware";
      case AttackerKind::ManySided:
        return "ManySided";
      case AttackerKind::HalfDouble:
        return "HalfDouble";
      case AttackerKind::CloudMix:
        return "CloudMix";
    }
    return "?";
}

namespace
{

/**
 * Rate-based schemes (PRA's coin flip, RFM's rolling ACT budget)
 * order refresh work in proportion to the activation stream, not to a
 * per-row threshold, so the threshold co-scaling and its de-scaling
 * corrections do not apply to them.
 */
bool
rateBasedScheme(SchemeKind kind)
{
    return kind == SchemeKind::Pra || kind == SchemeKind::Rfm;
}

bool
anyClosedLoop(const std::vector<std::unique_ptr<ActivationSource>> &sources)
{
    return std::any_of(sources.begin(), sources.end(), [](const auto &s) {
        return s && s->closedLoop();
    });
}

} // namespace

TimingConfig
makeSystem(SystemPreset preset)
{
    TimingConfig sys;
    switch (preset) {
      case SystemPreset::DualCore2Ch:
        sys.geometry = DramGeometry::dualCore2Ch();
        sys.numCores = 2;
        sys.mapping = MappingPolicy::RowRankBankChanCol;
        break;
      case SystemPreset::QuadCore2Ch:
        sys.geometry = DramGeometry::quadCore2Ch();
        sys.numCores = 4;
        sys.mapping = MappingPolicy::RowRankBankChanCol;
        break;
      case SystemPreset::QuadCore4Ch:
        sys.geometry = DramGeometry::quadCore4Ch();
        sys.numCores = 4;
        sys.mapping = MappingPolicy::RowRankBankColChan;
        break;
    }
    return sys;
}

ExperimentRunner::ExperimentRunner(double scale) : scale_(scale)
{
    if (scale_ <= 0.0 || scale_ > 1.0)
        CATSIM_FATAL("experiment scale must be in (0, 1], got ", scale_);
    if (const char *dir = std::getenv("CATSIM_BASELINE_CACHE"))
        cacheDir_ = dir;
}

void
ExperimentRunner::setBaselineCacheDir(const std::string &dir)
{
    cacheDir_ = dir;
}

std::string
ExperimentRunner::baselineCachePath(SystemPreset preset,
                                    const WorkloadSpec &workload) const
{
    if (cacheDir_.empty())
        return {};
    return cacheDir_ + '/'
           + baselineCacheFileName(cacheKey(preset, workload), scale_);
}

std::uint32_t
ExperimentRunner::scaledThreshold(std::uint32_t threshold) const
{
    const auto t = static_cast<std::uint32_t>(
        std::llround(static_cast<double>(threshold) * scale_));
    return std::max<std::uint32_t>(t, 512);
}

SchemeConfig
ExperimentRunner::scaledScheme(const SchemeConfig &scheme) const
{
    SchemeConfig s = scheme;
    if (rateBasedScheme(s.kind))
        return s;
    s.threshold = scaledThreshold(scheme.threshold);
    if (!s.splitThresholds.empty()) {
        // Co-scale a custom split schedule proportionally to the
        // scaled refresh threshold (NOT through scaledThreshold's 512
        // floor, which would flatten eager low-threshold schedules)
        // so the schedule keeps its shape relative to T.
        const double ratio = static_cast<double>(s.threshold)
                             / static_cast<double>(scheme.threshold);
        for (auto &t : s.splitThresholds)
            t = std::max<std::uint32_t>(
                2, static_cast<std::uint32_t>(std::llround(
                       static_cast<double>(t) * ratio)));
        s.splitThresholds.back() = s.threshold;
    }
    return s;
}

std::uint64_t
ExperimentRunner::recordsFor(const WorkloadSpec &workload,
                             const TimingConfig &sys) const
{
    const WorkloadProfile &p = findWorkload(workload.name);
    const double epochCycles =
        static_cast<double>(sys.timing.refreshIntervalCycles()) * scale_;
    // A record occupies roughly gap/retire-rate bus cycles of compute
    // plus a couple of cycles of memory pressure per core.
    double gap = p.meanGap;
    if (workload.isAttack) {
        const double tf = attackTargetFraction(workload.attackMode);
        gap = tf * 8.0 + (1.0 - tf) * gap;
    }
    const double retire = static_cast<double>(sys.core.retireWidth)
                          * static_cast<double>(sys.core.cpuMult);
    const double cyclesPerRecord = gap / retire + 2.0;
    const double target = 1.2 * epochCycles / cyclesPerRecord;
    return static_cast<std::uint64_t>(std::max(target, 50000.0));
}

std::string
ExperimentRunner::cacheKey(SystemPreset preset,
                           const WorkloadSpec &workload) const
{
    std::ostringstream os;
    os << static_cast<int>(preset) << '/' << workload.label() << '/'
       << workload.seed;
    return os.str();
}

StreamFactory
ExperimentRunner::streamFactory(const WorkloadSpec &workload,
                                const TimingConfig &sys,
                                std::uint64_t records,
                                const AddressMapper &mapper) const
{
    WorkloadProfile profile = findWorkload(workload.name);
    if (profile.phaseEvery > 0) {
        // Interpret a non-zero phaseEvery as "this workload has
        // phases" and re-anchor the relocation period to simulated
        // time: about one hot-set turnover every 1.5 epochs,
        // independent of the experiment scale.
        profile.phaseEvery =
            std::max<std::uint64_t>(records * 5 / 4, 1);
    }
    const DramGeometry geometry = sys.geometry;
    if (workload.isAttack) {
        const AttackMode mode = workload.attackMode;
        const std::uint64_t kernel = workload.attackKernel;
        const AttackKernelKind kind = workload.attackKernelKind;
        const std::uint64_t seed = workload.seed;
        return [profile, geometry, &mapper, mode, kernel, kind, seed,
                records](CoreId core) -> std::unique_ptr<TraceStream> {
            return std::make_unique<AttackWorkload>(
                profile, geometry, mapper, mode, kernel,
                seed * 7919ULL + core + 1, records, 4, kind);
        };
    }
    const std::uint64_t seed = workload.seed;
    return [profile, geometry, &mapper, seed,
            records](CoreId core) -> std::unique_ptr<TraceStream> {
        return std::make_unique<SyntheticWorkload>(
            profile, geometry, mapper, seed * 7919ULL + core + 1,
            records);
    };
}

ExperimentRunner::BaselinePtr
ExperimentRunner::computeBaseline(SystemPreset preset,
                                  const WorkloadSpec &workload,
                                  const std::string &key)
{
    TimingConfig sys = makeSystem(preset);
    sys.scheme.kind = SchemeKind::None;
    sys.recordActivations = true;
    sys.epochScale = scale_;

    auto entry = std::make_shared<BaselineEntry>();
    entry->mapper = std::make_unique<AddressMapper>(sys.geometry,
                                                    sys.mapping);

    const std::string path = baselineCachePath(preset, workload);
    if (!path.empty()
        && loadBaseline(path, key, scale_, &entry->timing)) {
        diskLoads_.fetch_add(1);
    } else {
        const std::uint64_t records = recordsFor(workload, sys);
        auto factory = streamFactory(workload, sys, records, *entry->mapper);
        entry->timing = runTiming(sys, factory);
        computeCount_.fetch_add(1);
        if (!path.empty())
            saveBaseline(path, key, scale_, entry->timing);
    }

    for (const auto &stream : entry->timing.bankStreams)
        entry->markers.push_back(epochMarkerPositions(stream));
    return entry;
}

const ExperimentRunner::BaselineEntry &
ExperimentRunner::baselineEntry(SystemPreset preset,
                                const WorkloadSpec &workload)
{
    const std::string key = cacheKey(preset, workload);

    std::promise<BaselinePtr> promise;
    std::shared_future<BaselinePtr> future;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = baselines_.find(key);
        if (it != baselines_.end()) {
            future = it->second;
        } else {
            future = promise.get_future().share();
            baselines_.emplace(key, future);
            owner = true;
        }
    }
    // The owning thread computes outside the lock; everyone else
    // blocks on the shared future, so a baseline is computed exactly
    // once no matter how many sweep cells need it concurrently.
    if (owner) {
        try {
            promise.set_value(computeBaseline(preset, workload, key));
        } catch (...) {
            // Waiters see the real error; dropping the cache entry
            // lets a later call retry instead of hitting a
            // broken_promise forever.
            {
                std::lock_guard<std::mutex> lock(mutex_);
                baselines_.erase(key);
            }
            promise.set_exception(std::current_exception());
        }
    }
    return *future.get();
}

const TimingResult &
ExperimentRunner::baseline(SystemPreset preset,
                           const WorkloadSpec &workload)
{
    return baselineEntry(preset, workload).timing;
}

EvalResult
ExperimentRunner::evalFromReplay(const ReplayResult &replay,
                                 const SchemeConfig &scheme,
                                 double exec_seconds,
                                 const TimingConfig &sys) const
{
    // Per-bank averages feed the per-bank power model.
    const double banks = static_cast<double>(replay.banks);
    SchemeStats perBank;
    perBank.activations = static_cast<Count>(
        static_cast<double>(replay.stats.activations) / banks);
    perBank.prngBits = static_cast<Count>(
        static_cast<double>(replay.stats.prngBits) / banks);
    perBank.counterDramReads = static_cast<Count>(
        static_cast<double>(replay.stats.counterDramReads) / banks);
    perBank.counterDramWrites = static_cast<Count>(
        static_cast<double>(replay.stats.counterDramWrites) / banks);
    // De-scale threshold-triggered refresh work: each scaled epoch
    // produces the real per-epoch refresh count but lasts only
    // s * 64 ms of simulated time.
    const double refreshScale =
        rateBasedScheme(scheme.kind) ? 1.0 : scale_;
    perBank.victimRowsRefreshed = static_cast<Count>(
        static_cast<double>(replay.stats.victimRowsRefreshed) / banks
        * refreshScale);

    EvalResult out;
    out.stats = replay.stats;
    out.baselineSeconds = exec_seconds;
    out.power = schemePower(scheme, perBank, exec_seconds);
    out.cmrpo = cmrpo(out.power, sys.geometry.rowsPerBank);
    return out;
}

EvalResult
ExperimentRunner::evalCmrpo(SystemPreset preset,
                            const WorkloadSpec &workload,
                            const SchemeConfig &scheme)
{
    const BaselineEntry &entry = baselineEntry(preset, workload);
    const TimingResult &base = entry.timing;
    const TimingConfig sys = makeSystem(preset);

    std::vector<std::unique_ptr<ActivationSource>> sources;
    for (std::size_t b = 0; b < base.bankStreams.size(); ++b)
        sources.push_back(std::make_unique<RecordedStreamSource>(
            base.bankStreams[b], entry.markers[b]));
    const ReplayResult replay = replaySources(
        sources, scaledScheme(scheme), sys.geometry.rowsPerBank);
    return evalFromReplay(replay, scheme, base.execSeconds, sys);
}

std::vector<std::unique_ptr<ActivationSource>>
ExperimentRunner::adaptiveSources(const TimingConfig &sys,
                                  const AdaptiveAttackSpec &attack) const
{
    const double epochCycles =
        static_cast<double>(sys.timing.refreshIntervalCycles()) * scale_;
    // The attacker drives every bank flat out: one activation per tRC
    // (the fastest legal ACT cadence on one bank).
    const auto actsPerEpoch = static_cast<std::uint64_t>(
        epochCycles / static_cast<double>(sys.timing.tRC));
    if (actsPerEpoch == 0)
        CATSIM_FATAL("experiment scale ", scale_,
                     " leaves no activations in an epoch");

    // CloudMix is the benign consolidation scenario: no aggressors,
    // every bank runs a multi-tenant Zipf mix whose hot sets relocate
    // mid-epoch (the reconfiguration stress DRCAT's weights target).
    if (attack.attacker == AttackerKind::CloudMix) {
        std::vector<std::unique_ptr<ActivationSource>> sources;
        const std::uint32_t banks = sys.geometry.totalBanks();
        sources.reserve(banks);
        for (std::uint32_t b = 0; b < banks; ++b) {
            CloudMixParams p;
            p.numRows = sys.geometry.rowsPerBank;
            p.actsPerEpoch = actsPerEpoch;
            p.epochs = attack.epochs;
            // Two phases per epoch: one deterministic hot-set turnover
            // between consecutive retention refreshes.
            p.phaseEvery = std::max<std::uint64_t>(actsPerEpoch / 2, 1);
            p.seed = attack.seed * 1000003ULL + b;
            sources.push_back(std::make_unique<CloudMixSource>(p));
        }
        return sources;
    }

    // Initial target placement comes from the same kernel strategies
    // the open-loop AttackWorkload uses.
    std::vector<std::vector<RowAddr>> targets(
        sys.geometry.totalBanks());
    for (auto &t : targets)
        t.resize(attack.targetsPerBank);
    AttackKernelKind placement = AttackKernelKind::Gaussian;
    switch (attack.attacker) {
      case AttackerKind::MultiBank:
        placement = AttackKernelKind::MultiBank;
        break;
      case AttackerKind::ManySided:
        placement = AttackKernelKind::ManySided;
        break;
      case AttackerKind::HalfDouble:
        placement = AttackKernelKind::HalfDouble;
        break;
      default:
        break;
    }
    makeAttackKernel(placement)->pickTargets(targets, sys.geometry,
                                             attack.kernel);

    std::vector<std::unique_ptr<ActivationSource>> sources;
    sources.reserve(targets.size());
    for (std::uint32_t b = 0; b < targets.size(); ++b) {
        AttackSourceParams p;
        p.numRows = sys.geometry.rowsPerBank;
        p.targets = std::move(targets[b]);
        p.targetFraction = attackTargetFraction(attack.mode);
        p.actsPerEpoch = actsPerEpoch;
        p.epochs = attack.epochs;
        p.seed = attack.seed * 1000003ULL + b;
        if (attack.attacker == AttackerKind::RefreshAware)
            sources.push_back(
                std::make_unique<RefreshAwareAttackerSource>(p));
        else
            sources.push_back(
                std::make_unique<SyntheticAttackSource>(p));
    }
    return sources;
}

std::vector<std::unique_ptr<ActivationSource>>
ExperimentRunner::adaptiveFleet(const TimingConfig &sys,
                                const AdaptiveAttackSpec &attack)
{
    stimulusPasses_.fetch_add(1);
    return adaptiveSources(sys, attack);
}

bool
ExperimentRunner::adaptiveClosedLoop(SystemPreset preset,
                                     const AdaptiveAttackSpec &attack) const
{
    return anyClosedLoop(adaptiveSources(makeSystem(preset), attack));
}

EvalResult
ExperimentRunner::evalAdaptive(SystemPreset preset,
                               const AdaptiveAttackSpec &attack,
                               const SchemeConfig &scheme)
{
    return evalAdaptive(preset, attack, std::vector<SchemeConfig>{scheme})
        .front();
}

std::vector<EvalResult>
ExperimentRunner::evalAdaptive(SystemPreset preset,
                               const AdaptiveAttackSpec &attack,
                               const std::vector<SchemeConfig> &schemes)
{
    if (schemes.empty())
        return {};
    const TimingConfig sys = makeSystem(preset);
    const RowAddr rows = sys.geometry.rowsPerBank;
    std::vector<SchemeConfig> sims;
    for (const SchemeConfig &scheme : schemes)
        sims.push_back(scaledScheme(scheme));

    auto sources = adaptiveFleet(sys, attack);
    std::vector<ReplayResult> replays;
    if (anyClosedLoop(sources)) {
        // The sources re-aim on the RefreshActions of the scheme they
        // face, so every scheme needs a fleet of its own.
        for (std::size_t k = 0; k < sims.size(); ++k) {
            if (k > 0)
                sources = adaptiveFleet(sys, attack);
            replays.push_back(replaySources(sources, sims[k], rows));
        }
    } else {
        replays = replaySources(sources, sims, rows);
    }

    const double epochCycles =
        static_cast<double>(sys.timing.refreshIntervalCycles()) * scale_;
    // The "baseline" run time of a closed-loop cell is the simulated
    // wall clock itself: epochs * the scaled 64 ms refresh interval.
    const double execSeconds =
        sys.timing.cyclesToNs(static_cast<Cycle>(
            epochCycles * static_cast<double>(attack.epochs)))
        * 1e-9;
    std::vector<EvalResult> out;
    for (std::size_t k = 0; k < schemes.size(); ++k)
        out.push_back(
            evalFromReplay(replays[k], schemes[k], execSeconds, sys));
    return out;
}

double
ExperimentRunner::evalAdaptiveDisturbance(SystemPreset preset,
                                          const AdaptiveAttackSpec &attack,
                                          const SchemeConfig &scheme)
{
    const TimingConfig sys = makeSystem(preset);
    const SchemeConfig sim = scaledScheme(scheme);
    const RowAddr rows = sys.geometry.rowsPerBank;
    // The disturbance metric is defined on private per-bank counters,
    // and no figure or test measures it on a rank-shared pool, so
    // reject one rather than report an unchecked number.
    if (sim.sharesPool())
        CATSIM_FATAL("disturbance eval does not support rank-shared "
                     "counter pools (banksPerPool=", sim.banksPerPool,
                     ")");

    // Same sources and per-bank schemes as evalAdaptive; the ledgers
    // are closed loop, so the replay steps every scheme one activation
    // at a time and shows each ledger the RefreshAction.
    std::vector<std::unique_ptr<ActivationSource>> ledgers;
    for (auto &source : adaptiveFleet(sys, attack))
        ledgers.push_back(
            std::make_unique<DisturbanceLedger>(std::move(source), rows));
    replaySources(ledgers, sim, rows);

    std::uint32_t maxReached = 0;
    for (const auto &ledger : ledgers)
        maxReached = std::max(
            maxReached,
            static_cast<const DisturbanceLedger &>(*ledger).maxReached());
    // Normalize against the threshold every counting scheme ran with
    // in this scaled run (scaledScheme leaves PRA's threshold field
    // untouched, so it is re-derived here for all kinds).
    return static_cast<double>(maxReached)
           / static_cast<double>(scaledThreshold(scheme.threshold));
}

double
ExperimentRunner::evalAdaptiveEto(SystemPreset preset,
                                  const AdaptiveAttackSpec &attack,
                                  const SchemeConfig &scheme)
{
    return evalAdaptiveEto(preset, attack,
                           std::vector<SchemeConfig>{scheme})
        .front();
}

std::vector<double>
ExperimentRunner::evalAdaptiveEto(SystemPreset preset,
                                  const AdaptiveAttackSpec &attack,
                                  const std::vector<SchemeConfig> &schemes)
{
    if (schemes.empty())
        return {};
    TimingConfig sys = makeSystem(preset);
    sys.recordActivations = false;
    sys.epochScale = scale_;

    // Sources are stateful (closed-loop ones mutate their aggressor
    // sets), so each leg gets a fresh, identically seeded fleet.  The
    // baseline leg runs no scheme, so one serves every scheme.
    TimingConfig baseSys = sys;
    baseSys.scheme = SchemeConfig{};
    baseSys.scheme.kind = SchemeKind::None;
    const TimingResult base =
        runTimingOnSources(baseSys, adaptiveFleet(baseSys, attack));

    std::vector<double> out;
    for (const SchemeConfig &scheme : schemes) {
        TimingConfig mitSys = sys;
        mitSys.scheme = scaledScheme(scheme);
        const TimingResult mitigated =
            runTimingOnSources(mitSys, adaptiveFleet(mitSys, attack));
        const double raw = eto(base.execSeconds, mitigated.execSeconds);
        // De-scale: the per-epoch blocking time is faithful, but a
        // scaled epoch is 1/s shorter, inflating the relative overhead.
        const double corr = rateBasedScheme(scheme.kind) ? 1.0 : scale_;
        out.push_back(raw * corr);
    }
    return out;
}

double
ExperimentRunner::evalEto(SystemPreset preset,
                          const WorkloadSpec &workload,
                          const SchemeConfig &scheme)
{
    const BaselineEntry &entry = baselineEntry(preset, workload);
    const TimingResult &base = entry.timing;

    TimingConfig sys = makeSystem(preset);
    sys.scheme = scaledScheme(scheme);
    sys.recordActivations = false;
    sys.epochScale = scale_;

    const std::uint64_t records = recordsFor(workload, sys);
    auto factory = streamFactory(workload, sys, records, *entry.mapper);

    const TimingResult mitigated = runTiming(sys, factory);
    const double raw = eto(base.execSeconds, mitigated.execSeconds);
    // De-scale: the per-epoch blocking time is faithful, but a scaled
    // epoch is 1/s shorter, inflating the relative overhead.
    const double corr = rateBasedScheme(scheme.kind) ? 1.0 : scale_;
    return raw * corr;
}

} // namespace catsim
