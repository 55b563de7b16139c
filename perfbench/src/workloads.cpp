#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iterator>

#include "common/parallel.hpp"
#include "controller/memory_controller.hpp"
#include "dram/dram_system.hpp"
#include "energy/cmrpo.hpp"
#include "outputs.hpp"
#include "sim/baseline_io.hpp"
#include "sim/sweep.hpp"
#include "trace/attack_kernel.hpp"
#include "trace/workloads.hpp"

namespace perfbench
{

using namespace catsim;

namespace
{

constexpr std::uint32_t kThreshold = 32768;
constexpr SystemPreset kPreset = SystemPreset::DualCore2Ch;
/** Stimulus records per workload hashed by inputDigest(). */
constexpr std::size_t kDigestRecords = 4096;

SchemeConfig
mkScheme(SchemeKind kind, std::uint32_t counters, std::uint32_t levels,
         std::uint32_t threshold, double p = 0.002)
{
    SchemeConfig cfg;
    cfg.kind = kind;
    cfg.numCounters = counters;
    cfg.maxLevels = levels;
    cfg.threshold = threshold;
    cfg.praProbability = p;
    return cfg;
}

/** Scheme family name used in the core.acts_per_s.<KIND> metrics. */
const char *
kindName(SchemeKind kind)
{
    switch (kind) {
      case SchemeKind::None: return "NONE";
      case SchemeKind::Sca: return "SCA";
      case SchemeKind::Pra: return "PRA";
      case SchemeKind::Prcat: return "PRCAT";
      case SchemeKind::Drcat: return "DRCAT";
      case SchemeKind::CounterCache: return "CC";
      case SchemeKind::MisraGries: return "MG";
      case SchemeKind::Rfm: return "RFM";
    }
    return "?";
}

/** PRA and RFM are rate based: ExperimentRunner leaves them unscaled. */
bool
rateBased(SchemeKind kind)
{
    return kind == SchemeKind::Pra || kind == SchemeKind::Rfm;
}

void
addSchemeCounts(Counters &c, const SchemeConfig &scheme,
                const SchemeStats &s)
{
    c["core.splits"] += static_cast<double>(s.splits);
    c["core.merges"] += static_cast<double>(s.merges);
    c["core.refresh_events"] += static_cast<double>(s.refreshEvents);
    c["core.sram_accesses"] += static_cast<double>(s.sramAccesses);
    c[std::string("core.acts.") + kindName(scheme.kind)] +=
        static_cast<double>(s.activations);
}

void
addControllerCounts(Counters &c, const ControllerStats &s)
{
    c["controller.reads"] += static_cast<double>(s.reads);
    c["controller.writes"] += static_cast<double>(s.writes);
    c["controller.write_drains"] += static_cast<double>(s.writeDrains);
    c["controller.victim_refresh_events"] +=
        static_cast<double>(s.victimRefreshEvents);
}

std::uint64_t
fnv(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ULL;
    }
    return h;
}

std::string
baselineKey(const WorkloadSpec &spec)
{
    return "baseline/" + spec.label();
}

/**
 * The same requests runTiming's cores issue, submitted straight into a
 * MemoryController in arrival order: each core's clock advances by the
 * record's compute gap at full retire width (no MLP stalls), and the
 * earliest core goes next.  Returns the number of requests submitted.
 */
std::uint64_t
submitRecordsDirect(const TimingConfig &sys, const AddressMapper &mapper,
                    const std::vector<std::vector<TraceRecord>> &perCore)
{
    DramSystem dram(sys.geometry, sys.timing);
    MemoryController mc(dram, mapper, sys.scheme);
    std::vector<std::vector<RowAddr>> banks(sys.geometry.totalBanks());
    mc.setActivationObserver([&banks](std::uint32_t bank, RowAddr row) {
        banks[bank].push_back(row);
    });
    const double retire = static_cast<double>(sys.core.retireWidth)
                          * static_cast<double>(sys.core.cpuMult);
    const std::size_t cores = perCore.size();
    std::vector<std::size_t> pos(cores, 0);
    std::vector<double> clock(cores, 0.0);
    std::uint64_t submitted = 0;
    Cycle last = 0;
    for (;;) {
        std::size_t pick = cores;
        double best = 0.0;
        for (std::size_t c = 0; c < cores; ++c) {
            if (pos[c] >= perCore[c].size())
                continue;
            const double t =
                clock[c]
                + static_cast<double>(perCore[c][pos[c]].gap) / retire;
            if (pick == cores || t < best) {
                pick = c;
                best = t;
            }
        }
        if (pick == cores)
            break;
        const TraceRecord &rec = perCore[pick][pos[pick]++];
        clock[pick] = best;
        MemRequest req;
        req.addr = rec.addr;
        req.isWrite = rec.isWrite;
        req.core = static_cast<CoreId>(pick);
        req.arrival = std::max(last, static_cast<Cycle>(std::ceil(best)));
        last = req.arrival;
        if (rec.isWrite)
            mc.submitWrite(req);
        else
            mc.submitRead(req);
        ++submitted;
    }
    mc.drainAllWrites(last);
    return submitted;
}

/**
 * Per-bank live attacker sources for a Gaussian-placed closed-loop
 * scenario (Static or RefreshAware), built exactly as
 * ExperimentRunner::evalAdaptiveEto builds them.
 */
std::vector<std::unique_ptr<ActivationSource>>
makeAttackSources(const TimingConfig &sys, const AdaptiveAttackSpec &attack)
{
    const double epochCycles =
        static_cast<double>(sys.timing.refreshIntervalCycles()) * kScale;
    const auto actsPerEpoch = static_cast<std::uint64_t>(
        epochCycles / static_cast<double>(sys.timing.tRC));
    std::vector<std::vector<RowAddr>> targets(sys.geometry.totalBanks());
    for (auto &t : targets)
        t.resize(attack.targetsPerBank);
    makeAttackKernel(AttackKernelKind::Gaussian)
        ->pickTargets(targets, sys.geometry, attack.kernel);

    std::vector<std::unique_ptr<ActivationSource>> sources;
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
            sources.push_back(std::make_unique<SyntheticAttackSource>(p));
    }
    return sources;
}

/** Pull every row out of the sources; returns the row count. */
std::uint64_t
drainSources(const std::vector<std::unique_ptr<ActivationSource>> &sources)
{
    std::uint64_t rows = 0;
    for (const auto &src : sources) {
        const RowAddr *chunk = nullptr;
        std::size_t count = 0;
        for (;;) {
            const SourceChunk kind = src->next(&chunk, &count);
            if (kind == SourceChunk::End)
                break;
            if (kind == SourceChunk::Rows)
                rows += count;
        }
    }
    return rows;
}

/**
 * The requests runTimingOnSources issues, submitted straight into a
 * MemoryController without the event engine: every bank issues one
 * activation per tRC, banks in flat order at equal times, epochs at
 * the scaled refresh interval, with RefreshAction feedback to
 * closed-loop sources.  Returns the number of requests submitted.
 */
std::uint64_t
submitSourcesDirect(
    const TimingConfig &sys,
    const std::vector<std::unique_ptr<ActivationSource>> &sources)
{
    DramSystem dram(sys.geometry, sys.timing);
    const AddressMapper mapper(sys.geometry, sys.mapping);
    MemoryController mc(dram, mapper, sys.scheme);
    mc.setRefreshActionObserver(
        [&sources](std::uint32_t bank, RowAddr row,
                   const RefreshAction &act) {
            if (sources[bank]->closedLoop())
                sources[bank]->onRefreshAction(row, act);
        });
    const std::size_t n = sources.size();
    const DramGeometry &g = sys.geometry;
    const double epoch =
        static_cast<double>(sys.timing.refreshIntervalCycles())
        * sys.epochScale;
    double nextEpoch = epoch;
    double clock = 0.0;
    std::vector<const RowAddr *> rows(n, nullptr);
    std::vector<std::size_t> pending(n, 0);
    std::vector<char> live(n, 1);
    std::size_t liveCount = n;
    std::uint64_t submitted = 0;
    while (liveCount > 0) {
        while (nextEpoch <= clock) {
            mc.onEpoch();
            nextEpoch += epoch;
        }
        for (std::size_t b = 0; b < n; ++b) {
            while (live[b] && pending[b] == 0) {
                if (sources[b]->next(&rows[b], &pending[b])
                    == SourceChunk::End) {
                    live[b] = 0;
                    --liveCount;
                }
            }
            if (!live[b])
                continue;
            MemRequest req;
            const auto flat = static_cast<std::uint32_t>(b);
            req.loc.bank = flat % g.banksPerRank;
            req.loc.rank = (flat / g.banksPerRank) % g.ranksPerChannel;
            req.loc.channel = flat / g.banksPerRank / g.ranksPerChannel;
            req.loc.row = *rows[b]++;
            req.arrival = static_cast<Cycle>(clock);
            --pending[b];
            mc.submitMapped(req);
            ++submitted;
        }
        clock += static_cast<double>(sys.timing.tRC);
    }
    return submitted;
}

/** Sweep-cell grids over the 18-workload suite (fig08 and fig10). */
class GridWorkload : public Workload
{
  public:
    GridWorkload(const Options &opt,
                 const std::vector<SchemeConfig> &configs,
                 bool workloadMajor)
        : opt_(opt)
    {
        for (const auto &profile : workloadSuite()) {
            WorkloadSpec spec;
            spec.name = profile.name;
            spec.seed = opt.seed;
            specs_.push_back(spec);
        }
        auto add = [this](std::size_t w, const SchemeConfig &cfg) {
            SweepCell c;
            c.preset = kPreset;
            c.workload = specs_[w];
            c.scheme = cfg;
            cells_.push_back(c);
            specOf_.push_back(w);
        };
        if (workloadMajor) {
            for (std::size_t w = 0; w < specs_.size(); ++w)
                for (const auto &cfg : configs)
                    add(w, cfg);
        } else {
            for (const auto &cfg : configs)
                for (std::size_t w = 0; w < specs_.size(); ++w)
                    add(w, cfg);
        }
    }

    PassResult pass(Tracer *tracer) override
    {
        std::vector<std::size_t> all(cells_.size());
        for (std::size_t i = 0; i < all.size(); ++i)
            all[i] = i;
        PassResult out = run(all, opt_.jobs, tracer);
        // How the pass's runner got its baselines: a cold pass computes
        // all 18, a warm pass loads all 18 from disk.
        out.lines.push_back(
            "runner|computes="
            + std::to_string(
                static_cast<long long>(out.counts["sim.baseline.computes"]))
            + "|disk_loads="
            + std::to_string(
                static_cast<long long>(out.counts["baseline_io.disk_loads"])));
        return out;
    }

    std::vector<std::string>
    splitFrontEnd(Tracer &tracer, Counters &once) override
    {
        // One baseline at a time, as a cold pass mostly runs them.
        std::vector<std::string> lines;
        const ExperimentRunner sizing(kScale);
        for (std::size_t w = 0; w < specs_.size(); ++w) {
            const WorkloadSpec &spec = specs_[w];
            const auto key = static_cast<std::int64_t>(w);
            TimingConfig sys = makeSystem(kPreset);
            sys.scheme.kind = SchemeKind::None;
            sys.recordActivations = true;
            sys.epochScale = kScale;
            const AddressMapper mapper(sys.geometry, sys.mapping);
            const std::uint64_t records = sizing.recordsFor(spec, sys);
            const WorkloadProfile profile = profileFor(spec, records);

            std::vector<std::vector<TraceRecord>> perCore(sys.numCores);
            {
                ScopedSpan span(&tracer, "trace", -1, key);
                for (CoreId c = 0; c < sys.numCores; ++c) {
                    SyntheticWorkload gen(profile, sys.geometry, mapper,
                                          spec.seed * 7919ULL + c + 1,
                                          records);
                    perCore[c].reserve(records);
                    TraceRecord rec;
                    while (gen.next(rec))
                        perCore[c].push_back(rec);
                }
            }
            std::vector<std::unique_ptr<TraceStream>> streams;
            for (const auto &recs : perCore)
                streams.push_back(std::make_unique<VectorTrace>(recs));
            TimingResult t;
            {
                ScopedSpan span(&tracer, "sim.timing", -1, key);
                t = runTiming(sys, [&streams](CoreId c) {
                    return std::move(streams[c]);
                });
            }
            std::uint64_t requests = 0;
            {
                ScopedSpan span(&tracer, "controller", -1, key);
                requests = submitRecordsDirect(sys, mapper, perCore);
            }
            lines.push_back(baselineLine(baselineKey(spec), t));

            for (const auto &recs : perCore) {
                once["trace.records"] += static_cast<double>(recs.size());
                once["sim.timing.records"] += static_cast<double>(recs.size());
            }
            once["controller.requests"] += static_cast<double>(requests);
            addControllerCounts(once, t.controller);
        }
        return lines;
    }

    std::uint64_t inputDigest() const override
    {
        std::uint64_t h = 1469598103934665603ULL;
        const TimingConfig sys = makeSystem(kPreset);
        const AddressMapper mapper(sys.geometry, sys.mapping);
        for (const WorkloadSpec &spec : specs_) {
            SyntheticWorkload gen(profileFor(spec, kDigestRecords),
                                  sys.geometry, mapper,
                                  spec.seed * 7919ULL + 1, kDigestRecords);
            TraceRecord rec;
            while (gen.next(rec)) {
                h = fnv(h, rec.gap);
                h = fnv(h, rec.isWrite);
                h = fnv(h, rec.addr);
            }
        }
        return h;
    }

  protected:
    /** Configure the pass's runner (the warm grid's disk cache). */
    virtual void prepare(ExperimentRunner &) const {}

    /** Span name for the baseline() call a cell makes. */
    virtual const char *baselineSpan() const = 0;

    /** True when a pass simulates its baselines (cold). */
    virtual bool simulatesBaselines() const = 0;

    /** The profile a baseline of @p records per core runs (phases are
     *  re-anchored to the run length as ExperimentRunner does). */
    static WorkloadProfile
    profileFor(const WorkloadSpec &spec, std::uint64_t records)
    {
        WorkloadProfile profile = findWorkload(spec.name);
        if (profile.phaseEvery > 0)
            profile.phaseEvery = std::max<std::uint64_t>(records * 5 / 4, 1);
        return profile;
    }

    /**
     * Evaluate the cells @p subset on a fresh SweepRunner with @p jobs
     * workers; lines hold the baselines the subset touched, then its
     * cells.
     */
    PassResult
    run(const std::vector<std::size_t> &subset, std::size_t jobs,
        Tracer *tracer)
    {
        const std::size_t passNo = passes_++;
        std::vector<SweepCell> cells;
        for (std::size_t i : subset)
            cells.push_back(cells_[i]);
        SweepRunner sweep(kScale, jobs);
        sweep.setKeepGoing(true);
        sweep.setCheckpointDir("");
        prepare(sweep.runner());

        std::vector<EvalResult> results(cells.size());
        PassResult out;
        const double t0 = hostNow();
        if (!tracer) {
            results = sweep.runCmrpo(cells);
        } else {
            sweep.runMetric(cells, [&](ExperimentRunner &r,
                                       const SweepCell &c) {
                const auto i = static_cast<std::size_t>(&c - cells.data());
                ScopedSpan cell(tracer, "cell",
                                static_cast<std::int64_t>(subset[i]));
                {
                    ScopedSpan span(tracer, baselineSpan(), -1,
                                    static_cast<std::int64_t>(
                                        passNo * 1000 + specOf_[subset[i]]));
                    r.baseline(c.preset, c.workload);
                }
                ScopedSpan span(tracer, "core", -1, -1,
                                kindName(c.scheme.kind));
                results[i] = r.evalCmrpo(c.preset, c.workload, c.scheme);
                return results[i].cmrpo;
            });
        }
        out.wall = hostNow() - t0;
        std::vector<char> failed(cells.size(), 0);
        for (const CellError &e : sweep.lastErrors())
            failed[e.index] = 1;

        ExperimentRunner &runner = sweep.runner();
        std::vector<char> touched(specs_.size(), 0);
        for (std::size_t i : subset)
            touched[specOf_[i]] = 1;
        for (std::size_t w = 0; w < specs_.size(); ++w) {
            if (!touched[w])
                continue;
            try {
                const TimingResult &b = runner.baseline(kPreset, specs_[w]);
                out.lines.push_back(baselineLine(baselineKey(specs_[w]), b));
                if (simulatesBaselines())
                    out.activations +=
                        static_cast<double>(b.totalActivations);
            } catch (const std::exception &) {
                out.lines.push_back(baselineKey(specs_[w]) + "|threw");
            }
        }
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const std::string key = cells[i].system().format();
            if (failed[i]) {
                out.lines.push_back(key + "|threw");
                continue;
            }
            out.lines.push_back(cellLine(key, results[i]));
            out.activations +=
                static_cast<double>(results[i].stats.activations);
            addSchemeCounts(out.counts, cells[i].scheme, results[i].stats);
        }
        out.counts["sim.baseline.computes"] =
            static_cast<double>(runner.baselineComputeCount());
        out.counts["baseline_io.disk_loads"] =
            static_cast<double>(runner.baselineDiskLoads());
        out.cells = cells.size();
        return out;
    }

    Options opt_;
    std::vector<WorkloadSpec> specs_;
    std::vector<SweepCell> cells_;
    std::vector<std::size_t> specOf_; //!< cell -> index into specs_
    std::size_t passes_ = 0;
};

/** The fig08 grid with a cold baseline cache. */
class CmrpoCold : public GridWorkload
{
  public:
    explicit CmrpoCold(const Options &opt)
        : GridWorkload(opt, configs(), true)
    {
    }

    /** Warm-up: one untimed pass on its own runner. */
    void setup(Tracer *, Counters &) override { pass(nullptr); }

    std::vector<std::string> subsetAt(std::size_t jobs) override
    {
        std::vector<std::size_t> subset;
        for (std::size_t i = 0; i < cells_.size(); ++i)
            if (specOf_[i] < 2)
                subset.push_back(i);
        return run(subset, jobs, nullptr).lines;
    }

  protected:
    const char *baselineSpan() const override { return "sim.baseline"; }
    bool simulatesBaselines() const override { return true; }

  private:
    static std::vector<SchemeConfig>
    configs()
    {
        return {
            mkScheme(SchemeKind::Pra, 0, 0, kThreshold, 0.002),
            mkScheme(SchemeKind::Sca, 64, 0, kThreshold),
            mkScheme(SchemeKind::Sca, 128, 0, kThreshold),
            mkScheme(SchemeKind::Prcat, 64, 11, kThreshold),
            mkScheme(SchemeKind::Drcat, 64, 11, kThreshold),
        };
    }
};

/** The fig10 grid replayed from baselines set-up saved to disk. */
class ReplayWarm : public GridWorkload
{
  public:
    explicit ReplayWarm(const Options &opt)
        : GridWorkload(opt, configs(), false)
    {
    }

    ~ReplayWarm() override
    {
        std::error_code ec;
        if (!cacheDir_.empty())
            std::filesystem::remove_all(cacheDir_, ec);
    }

    /** Compute every baseline and save it to a fresh cache dir. */
    void setup(Tracer *tracer, Counters &once) override
    {
        namespace fs = std::filesystem;
        const std::string dir =
            opt_.tmpDir + "/warm-cache-" + std::to_string(setups_++);
        std::error_code ec;
        fs::remove_all(dir, ec);
        fs::create_directories(dir);

        ExperimentRunner runner(kScale);
        runner.setBaselineCacheDir("");
        std::vector<std::uint64_t> bytes(specs_.size(), 0);
        parallelFor(
            specs_.size(),
            [&](std::size_t w) {
                const WorkloadSpec &spec = specs_[w];
                const auto key = static_cast<std::int64_t>(w);
                const TimingResult *t = nullptr;
                {
                    ScopedSpan span(tracer, "sim.baseline", -1, key);
                    t = &runner.baseline(kPreset, spec);
                }
                // ExperimentRunner's cache key: preset/label/seed.
                const std::string cacheKey =
                    std::to_string(static_cast<int>(kPreset)) + '/'
                    + spec.label() + '/' + std::to_string(spec.seed);
                const std::string path =
                    dir + '/' + baselineCacheFileName(cacheKey, kScale);
                // A failed save shows as a pass that computes baselines
                // instead of loading them, which fails the output check.
                {
                    ScopedSpan span(tracer, "baseline_io.save", -1, key);
                    saveBaseline(path, cacheKey, kScale, *t);
                }
                std::error_code sizeEc;
                bytes[w] = fs::file_size(path, sizeEc);
            },
            opt_.jobs);

        if (!cacheDir_.empty())
            fs::remove_all(cacheDir_, ec);
        cacheDir_ = dir;
        cacheBytes_ = 0;
        for (std::uint64_t b : bytes)
            cacheBytes_ += static_cast<double>(b);
        once["sim.baseline.computes"] =
            static_cast<double>(runner.baselineComputeCount());
        once["baseline_io.save_bytes"] = cacheBytes_;
    }

    PassResult pass(Tracer *tracer) override
    {
        PassResult out = GridWorkload::pass(tracer);
        out.counts["baseline_io.load_bytes"] = cacheBytes_;
        return out;
    }

    std::vector<std::string> subsetAt(std::size_t jobs) override
    {
        // The first two scheme configs over all 18 workloads.
        std::vector<std::size_t> subset;
        for (std::size_t i = 0; i < 2 * specs_.size(); ++i)
            subset.push_back(i);
        return run(subset, jobs, nullptr).lines;
    }

  protected:
    void prepare(ExperimentRunner &runner) const override
    {
        runner.setBaselineCacheDir(cacheDir_);
    }

    const char *baselineSpan() const override { return "baseline_io.load"; }
    bool simulatesBaselines() const override { return false; }

  private:
    /** Fig 10: SCA and DRCAT over counters x levels, T = 32K and 16K. */
    static std::vector<SchemeConfig>
    configs()
    {
        std::vector<SchemeConfig> out;
        for (std::uint32_t threshold : {32768u, 16384u}) {
            for (std::uint32_t m : {32u, 64u, 128u, 256u, 512u}) {
                out.push_back(mkScheme(SchemeKind::Sca, m, 0, threshold));
                for (std::uint32_t levels = 6; levels <= 14; ++levels) {
                    if (levels < AddressMapper::log2u(m) + 1)
                        continue;
                    out.push_back(
                        mkScheme(SchemeKind::Drcat, m, levels, threshold));
                }
            }
        }
        return out;
    }

    std::string cacheDir_;
    double cacheBytes_ = 0.0;
    std::size_t setups_ = 0;
};

/** Fig16-style closed-loop CMRPO cells plus closed-loop ETO cells. */
class ClosedLoop : public Workload
{
  public:
    explicit ClosedLoop(const Options &opt) : opt_(opt)
    {
        SchemeConfig rfm = mkScheme(SchemeKind::Rfm, 0, 0, kThreshold);
        rfm.rfmBudget = 64;
        // Misra-Gries first: its cells are the longest, and starting
        // them first keeps the pool's tail short.
        const SchemeConfig schemes[] = {
            mkScheme(SchemeKind::MisraGries, 512, 0, kThreshold),
            mkScheme(SchemeKind::CounterCache, 2048, 0, kThreshold),
            mkScheme(SchemeKind::Prcat, 64, 11, kThreshold),
            mkScheme(SchemeKind::Drcat, 64, 11, kThreshold),
            mkScheme(SchemeKind::Pra, 0, 0, kThreshold, 0.002),
            rfm,
        };
        const AttackerKind attackers[] = {
            AttackerKind::Static,     AttackerKind::RefreshAware,
            AttackerKind::ManySided,  AttackerKind::HalfDouble,
            AttackerKind::CloudMix,
        };
        const std::size_t numAttackers = std::size(attackers);
        for (const SchemeConfig &cfg : schemes) {
            for (AttackerKind attacker : attackers) {
                AdaptiveCell c = cell(attacker, cfg);
                // Straddle scenarios hammer pairs: 4 pairs per bank.
                if (attacker == AttackerKind::ManySided
                    || attacker == AttackerKind::HalfDouble)
                    c.attack.targetsPerBank = 8;
                cmrpoCells_.push_back(c);
            }
        }
        for (std::size_t a : {0u, 1u}) {      // Static, RefreshAware
            for (std::size_t s : {2u, 3u, 4u}) { // PRCAT, DRCAT, PRA
                etoCells_.push_back(cell(attackers[a], schemes[s]));
                // The matching CMRPO cell streams the same activations.
                etoTwin_.push_back(s * numAttackers + a);
            }
        }
    }

    /** Warm-up: one untimed pass on its own runner. */
    void setup(Tracer *, Counters &) override { pass(nullptr); }

    PassResult pass(Tracer *tracer) override
    {
        return run(cmrpoCells_, etoCells_, opt_.jobs, tracer);
    }

    std::vector<std::string> subsetAt(std::size_t jobs) override
    {
        // The PRCAT column and the first two ETO cells.
        const std::vector<AdaptiveCell> cmrpo(cmrpoCells_.begin() + 10,
                                              cmrpoCells_.begin() + 15);
        const std::vector<AdaptiveCell> eto(etoCells_.begin(),
                                            etoCells_.begin() + 2);
        return run(cmrpo, eto, jobs, nullptr).lines;
    }

    std::vector<std::string>
    splitFrontEnd(Tracer &tracer, Counters &once) override
    {
        std::vector<std::string> lines;
        const ExperimentRunner scaling(kScale);
        for (std::size_t j = 0; j < etoCells_.size(); ++j) {
            const AdaptiveCell &c = etoCells_[j];
            const auto key = static_cast<std::int64_t>(j);
            TimingConfig sys = makeSystem(c.preset);
            sys.recordActivations = false;
            sys.epochScale = kScale;
            TimingConfig baseSys = sys;
            baseSys.scheme = SchemeConfig{};
            baseSys.scheme.kind = SchemeKind::None;
            TimingConfig mitSys = sys;
            mitSys.scheme = c.scheme;
            if (!rateBased(c.scheme.kind))
                mitSys.scheme.threshold =
                    scaling.scaledThreshold(c.scheme.threshold);

            // Every leg gets a fresh, identically seeded fleet: the
            // sources are stateful.
            auto sources = makeAttackSources(sys, c.attack);
            std::uint64_t rows = 0;
            {
                ScopedSpan span(&tracer, "trace", -1, key);
                rows = drainSources(sources);
            }
            sources = makeAttackSources(sys, c.attack);
            TimingResult base;
            {
                ScopedSpan span(&tracer, "sim.baseline", -1, key);
                base = runTimingOnSources(baseSys, sources);
            }
            sources = makeAttackSources(sys, c.attack);
            TimingResult mit;
            {
                ScopedSpan span(&tracer, "sim.timing", -1, key);
                mit = runTimingOnSources(mitSys, sources);
            }
            sources = makeAttackSources(sys, c.attack);
            std::uint64_t requests = 0;
            {
                ScopedSpan span(&tracer, "controller", -1, key);
                requests = submitSourcesDirect(mitSys, sources);
            }
            const double corr = rateBased(c.scheme.kind) ? 1.0 : kScale;
            lines.push_back(valueLine(
                etoKey(c), eto(base.execSeconds, mit.execSeconds) * corr));

            once["trace.records"] += static_cast<double>(rows);
            once["sim.timing.records"] +=
                static_cast<double>(mit.totalActivations);
            once["controller.requests"] += static_cast<double>(requests);
            once["sim.baseline.computes"] += 1.0;
            addControllerCounts(once, base.controller);
            addControllerCounts(once, mit.controller);
        }
        return lines;
    }

    std::uint64_t inputDigest() const override
    {
        TimingConfig sys = makeSystem(kPreset);
        const auto sources = makeAttackSources(sys, etoCells_[0].attack);
        std::uint64_t h = 1469598103934665603ULL;
        std::size_t seen = 0;
        const RowAddr *rows = nullptr;
        std::size_t count = 0;
        while (seen < kDigestRecords) {
            const SourceChunk kind = sources[0]->next(&rows, &count);
            if (kind == SourceChunk::End)
                break;
            for (std::size_t i = 0;
                 kind == SourceChunk::Rows && i < count; ++i, ++seen)
                h = fnv(h, rows[i]);
        }
        return h;
    }

  private:
    AdaptiveCell
    cell(AttackerKind attacker, const SchemeConfig &scheme) const
    {
        AdaptiveCell c;
        c.preset = kPreset;
        c.attack.attacker = attacker;
        c.attack.mode = AttackMode::Medium;
        c.attack.kernel = 1;
        c.attack.seed = opt_.seed;
        c.scheme = scheme;
        return c;
    }

    static std::string
    cmrpoKey(const AdaptiveCell &c)
    {
        return std::string(attackerKindName(c.attack.attacker)) + "/"
               + std::to_string(c.attack.targetsPerBank) + "@"
               + SystemConfig{c.preset, WorkloadSpec{}, c.scheme}.format();
    }

    static std::string
    etoKey(const AdaptiveCell &c)
    {
        return "eto/" + cmrpoKey(c);
    }

    PassResult
    run(const std::vector<AdaptiveCell> &cmrpoCells,
        const std::vector<AdaptiveCell> &etoCells, std::size_t jobs,
        Tracer *tracer)
    {
        SweepRunner sweep(kScale, jobs);
        sweep.setKeepGoing(true);
        sweep.setCheckpointDir("");
        std::vector<EvalResult> cmrpo(cmrpoCells.size());
        std::vector<double> etos(etoCells.size());
        std::vector<char> cmrpoFailed(cmrpoCells.size(), 0);
        std::vector<char> etoFailed(etoCells.size(), 0);

        PassResult out;
        const double t0 = hostNow();
        if (!tracer) {
            cmrpo = sweep.runAdaptive(cmrpoCells);
            for (const CellError &e : sweep.lastErrors())
                cmrpoFailed[e.index] = 1;
            etos = sweep.runAdaptiveEto(etoCells);
            for (const CellError &e : sweep.lastErrors())
                etoFailed[e.index] = 1;
        } else {
            sweep.runAdaptiveMetric(
                cmrpoCells, [&](ExperimentRunner &r, const AdaptiveCell &c) {
                    const auto i =
                        static_cast<std::size_t>(&c - cmrpoCells.data());
                    ScopedSpan cell(tracer, "cell",
                                    static_cast<std::int64_t>(i));
                    ScopedSpan span(tracer, "core", -1, -1,
                                    kindName(c.scheme.kind));
                    cmrpo[i] = r.evalAdaptive(c.preset, c.attack, c.scheme);
                    return cmrpo[i].cmrpo;
                });
            for (const CellError &e : sweep.lastErrors())
                cmrpoFailed[e.index] = 1;
            sweep.runAdaptiveMetric(
                etoCells, [&](ExperimentRunner &r, const AdaptiveCell &c) {
                    const auto j =
                        static_cast<std::size_t>(&c - etoCells.data());
                    ScopedSpan cell(tracer, "cell",
                                    static_cast<std::int64_t>(
                                        cmrpoCells.size() + j));
                    ScopedSpan span(tracer, "sim.timing", -1, -1,
                                    kindName(c.scheme.kind));
                    etos[j] = r.evalAdaptiveEto(c.preset, c.attack, c.scheme);
                    return etos[j];
                });
            for (const CellError &e : sweep.lastErrors())
                etoFailed[e.index] = 1;
        }
        out.wall = hostNow() - t0;

        for (std::size_t i = 0; i < cmrpoCells.size(); ++i) {
            const std::string key = cmrpoKey(cmrpoCells[i]);
            if (cmrpoFailed[i]) {
                out.lines.push_back(key + "|threw");
                continue;
            }
            out.lines.push_back(cellLine(key, cmrpo[i]));
            out.activations += static_cast<double>(cmrpo[i].stats.activations);
            addSchemeCounts(out.counts, cmrpoCells[i].scheme, cmrpo[i].stats);
        }
        for (std::size_t j = 0; j < etoCells.size(); ++j) {
            const std::string key = etoKey(etoCells[j]);
            out.lines.push_back(etoFailed[j] ? key + "|threw"
                                             : valueLine(key, etos[j]));
        }
        // Each ETO cell simulates its attack twice (baseline leg and
        // mitigated leg); the full grid holds the matching CMRPO cell,
        // whose activation count is the same stream's.
        if (&cmrpoCells == &cmrpoCells_) {
            for (std::size_t j = 0; j < etoCells.size(); ++j)
                out.activations +=
                    2.0
                    * static_cast<double>(
                        cmrpo[etoTwin_[j]].stats.activations);
        }
        out.cells = cmrpoCells.size() + etoCells.size();
        return out;
    }

    Options opt_;
    std::vector<AdaptiveCell> cmrpoCells_;
    std::vector<AdaptiveCell> etoCells_;
    std::vector<std::size_t> etoTwin_; //!< eto cell -> cmrpo cell index
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "cmrpo_cold", "replay_warm", "closed_loop"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const Options &opt)
{
    if (opt.workload == "cmrpo_cold")
        return std::make_unique<CmrpoCold>(opt);
    if (opt.workload == "replay_warm")
        return std::make_unique<ReplayWarm>(opt);
    if (opt.workload == "closed_loop")
        return std::make_unique<ClosedLoop>(opt);
    return nullptr;
}

} // namespace perfbench
