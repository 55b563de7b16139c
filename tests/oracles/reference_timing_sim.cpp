#include "reference_timing_sim.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>

#include "common/logging.hpp"

namespace catsim
{

namespace
{

// ---------------------------------------------------------------------
// Frozen DRAM layer: per-bank and per-rank state machines that each
// hold a pointer to the timing set, and an out-of-line issue call.
// ---------------------------------------------------------------------

class RefBank
{
  public:
    explicit RefBank(const DramTiming &timing) : timing_(&timing) {}

    Cycle
    earliestActivate(Cycle now) const
    {
        Cycle t = now;
        if (nextActAllowed_ > t)
            t = nextActAllowed_;
        if (blockedUntil_ > t)
            t = blockedUntil_;
        return t;
    }

    Cycle
    access(Cycle cycle, bool is_write)
    {
        ++activations_;
        nextActAllowed_ = cycle + timing_->tRC;
        if (is_write) {
            const Cycle busy = cycle + timing_->tRCD + timing_->tCAS
                               + timing_->tBURST + timing_->tWR
                               + timing_->tRP;
            if (busy > nextActAllowed_)
                nextActAllowed_ = busy;
            return cycle + timing_->tRCD + timing_->tCAS
                   + timing_->tBURST;
        }
        return cycle + timing_->tRCD + timing_->tCAS + timing_->tBURST;
    }

    Cycle
    victimRefresh(Cycle now, std::uint64_t rows)
    {
        const Cycle start = earliestActivate(now);
        blockedUntil_ = start + timing_->victimRefreshCycles(rows);
        if (blockedUntil_ > nextActAllowed_)
            nextActAllowed_ = blockedUntil_;
        victimRowsRefreshed_ += rows;
        return blockedUntil_;
    }

    void
    blockUntil(Cycle until)
    {
        if (until > blockedUntil_)
            blockedUntil_ = until;
    }

    Count activations() const { return activations_; }
    Count victimRowsRefreshed() const { return victimRowsRefreshed_; }

  private:
    const DramTiming *timing_;
    Cycle nextActAllowed_ = 0;
    Cycle blockedUntil_ = 0;
    Count activations_ = 0;
    Count victimRowsRefreshed_ = 0;
};

class RefRank
{
  public:
    explicit RefRank(const DramTiming &timing)
        : timing_(&timing), nextAutoRefresh_(timing.tREFI)
    {
        actWindow_.fill(0);
    }

    Cycle
    earliestActivate(Cycle now) const
    {
        Cycle t = now;
        if (lastAct_ + timing_->tRRD > t && lastActValid_)
            t = lastAct_ + timing_->tRRD;
        const Cycle oldest = actWindow_[head_];
        if (actCount_ >= 4 && oldest + timing_->tFAW > t)
            t = oldest + timing_->tFAW;
        return t;
    }

    void
    recordActivate(Cycle cycle)
    {
        lastAct_ = cycle;
        lastActValid_ = true;
        actWindow_[head_] = cycle;
        head_ = (head_ + 1) % actWindow_.size();
        ++actCount_;
    }

    Cycle
    autoRefreshDue(Cycle now)
    {
        if (now < nextAutoRefresh_)
            return 0;
        const Cycle start = nextAutoRefresh_;
        nextAutoRefresh_ += timing_->tREFI;
        return start + timing_->tRFC;
    }

  private:
    const DramTiming *timing_;
    std::array<Cycle, 4> actWindow_;
    std::size_t head_ = 0;
    std::uint64_t actCount_ = 0;
    Cycle lastAct_ = 0;
    bool lastActValid_ = false;
    Cycle nextAutoRefresh_;
};

class RefDramSystem
{
  public:
    RefDramSystem(const DramGeometry &geometry, const DramTiming &timing)
        : geometry_(geometry), timing_(timing)
    {
        const auto nBanks = geometry_.totalBanks();
        banks_.reserve(nBanks);
        for (std::uint32_t i = 0; i < nBanks; ++i)
            banks_.emplace_back(timing_);
        const auto nRanks = geometry_.channels * geometry_.ranksPerChannel;
        ranks_.reserve(nRanks);
        for (std::uint32_t i = 0; i < nRanks; ++i)
            ranks_.emplace_back(timing_);
        busFreeAt_.assign(geometry_.channels, 0);
    }

    RefDramSystem(const RefDramSystem &) = delete;
    RefDramSystem &operator=(const RefDramSystem &) = delete;

    DramAccess
    issue(const BankId &id, bool is_write, Cycle not_before)
    {
        applyAutoRefresh(id, not_before);
        RefBank &bank = banks_[id.flat(geometry_)];
        RefRank &rank = ranks_[rankIndex(id)];

        Cycle at = rank.earliestActivate(bank.earliestActivate(not_before));
        Cycle &busFree = busFreeAt_[id.channel];
        const Cycle burstStart = at + timing_.tRCD + timing_.tCAS;
        if (busFree > burstStart)
            at += busFree - burstStart;

        const Cycle ready = bank.access(at, is_write);
        rank.recordActivate(at);
        busFree = at + timing_.tRCD + timing_.tCAS + timing_.tBURST;
        return {at, ready};
    }

    Cycle
    victimRefresh(const BankId &id, std::uint64_t rows, Cycle now)
    {
        applyAutoRefresh(id, now);
        return banks_[id.flat(geometry_)].victimRefresh(now, rows);
    }

    const DramGeometry &geometry() const { return geometry_; }

    Count
    totalActivations() const
    {
        Count c = 0;
        for (const auto &b : banks_)
            c += b.activations();
        return c;
    }

    Count
    totalVictimRowsRefreshed() const
    {
        Count c = 0;
        for (const auto &b : banks_)
            c += b.victimRowsRefreshed();
        return c;
    }

  private:
    std::uint32_t
    rankIndex(const BankId &id) const
    {
        return id.channel * geometry_.ranksPerChannel + id.rank;
    }

    void
    applyAutoRefresh(const BankId &id, Cycle now)
    {
        RefBank *banks =
            &banks_[BankId{id.channel, id.rank, 0}.flat(geometry_)];
        RefRank &rank = ranks_[rankIndex(id)];
        while (true) {
            const Cycle end = rank.autoRefreshDue(now);
            if (end == 0)
                break;
            for (std::uint32_t b = 0; b < geometry_.banksPerRank; ++b)
                banks[b].blockUntil(end);
        }
    }

    DramGeometry geometry_;
    DramTiming timing_;
    std::vector<RefBank> banks_;
    std::vector<RefRank> ranks_;
    std::vector<Cycle> busFreeAt_;
};

// ---------------------------------------------------------------------
// Frozen controller: a vector posted-write queue per channel, drained
// from its front and erased.
// ---------------------------------------------------------------------

constexpr std::size_t kRefWriteQueueCapacity = 64;
constexpr std::size_t kRefWriteDrainLow = 48;

class RefController
{
  public:
    RefController(RefDramSystem &dram, const AddressMapper &mapper,
                  const SchemeConfig &scheme_config)
        : dram_(dram), mapper_(mapper)
    {
        const auto &geom = dram.geometry();
        schemes_ = makeBankSchemes(scheme_config, geom.rowsPerBank,
                                   geom.totalBanks());
        writeQ_.resize(geom.channels);
    }

    Cycle
    submitRead(const MemRequest &req)
    {
        return read(mapper_.map(req.addr), req.arrival);
    }

    Cycle
    submitMapped(const MemRequest &req)
    {
        return read(req.loc, req.arrival);
    }

    Cycle
    submitWrite(const MemRequest &req)
    {
        const MappedAddr loc = mapper_.map(req.addr);
        ++stats_.writes;
        auto &wq = writeQ_[loc.channel];
        if (wq.size() >= kRefWriteQueueCapacity) {
            drainWrites(loc.channel, kRefWriteDrainLow, req.arrival);
            ++stats_.writeDrains;
        }
        wq.push_back(loc);
        return req.arrival;
    }

    void
    onEpoch()
    {
        for (auto &s : schemes_) {
            if (s)
                s->onEpoch();
        }
    }

    void
    drainAllWrites(Cycle now)
    {
        for (std::uint32_t ch = 0; ch < writeQ_.size(); ++ch)
            drainWrites(ch, 0, now);
    }

    const ControllerStats &stats() const { return stats_; }

    SchemeStats
    combinedSchemeStats() const
    {
        SchemeStats sum;
        for (const auto &s : schemes_) {
            if (s)
                sum.add(s->stats());
        }
        return sum;
    }

    void
    setActivationObserver(ActivationObserver obs)
    {
        observer_ = std::move(obs);
    }

    void
    setRefreshActionObserver(RefreshActionObserver obs)
    {
        refreshObserver_ = std::move(obs);
    }

  private:
    Cycle
    read(const MappedAddr &loc, Cycle arrival)
    {
        ++stats_.reads;
        if (writeQ_[loc.channel].size() >= kRefWriteQueueCapacity) {
            drainWrites(loc.channel, kRefWriteDrainLow, arrival);
            ++stats_.writeDrains;
        }
        return issue(loc, false, arrival);
    }

    Cycle
    issue(const MappedAddr &loc, bool is_write, Cycle not_before)
    {
        const BankId bid = loc.bankId();
        const DramAccess access = dram_.issue(bid, is_write, not_before);

        const std::uint32_t flat = bid.flat(dram_.geometry());
        if (observer_)
            observer_(flat, loc.row);
        MitigationScheme *scheme = schemes_[flat].get();
        RefreshAction act;
        if (scheme) {
            act = scheme->onActivate(loc.row);
            if (act.triggered()) {
                dram_.victimRefresh(bid, act.rowCount, access.issued);
                ++stats_.victimRefreshEvents;
                stats_.victimRowsRefreshed += act.rowCount;
            }
        }
        if (refreshObserver_)
            refreshObserver_(flat, loc.row, act);
        if (access.ready > stats_.lastCompletion)
            stats_.lastCompletion = access.ready;
        return access.ready;
    }

    void
    drainWrites(std::uint32_t channel, std::size_t down_to, Cycle now)
    {
        auto &wq = writeQ_[channel];
        std::size_t n = 0;
        while (wq.size() - n > down_to) {
            issue(wq[n], true, now);
            ++n;
        }
        wq.erase(wq.begin(), wq.begin() + static_cast<std::ptrdiff_t>(n));
    }

    RefDramSystem &dram_;
    const AddressMapper &mapper_;
    std::vector<std::unique_ptr<MitigationScheme>> schemes_;
    std::vector<std::vector<MappedAddr>> writeQ_;
    ControllerStats stats_;
    ActivationObserver observer_;
    RefreshActionObserver refreshObserver_;
};

// ---------------------------------------------------------------------
// Frozen core: a vector MLP window of sorted completion cycles,
// retired by prefix erase and filled by sorted insert.
// ---------------------------------------------------------------------

class RefCore
{
  public:
    RefCore(CoreId id, const CoreParams &params,
            std::unique_ptr<TraceStream> stream, RefController &controller)
        : id_(id), params_(params), stream_(std::move(stream)),
          controller_(controller)
    {
    }

    double time() const { return time_; }
    bool done() const { return done_; }

    bool
    step()
    {
        TraceRecord rec;
        if (!stream_->next(rec)) {
            done_ = true;
            return false;
        }

        time_ += static_cast<double>(rec.gap) / retirePerBusCycle();

        const auto now = static_cast<Cycle>(time_);
        auto live = inflightReads_.begin();
        while (live != inflightReads_.end() && *live <= now)
            ++live;
        inflightReads_.erase(inflightReads_.begin(), live);

        MemRequest req;
        req.addr = rec.addr;
        req.isWrite = rec.isWrite;
        req.core = id_;
        req.arrival = static_cast<Cycle>(std::ceil(time_));

        if (rec.isWrite) {
            const Cycle ack = controller_.submitWrite(req);
            if (static_cast<double>(ack) > time_)
                time_ = static_cast<double>(ack);
            return true;
        }

        if (inflightReads_.size() >= params_.mlp) {
            const Cycle oldest = inflightReads_.front();
            if (static_cast<double>(oldest) > time_)
                time_ = static_cast<double>(oldest);
            inflightReads_.erase(inflightReads_.begin());
            req.arrival = static_cast<Cycle>(std::ceil(time_));
        }

        const Cycle done = controller_.submitRead(req);
        auto at = inflightReads_.end();
        while (at != inflightReads_.begin() && *(at - 1) > done)
            --at;
        inflightReads_.insert(at, done);
        return true;
    }

    void
    drain()
    {
        if (!inflightReads_.empty()
            && static_cast<double>(inflightReads_.back()) > time_)
            time_ = static_cast<double>(inflightReads_.back());
        inflightReads_.clear();
    }

  private:
    double
    retirePerBusCycle() const
    {
        return static_cast<double>(params_.retireWidth)
               * static_cast<double>(params_.cpuMult);
    }

    CoreId id_;
    CoreParams params_;
    std::unique_ptr<TraceStream> stream_;
    RefController &controller_;
    double time_ = 0.0;
    bool done_ = false;
    std::vector<Cycle> inflightReads_;
};

// ---------------------------------------------------------------------
// Shared result plumbing of the two frozen loops.
// ---------------------------------------------------------------------

void
recordStreams(const TimingConfig &config, RefController &mc,
              TimingResult &res)
{
    if (!config.recordActivations)
        return;
    res.bankStreams.resize(config.geometry.totalBanks());
    mc.setActivationObserver([&res](std::uint32_t bank, RowAddr row) {
        res.bankStreams[bank].push_back(row);
    });
}

double
epochCyclesOf(const TimingConfig &config)
{
    const double epochCycles =
        static_cast<double>(config.timing.refreshIntervalCycles())
        * config.epochScale;
    if (epochCycles < 1.0)
        CATSIM_FATAL("epoch scale too small");
    return epochCycles;
}

void
fireEpoch(const TimingConfig &config, RefController &mc,
          TimingResult &res)
{
    mc.onEpoch();
    ++res.epochs;
    if (config.recordActivations) {
        for (auto &s : res.bankStreams)
            s.push_back(kEpochMarker);
    }
}

void
finishResult(TimingResult &res, const TimingConfig &config, Cycle end,
             RefController &mc, const RefDramSystem &dram)
{
    mc.drainAllWrites(end);
    end = std::max(end, mc.stats().lastCompletion);
    res.execCycles = end;
    res.execSeconds = config.timing.cyclesToNs(end) * 1e-9;
    res.controller = mc.stats();
    res.scheme = mc.combinedSchemeStats();
    res.totalActivations = dram.totalActivations();
    res.victimRowsRefreshed = dram.totalVictimRowsRefreshed();
}

} // namespace

TimingResult
referenceRunTiming(const TimingConfig &config,
                   const StreamFactory &make_stream)
{
    RefDramSystem dram(config.geometry, config.timing);
    AddressMapper mapper(config.geometry, config.mapping);
    RefController mc(dram, mapper, config.scheme);

    TimingResult res;
    recordStreams(config, mc, res);

    std::vector<std::unique_ptr<RefCore>> cores;
    cores.reserve(config.numCores);
    for (CoreId c = 0; c < config.numCores; ++c) {
        cores.push_back(std::make_unique<RefCore>(
            c, config.core, make_stream(c), mc));
    }

    const double epochCycles = epochCyclesOf(config);
    double nextEpoch = epochCycles;

    // Advance the earliest core one record at a time; cores' clocks
    // only move forward, so requests are submitted in arrival order.
    std::size_t active = cores.size();
    while (active > 0) {
        RefCore *earliest = nullptr;
        for (auto &core : cores) {
            if (core->done())
                continue;
            if (!earliest || core->time() < earliest->time())
                earliest = core.get();
        }
        if (!earliest)
            break;

        if (earliest->time() >= nextEpoch) {
            fireEpoch(config, mc, res);
            nextEpoch += epochCycles;
            continue;
        }

        if (!earliest->step())
            --active;
    }

    Cycle end = 0;
    for (auto &core : cores) {
        core->drain();
        end = std::max(end, static_cast<Cycle>(core->time()));
    }
    finishResult(res, config, end, mc, dram);
    return res;
}

TimingResult
referenceRunTimingOnSources(
    const TimingConfig &config,
    const std::vector<std::unique_ptr<ActivationSource>> &sources)
{
    RefDramSystem dram(config.geometry, config.timing);
    AddressMapper mapper(config.geometry, config.mapping);
    RefController mc(dram, mapper, config.scheme);

    const std::uint32_t totalBanks = config.geometry.totalBanks();
    if (sources.size() != totalBanks)
        CATSIM_FATAL("runTimingOnSources: need one source slot per bank");

    TimingResult res;
    recordStreams(config, mc, res);
    mc.setRefreshActionObserver(
        [&sources](std::uint32_t bank, RowAddr row,
                   const RefreshAction &act) {
            ActivationSource *src = sources[bank].get();
            if (src && src->closedLoop())
                src->onRefreshAction(row, act);
        });

    struct Lane
    {
        ActivationSource *source;
        MappedAddr loc;
        const RowAddr *rows = nullptr;
        std::size_t pending = 0;
    };
    std::vector<Lane> live;
    const DramGeometry &geom = config.geometry;
    for (std::uint32_t b = 0; b < totalBanks; ++b) {
        if (!sources[b])
            continue;
        MappedAddr loc;
        loc.bank = b % geom.banksPerRank;
        const std::uint32_t tmp = b / geom.banksPerRank;
        loc.rank = tmp % geom.ranksPerChannel;
        loc.channel = tmp / geom.ranksPerChannel;
        live.push_back({sources[b].get(), loc});
    }

    // Every live bank issues once per tRC round, in flat bank order,
    // on one shared clock; a bank drops out in the round its source
    // ends, and the clock stays at the last round's time.  A boundary
    // at or before the round's clock fires first.
    const double epochCycles = epochCyclesOf(config);
    double nextEpoch = epochCycles;
    const double actCycles = static_cast<double>(config.timing.tRC);
    double clock = 0.0;
    while (!live.empty()) {
        while (nextEpoch <= clock) {
            fireEpoch(config, mc, res);
            nextEpoch += epochCycles;
        }
        std::size_t kept = 0;
        for (Lane &lane : live) {
            bool ended = false;
            while (lane.pending == 0) {
                if (lane.source->next(&lane.rows, &lane.pending)
                    == SourceChunk::End) {
                    ended = true;
                    break;
                }
            }
            if (ended)
                continue;
            MemRequest req;
            req.loc = lane.loc;
            req.loc.row = *lane.rows++;
            req.arrival = static_cast<Cycle>(clock);
            mc.submitMapped(req);
            --lane.pending;
            live[kept++] = lane;
        }
        live.resize(kept);
        if (!live.empty())
            clock += actCycles;
    }

    finishResult(res, config,
                 std::max(mc.stats().lastCompletion,
                          static_cast<Cycle>(std::ceil(clock))),
                 mc, dram);
    return res;
}

} // namespace catsim
