#include "timing_sim.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"

namespace catsim
{

namespace
{

/**
 * The auto-refresh epoch clock both front ends share.  fireUpTo(t)
 * runs every boundary at or before the next issue time t, so a
 * boundary wins a tie with the issue; the loops call it only while a
 * core or source is live, so none fires after the last one ends.
 */
class EpochClock
{
  public:
    EpochClock(const TimingConfig &config, MemoryController &mc,
               TimingResult &res)
        : epochCycles_(
              static_cast<double>(config.timing.refreshIntervalCycles())
              * config.epochScale),
          next_(epochCycles_), mc_(mc), res_(res)
    {
        if (epochCycles_ < 1.0)
            CATSIM_FATAL("epoch scale too small");
    }

    void
    fireUpTo(double t)
    {
        while (next_ <= t) {
            mc_.onEpoch();
            // No streams to mark unless the run records them.
            appendEpochMarkers(res_.bankStreams);
            ++res_.epochs;
            next_ += epochCycles_;
        }
    }

  private:
    double epochCycles_;
    double next_;
    MemoryController &mc_;
    TimingResult &res_;
};

/** One stimulus-driven bank: its source and place in the chunk. */
struct BankLane
{
    ActivationSource *source;
    MappedAddr loc;
    const RowAddr *rows = nullptr;
    std::size_t pending = 0;
};

/**
 * Issue the lane's next ACT at @p clock; false once its source ends.
 * The source's own Epoch chunks are pacing metadata here - real
 * boundaries come from the EpochClock.
 */
bool
issueAct(BankLane &lane, double clock, MemoryController &mc)
{
    while (lane.pending == 0) {
        if (lane.source->next(&lane.rows, &lane.pending)
            == SourceChunk::End)
            return false;
    }
    MemRequest req;
    req.loc = lane.loc;
    req.loc.row = *lane.rows++;
    req.arrival = static_cast<Cycle>(clock);
    mc.submitMapped(req);
    --lane.pending;
    return true;
}

/** Invert BankId::flat: flat -> DRAM coordinates with row/col zero. */
MappedAddr
bankCoordinates(const DramGeometry &geom, std::uint32_t flat)
{
    MappedAddr loc;
    loc.bank = flat % geom.banksPerRank;
    const std::uint32_t tmp = flat / geom.banksPerRank;
    loc.rank = tmp % geom.ranksPerChannel;
    loc.channel = tmp / geom.ranksPerChannel;
    return loc;
}

/** Record every bank's activation stream when the config asks for it. */
void
recordStreams(const TimingConfig &config, MemoryController &mc,
              TimingResult &res)
{
    if (!config.recordActivations)
        return;
    res.bankStreams.resize(config.geometry.totalBanks());
    mc.setActivationObserver([&res](std::uint32_t bank, RowAddr row) {
        res.bankStreams[bank].push_back(row);
    });
}

/** Drain posted writes after @p end, then fill in the results. */
void
finishResult(TimingResult &res, const TimingConfig &config, Cycle end,
             MemoryController &mc, const DramSystem &dram)
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
runTiming(const TimingConfig &config, const StreamFactory &make_stream)
{
    DramSystem dram(config.geometry, config.timing);
    AddressMapper mapper(config.geometry, config.mapping);
    MemoryController mc(dram, mapper, config.scheme);

    TimingResult res;
    recordStreams(config, mc, res);

    std::vector<std::unique_ptr<CoreModel>> cores;
    cores.reserve(config.numCores);
    for (CoreId c = 0; c < config.numCores; ++c) {
        cores.push_back(std::make_unique<CoreModel>(
            c, config.core, make_stream(c), mc));
    }

    // Step the earliest live core one record at a time (the lowest id
    // wins a tie); cores' clocks only move forward, so requests reach
    // the controller in arrival order (exact for closed-page FR-FCFS).
    EpochClock epochs(config, mc, res);
    for (;;) {
        CoreModel *earliest = nullptr;
        for (auto &core : cores) {
            if (!core->done()
                && (!earliest || core->time() < earliest->time()))
                earliest = core.get();
        }
        if (!earliest)
            break;
        epochs.fireUpTo(earliest->time());
        earliest->step();
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
runTimingOnSources(
    const TimingConfig &config,
    const std::vector<std::unique_ptr<ActivationSource>> &sources)
{
    DramSystem dram(config.geometry, config.timing);
    AddressMapper mapper(config.geometry, config.mapping);
    MemoryController mc(dram, mapper, config.scheme);

    const std::uint32_t totalBanks = config.geometry.totalBanks();
    if (sources.size() != totalBanks)
        CATSIM_FATAL("runTimingOnSources: need one source slot per bank");

    TimingResult res;
    recordStreams(config, mc, res);
    // Mid-flight defense feedback: every ACT's RefreshAction (possibly
    // untriggered) is delivered to the issuing bank's source while the
    // run is in progress - the closed-loop attacker's sensing channel.
    mc.setRefreshActionObserver(
        [&sources](std::uint32_t bank, RowAddr row,
                   const RefreshAction &act) {
            ActivationSource *src = sources[bank].get();
            if (src && src->closedLoop())
                src->onRefreshAction(row, act);
        });

    EpochClock epochs(config, mc, res);
    std::vector<BankLane> live;
    for (std::uint32_t b = 0; b < totalBanks; ++b) {
        if (sources[b])
            live.push_back(
                {sources[b].get(), bankCoordinates(config.geometry, b)});
    }

    // Every live bank issues once per tRC round, in flat bank order,
    // on one shared clock; a bank drops out in the round its source
    // ends, and the clock stays at the last round's time.
    const double actCycles = static_cast<double>(config.timing.tRC);
    double clock = 0.0;
    while (!live.empty()) {
        epochs.fireUpTo(clock);
        std::size_t kept = 0;
        for (BankLane &lane : live) {
            if (issueAct(lane, clock, mc))
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
