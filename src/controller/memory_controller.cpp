#include "memory_controller.hpp"

#include "common/logging.hpp"

namespace catsim
{

MemoryController::MemoryController(DramSystem &dram,
                                   const AddressMapper &mapper,
                                   const SchemeConfig &scheme_config)
    : dram_(dram), mapper_(mapper)
{
    const auto &geom = dram.geometry();
    // Per-bank PRNG seeds keep PRA decisions independent per bank;
    // rank-pooled CAT configs share one counter budget per group of
    // banksPerPool consecutive banks.
    schemes_ = makeBankSchemes(scheme_config, geom.rowsPerBank,
                               geom.totalBanks());
    writeQ_.resize(geom.channels);
}

Cycle
MemoryController::issue(const MappedAddr &loc, bool is_write, Cycle not_before)
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

Cycle
MemoryController::submitRead(const MemRequest &req)
{
    return read(mapper_.map(req.addr), req.arrival);
}

Cycle
MemoryController::submitMapped(const MemRequest &req)
{
    return read(req.loc, req.arrival);
}

Cycle
MemoryController::read(const MappedAddr &loc, Cycle arrival)
{
    ++stats_.reads;
    // Write-drain has priority when the queue is saturated; otherwise
    // reads bypass queued writes (standard read-priority scheduling).
    if (writeQ_[loc.channel].size() >= kWriteQueueCapacity) {
        drainWrites(loc.channel, kWriteDrainLow, arrival);
        ++stats_.writeDrains;
    }
    return issue(loc, false, arrival);
}

Cycle
MemoryController::submitWrite(const MemRequest &req)
{
    const MappedAddr loc = mapper_.map(req.addr);
    ++stats_.writes;
    auto &wq = writeQ_[loc.channel];
    if (wq.size() >= kWriteQueueCapacity) {
        drainWrites(loc.channel, kWriteDrainLow, req.arrival);
        ++stats_.writeDrains;
    }
    wq.push_back(loc);
    return req.arrival;
}

void
MemoryController::drainWrites(std::uint32_t channel, std::size_t down_to,
                              Cycle now)
{
    auto &wq = writeQ_[channel];
    std::size_t n = 0;
    while (wq.size() - n > down_to) {
        issue(wq[n], true, now);
        ++n;
    }
    wq.erase(wq.begin(), wq.begin() + static_cast<std::ptrdiff_t>(n));
}

void
MemoryController::drainAllWrites(Cycle now)
{
    for (std::uint32_t ch = 0; ch < writeQ_.size(); ++ch)
        drainWrites(ch, 0, now);
}

void
MemoryController::onEpoch()
{
    for (auto &s : schemes_) {
        if (s)
            s->onEpoch();
    }
}

SchemeStats
MemoryController::combinedSchemeStats() const
{
    SchemeStats sum;
    for (const auto &s : schemes_) {
        if (s)
            sum.add(s->stats());
    }
    return sum;
}

void
MemoryController::setActivationObserver(ActivationObserver obs)
{
    observer_ = std::move(obs);
}

void
MemoryController::setRefreshActionObserver(RefreshActionObserver obs)
{
    refreshObserver_ = std::move(obs);
}

} // namespace catsim
