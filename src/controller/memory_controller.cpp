#include "memory_controller.hpp"

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

void
MemoryController::drainWrites(WriteQueue &wq, std::size_t down_to,
                              Cycle now)
{
    while (wq.size > down_to) {
        issue(wq.slots[wq.head], true, now);
        wq.head = (wq.head + 1) % kWriteQueueCapacity;
        --wq.size;
    }
}

void
MemoryController::drainAllWrites(Cycle now)
{
    for (WriteQueue &wq : writeQ_)
        drainWrites(wq, 0, now);
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
