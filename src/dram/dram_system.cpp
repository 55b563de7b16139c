#include "dram_system.hpp"

#include "common/logging.hpp"

namespace catsim
{

DramSystem::DramSystem(const DramGeometry &geometry,
                       const DramTiming &timing)
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

void
DramSystem::applyAutoRefresh(const BankId &id, Cycle now)
{
    // Catch up on any auto-refresh windows that opened before `now`.
    Bank *banks = &banks_[BankId{id.channel, id.rank, 0}.flat(geometry_)];
    Rank &rank = ranks_[rankIndex(id)];
    while (true) {
        const Cycle end = rank.autoRefreshDue(now);
        if (end == 0)
            break;
        for (std::uint32_t b = 0; b < geometry_.banksPerRank; ++b)
            banks[b].blockUntil(end);
    }
}

DramAccess
DramSystem::issue(const BankId &id, RowAddr row, bool is_write,
                  Cycle not_before)
{
    applyAutoRefresh(id, not_before);
    Bank &bank = banks_[id.flat(geometry_)];
    Rank &rank = ranks_[rankIndex(id)];

    Cycle at = rank.earliestActivate(bank.earliestActivate(not_before));
    // The data burst needs the channel bus tRCD+tCAS after the ACT.
    Cycle &busFree = busFreeAt_[id.channel];
    const Cycle burstStart = at + timing_.tRCD + timing_.tCAS;
    if (busFree > burstStart)
        at += busFree - burstStart;

    const Cycle ready = bank.access(at, row, is_write);
    rank.recordActivate(at);
    busFree = at + timing_.tRCD + timing_.tCAS + timing_.tBURST;
    return {at, ready};
}

Cycle
DramSystem::victimRefresh(const BankId &id, std::uint64_t rows, Cycle now)
{
    applyAutoRefresh(id, now);
    return banks_[id.flat(geometry_)].victimRefresh(now, rows);
}

const Bank &
DramSystem::bank(const BankId &id) const
{
    return banks_[id.flat(geometry_)];
}

Bank &
DramSystem::bank(const BankId &id)
{
    return banks_[id.flat(geometry_)];
}

Count
DramSystem::totalActivations() const
{
    Count c = 0;
    for (const auto &b : banks_)
        c += b.activations();
    return c;
}

Count
DramSystem::totalVictimRowsRefreshed() const
{
    Count c = 0;
    for (const auto &b : banks_)
        c += b.victimRowsRefreshed();
    return c;
}

} // namespace catsim
