#include "dram_system.hpp"

namespace catsim
{

DramSystem::DramSystem(const DramGeometry &geometry,
                       const DramTiming &timing)
    : geometry_(geometry), timing_(timing)
{
    banks_.resize(geometry_.totalBanks());
    ranks_.assign(geometry_.channels * geometry_.ranksPerChannel,
                  Rank(timing_));
    busFreeAt_.assign(geometry_.channels, 0);
}

const Bank &
DramSystem::bank(const BankId &id) const
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
