#include "address_mapping.hpp"

#include "common/bit.hpp"
#include "common/logging.hpp"

namespace catsim
{

std::uint32_t
AddressMapper::log2u(std::uint64_t v)
{
    return floorLog2(v);
}

AddressMapper::AddressMapper(const DramGeometry &geometry,
                             MappingPolicy policy)
    : policy_(policy)
{
    if (!isPow2(geometry.lineBytes) || !isPow2(geometry.colsPerRow)
        || !isPow2(geometry.channels) || !isPow2(geometry.banksPerRank)
        || !isPow2(geometry.ranksPerChannel)
        || !isPow2(geometry.rowsPerBank))
        CATSIM_FATAL("address mapping requires power-of-two geometry");

    // Lay the fields out from the cache-line offset upwards.
    std::uint32_t shift = log2u(geometry.lineBytes);
    auto place = [&shift](Field &f, std::uint64_t width) {
        const std::uint32_t bits = log2u(width);
        f.shift = shift;
        f.mask = (1ULL << bits) - 1;
        shift += bits;
    };
    switch (policy_) {
      case MappingPolicy::RowRankBankChanCol:
        place(col_, geometry.colsPerRow);
        place(channel_, geometry.channels);
        break;
      case MappingPolicy::RowRankBankColChan:
        place(channel_, geometry.channels);
        place(col_, geometry.colsPerRow);
        break;
    }
    place(bank_, geometry.banksPerRank);
    place(rank_, geometry.ranksPerChannel);
    place(row_, geometry.rowsPerBank);
}

std::string
AddressMapper::policyName(MappingPolicy policy)
{
    switch (policy) {
      case MappingPolicy::RowRankBankChanCol:
        return "rw:rk:bk:ch:col:offset";
      case MappingPolicy::RowRankBankColChan:
        return "rw:rk:bk:col:ch:offset";
    }
    return "?";
}

} // namespace catsim
