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
    : geometry_(geometry), policy_(policy)
{
    if (!isPow2(geometry.lineBytes) || !isPow2(geometry.colsPerRow)
        || !isPow2(geometry.channels) || !isPow2(geometry.banksPerRank)
        || !isPow2(geometry.ranksPerChannel)
        || !isPow2(geometry.rowsPerBank))
        CATSIM_FATAL("address mapping requires power-of-two geometry");

    offsetBits_ = log2u(geometry.lineBytes);
    colBits_ = log2u(geometry.colsPerRow);
    chBits_ = log2u(geometry.channels);
    bkBits_ = log2u(geometry.banksPerRank);
    rkBits_ = log2u(geometry.ranksPerChannel);
    rwBits_ = log2u(geometry.rowsPerBank);
}

MappedAddr
AddressMapper::map(Addr addr) const
{
    MappedAddr m;
    Addr a = addr >> offsetBits_;
    auto take = [&a](std::uint32_t bits) -> std::uint32_t {
        const std::uint32_t v =
            static_cast<std::uint32_t>(a & ((1ULL << bits) - 1));
        a >>= bits;
        return v;
    };

    switch (policy_) {
      case MappingPolicy::RowRankBankChanCol:
        m.col = take(colBits_);
        m.channel = take(chBits_);
        m.bank = take(bkBits_);
        m.rank = take(rkBits_);
        m.row = take(rwBits_);
        break;
      case MappingPolicy::RowRankBankColChan:
        m.channel = take(chBits_);
        m.col = take(colBits_);
        m.bank = take(bkBits_);
        m.rank = take(rkBits_);
        m.row = take(rwBits_);
        break;
    }
    return m;
}

Addr
AddressMapper::compose(const MappedAddr &m) const
{
    Addr a = 0;
    std::uint32_t shift = offsetBits_;
    auto put = [&a, &shift](std::uint64_t v, std::uint32_t bits) {
        a |= (v & ((1ULL << bits) - 1)) << shift;
        shift += bits;
    };

    switch (policy_) {
      case MappingPolicy::RowRankBankChanCol:
        put(m.col, colBits_);
        put(m.channel, chBits_);
        put(m.bank, bkBits_);
        put(m.rank, rkBits_);
        put(m.row, rwBits_);
        break;
      case MappingPolicy::RowRankBankColChan:
        put(m.channel, chBits_);
        put(m.col, colBits_);
        put(m.bank, bkBits_);
        put(m.rank, rkBits_);
        put(m.row, rwBits_);
        break;
    }
    return a;
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
