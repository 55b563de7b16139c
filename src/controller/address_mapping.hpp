/**
 * @file
 * Physical-address to DRAM-coordinate mapping policies.
 *
 * The paper's default (Table I) is the USIMM policy
 * rw:rk:bk:ch:col:offset - reading from the most significant bits:
 * row, rank, bank, channel, column, cache-line offset.  Section VIII-B
 * additionally evaluates a 4-channel policy that "maximizes memory
 * access parallelism" by interleaving channels at cache-line
 * granularity (rw:rk:bk:col:ch:offset).
 */

#ifndef CATSIM_CONTROLLER_ADDRESS_MAPPING_HPP
#define CATSIM_CONTROLLER_ADDRESS_MAPPING_HPP

#include <cstdint>
#include <string>

#include "common/types.hpp"
#include "dram/geometry.hpp"

namespace catsim
{

/** Decoded DRAM coordinates of a physical address. */
struct MappedAddr
{
    std::uint32_t channel = 0;
    std::uint32_t rank = 0;
    std::uint32_t bank = 0;
    RowAddr row = 0;
    std::uint32_t col = 0;

    BankId
    bankId() const
    {
        return BankId{channel, rank, bank};
    }
};

/** Field order of the mapping. */
enum class MappingPolicy
{
    RowRankBankChanCol, //!< rw:rk:bk:ch:col:offset (paper default)
    RowRankBankColChan, //!< rw:rk:bk:col:ch:offset (4-channel policy)
};

/**
 * Bidirectional address mapper for a fixed geometry.  The constructor
 * fixes every field's bit position for the policy, so map and compose
 * are straight-line shift-and-mask code.
 */
class AddressMapper
{
  public:
    AddressMapper(const DramGeometry &geometry, MappingPolicy policy);

    /** Decode a physical byte address. */
    MappedAddr
    map(Addr addr) const
    {
        MappedAddr m;
        m.channel = channel_.get(addr);
        m.rank = rank_.get(addr);
        m.bank = bank_.get(addr);
        m.row = row_.get(addr);
        m.col = col_.get(addr);
        return m;
    }

    /** Compose a physical byte address from coordinates. */
    Addr
    compose(const MappedAddr &m) const
    {
        return channel_.put(m.channel) | rank_.put(m.rank)
               | bank_.put(m.bank) | row_.put(m.row) | col_.put(m.col);
    }

    MappingPolicy policy() const { return policy_; }
    static std::string policyName(MappingPolicy policy);

    /** Floor log2 of a power-of-two field width (0 for v <= 1). */
    static std::uint32_t log2u(std::uint64_t v);

  private:
    /** One coordinate's bits in the address: (addr >> shift) & mask. */
    struct Field
    {
        std::uint32_t shift = 0;
        std::uint64_t mask = 0;

        std::uint32_t
        get(Addr addr) const
        {
            return static_cast<std::uint32_t>((addr >> shift) & mask);
        }

        Addr put(std::uint64_t v) const { return (v & mask) << shift; }
    };

    MappingPolicy policy_;
    Field channel_;
    Field rank_;
    Field bank_;
    Field row_;
    Field col_;
};

} // namespace catsim

#endif // CATSIM_CONTROLLER_ADDRESS_MAPPING_HPP
