/**
 * @file
 * Physical row-adjacency models.
 *
 * Crosstalk victims are the *physically* adjacent wordlines, but DRAM
 * vendors scramble logical row addresses internally (van de Goor &
 * Schanstra, DELTA 2002).  The paper (Section VII) assumes "either the
 * memory controller knows which rows are physically adjacent or the
 * DRAM chip is responsible for refreshing the row and its neighbors".
 * No scheme or metric consults these models yet: every figure
 * refreshes the logical neighbors row +/- 1.  Range-based schemes
 * (SCA, CAT) refresh a whole group plus its border and are
 * insensitive to in-block scrambling as long as remapping stays
 * within the group granularity.
 */

#ifndef CATSIM_CORE_ADJACENCY_HPP
#define CATSIM_CORE_ADJACENCY_HPP

#include <array>
#include <cstdint>

#include "common/types.hpp"

namespace catsim
{

/** Logical <-> physical row remapping within fixed-size blocks. */
class RowAdjacency
{
  public:
    enum class Kind
    {
        Direct,        //!< physical order == logical order
        BlockMirrored, //!< even rows ascend, odd rows fold back
        Scrambled,     //!< XOR scramble of in-block offset
    };

    /**
     * @param kind      Remapping style.
     * @param num_rows  Rows per bank (power of two).
     * @param block_size Remap granularity (power of two dividing
     *                  num_rows); vendors scramble within subarrays.
     * @param seed      Key source for Scrambled.
     */
    RowAdjacency(Kind kind, RowAddr num_rows,
                 std::uint32_t block_size = 512,
                 std::uint64_t seed = 0x5A5AULL);

    /** Physical position of a logical row. */
    RowAddr logicalToPhysical(RowAddr row) const;

    /** Logical row at a physical position. */
    RowAddr physicalToLogical(RowAddr pos) const;

    /**
     * Logical ids of the rows within physical distance @p radius of
     * @p row - the blast radius of modern half-double-style patterns,
     * where an aggressor disturbs rows two wordlines away.
     *
     * @param row     Aggressor (logical id).
     * @param radius  Blast radius, 1 or 2.
     * @param out     Output, nearest ring first (pos-1, pos+1, pos-2,
     *                pos+2), clipped at the bank edges.
     * @return Number of victims written.
     */
    std::uint32_t victimsWithin(RowAddr row, std::uint32_t radius,
                                std::array<RowAddr, 4> &out) const;

    Kind kind() const { return kind_; }
    std::uint32_t blockSize() const { return blockSize_; }

  private:
    RowAddr foldOffset(RowAddr offset) const;
    RowAddr unfoldOffset(RowAddr pos) const;

    Kind kind_;
    RowAddr numRows_;
    std::uint32_t blockSize_;
    std::uint32_t xorKey_;
};

} // namespace catsim

#endif // CATSIM_CORE_ADJACENCY_HPP
