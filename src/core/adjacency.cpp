#include "adjacency.hpp"

#include "common/logging.hpp"
#include "common/rng.hpp"

namespace catsim
{

RowAdjacency::RowAdjacency(Kind kind, RowAddr num_rows,
                           std::uint32_t block_size, std::uint64_t seed)
    : kind_(kind), numRows_(num_rows), blockSize_(block_size)
{
    auto pow2 = [](std::uint64_t v) {
        return v != 0 && (v & (v - 1)) == 0;
    };
    if (!pow2(num_rows) || !pow2(block_size)
        || block_size > num_rows)
        CATSIM_FATAL("adjacency needs power-of-two rows (", num_rows,
                     ") and block size (", block_size, ")");
    SplitMix64 sm(seed);
    xorKey_ = static_cast<std::uint32_t>(sm.next()) & (blockSize_ - 1);
}

RowAddr
RowAdjacency::foldOffset(RowAddr offset) const
{
    switch (kind_) {
      case Kind::Direct:
        return offset;
      case Kind::BlockMirrored:
        // Even offsets occupy the low half in order; odd offsets fold
        // back from the top (a common anti-parallel layout).
        if ((offset & 1) == 0)
            return offset / 2;
        return blockSize_ - 1 - offset / 2;
      case Kind::Scrambled:
        return offset ^ xorKey_;
    }
    return offset;
}

RowAddr
RowAdjacency::unfoldOffset(RowAddr pos) const
{
    switch (kind_) {
      case Kind::Direct:
        return pos;
      case Kind::BlockMirrored:
        if (pos < blockSize_ / 2)
            return pos * 2;
        return (blockSize_ - 1 - pos) * 2 + 1;
      case Kind::Scrambled:
        return pos ^ xorKey_;
    }
    return pos;
}

RowAddr
RowAdjacency::logicalToPhysical(RowAddr row) const
{
    const RowAddr block = row / blockSize_;
    return block * blockSize_ + foldOffset(row % blockSize_);
}

RowAddr
RowAdjacency::physicalToLogical(RowAddr pos) const
{
    const RowAddr block = pos / blockSize_;
    return block * blockSize_ + unfoldOffset(pos % blockSize_);
}

std::uint32_t
RowAdjacency::victimsWithin(RowAddr row, std::uint32_t radius,
                            std::array<RowAddr, 4> &out) const
{
    if (radius < 1 || radius > 2)
        CATSIM_FATAL("victim blast radius must be 1 or 2, got ",
                     radius);
    const RowAddr pos = logicalToPhysical(row);
    std::uint32_t n = 0;
    for (RowAddr d = 1; d <= radius; ++d) {
        if (pos >= d)
            out[n++] = physicalToLogical(pos - d);
        if (pos + d < numRows_)
            out[n++] = physicalToLogical(pos + d);
    }
    return n;
}

} // namespace catsim
