/**
 * @file
 * Tests for the shared integer bit helpers (common/bit): floorLog2 and
 * ceilLog2 against a plain shift loop, on every small input and around
 * every power of two.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "common/bit.hpp"

namespace catsim
{

namespace
{

/** floor(log2(v)) by repeated shifting; 0 for v <= 1. */
std::uint32_t
shiftFloorLog2(std::uint64_t v)
{
    std::uint32_t l = 0;
    while (v > 1) {
        v >>= 1;
        ++l;
    }
    return l;
}

/** ceil(log2(v)): the smallest l with 2^l >= v; 0 for v <= 1. */
std::uint32_t
shiftCeilLog2(std::uint64_t v)
{
    std::uint32_t l = 0;
    while (l < 64 && (std::uint64_t{1} << l) < v)
        ++l;
    return l;
}

void
expectMatchesShiftLoop(std::uint64_t v)
{
    EXPECT_EQ(floorLog2(v), shiftFloorLog2(v)) << "v = " << v;
    EXPECT_EQ(ceilLog2(v), shiftCeilLog2(v)) << "v = " << v;
}

static_assert(floorLog2(0) == 0 && floorLog2(1) == 0, "constexpr");
static_assert(floorLog2(~std::uint64_t{0}) == 63, "constexpr");
static_assert(ceilLog2(5) == 3 && ceilLog2(8) == 3, "constexpr");

} // namespace

TEST(Bit, LogsMatchShiftLoopOnSmallInputs)
{
    for (std::uint64_t v = 0; v <= 65535; ++v)
        expectMatchesShiftLoop(v);
}

TEST(Bit, LogsMatchShiftLoopAroundEveryPowerOfTwo)
{
    for (std::uint32_t k = 0; k < 64; ++k) {
        const std::uint64_t p = std::uint64_t{1} << k;
        expectMatchesShiftLoop(p - 1);
        expectMatchesShiftLoop(p);
        expectMatchesShiftLoop(p + 1);
    }
}

} // namespace catsim
