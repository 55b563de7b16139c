/**
 * @file
 * Branch-free integer bit tricks shared by the hot-path index math.
 *
 * The CAT structures lean on power-of-two arithmetic everywhere (row
 * spans, jump-table prefixes, packed child slots), so the same handful
 * of log2/ctz helpers kept reappearing as file-local lambdas.  They
 * live here once, on the count-leading-zeros builtins, which are
 * constexpr on GCC and Clang and a single instruction at run time.
 */

#ifndef CATSIM_COMMON_BIT_HPP
#define CATSIM_COMMON_BIT_HPP

#include <cstdint>

namespace catsim
{

/** True for powers of two; false for zero. */
constexpr bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** floor(log2(v)); 0 for v == 0. */
constexpr std::uint32_t
floorLog2(std::uint64_t v)
{
    return v ? 63 - static_cast<std::uint32_t>(__builtin_clzll(v)) : 0;
}

/** ceil(log2(v)); 0 for v <= 1. */
constexpr std::uint32_t
ceilLog2(std::uint64_t v)
{
    return v <= 1 ? 0 : floorLog2(v - 1) + 1;
}

/** Index of the lowest set bit; undefined for v == 0. */
inline std::uint32_t
ctz64(std::uint64_t v)
{
#if defined(__GNUC__) || defined(__clang__)
    return static_cast<std::uint32_t>(__builtin_ctzll(v));
#else
    std::uint32_t n = 0;
    while (!(v & 1)) {
        v >>= 1;
        ++n;
    }
    return n;
#endif
}

} // namespace catsim

#endif // CATSIM_COMMON_BIT_HPP
