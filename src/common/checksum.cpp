#include "checksum.hpp"

#include <array>

namespace catsim
{

namespace
{

/**
 * Slicing-by-8 tables for the reflected polynomial 0xEDB88320:
 * t[0] is the byte-at-a-time table, and t[k][i] advances t[k-1][i]
 * over one more zero byte, so eight table lookups fold in eight bytes.
 */
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

Tables
makeTables()
{
    Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    return t;
}

const Tables &
tables()
{
    static const Tables t = makeTables();
    return t;
}

/** The little-endian 32-bit word at @p p. */
std::uint32_t
loadLe32(const unsigned char *p)
{
    const std::uint32_t low = std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8;
    return low | std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

} // namespace

void
Crc32::update(const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    const Tables &t = tables();
    std::uint32_t c = state_;
    for (; len >= 8; p += 8, len -= 8) {
        const std::uint32_t lo = loadLe32(p) ^ c;
        const std::uint32_t hi = loadLe32(p + 4);
        std::uint32_t n = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu];
        n ^= t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24];
        n ^= t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu];
        c = n ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; len > 0; --len)
        c = t[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
    state_ = c;
}

std::uint32_t
crc32(const void *data, std::size_t len)
{
    Crc32 c;
    c.update(data, len);
    return c.value();
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

} // namespace catsim
