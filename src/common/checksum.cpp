#include "checksum.hpp"

#include <array>

namespace catsim
{

namespace
{

/** Byte-at-a-time table for the reflected polynomial 0xEDB88320. */
std::array<std::uint32_t, 256>
makeTable()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

const std::array<std::uint32_t, 256> &
table()
{
    static const std::array<std::uint32_t, 256> t = makeTable();
    return t;
}

} // namespace

void
Crc32::update(const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    const auto &t = table();
    std::uint32_t c = state_;
    for (std::size_t i = 0; i < len; ++i)
        c = t[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
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
