/**
 * @file
 * CRC32 (IEEE 802.3 reflected polynomial) for on-disk integrity.
 *
 * Every binary artifact the simulator persists (baseline cache files,
 * checkpoint journals) carries a CRC32 so a torn write, truncated
 * tail, or bit flip is detected at load time instead of silently
 * feeding corrupt state into a figure.  The streaming Crc32 class
 * lets writers fold in data as they serialize; crc32() is the oneshot
 * convenience for buffers already in memory.
 */

#ifndef CATSIM_COMMON_CHECKSUM_HPP
#define CATSIM_COMMON_CHECKSUM_HPP

#include <cstddef>
#include <cstdint>
#include <string>

namespace catsim
{

/** Streaming CRC32 accumulator (IEEE, reflected, init/final 0xFFFFFFFF). */
class Crc32
{
  public:
    /** Fold @p len bytes at @p data into the running checksum. */
    void update(const void *data, std::size_t len);

    /** Finalized checksum of everything updated so far. */
    std::uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }

    /** Reset to the empty-input state. */
    void reset() { state_ = 0xFFFFFFFFu; }

  private:
    std::uint32_t state_ = 0xFFFFFFFFu;
};

/** CRC32 of one contiguous buffer. */
std::uint32_t crc32(const void *data, std::size_t len);

/**
 * 64-bit FNV-1a of @p s: collision-proofs the journal and baseline
 * cache file names.  A name hash, not an integrity check.
 */
std::uint64_t fnv1a(const std::string &s);

} // namespace catsim

#endif // CATSIM_COMMON_CHECKSUM_HPP
