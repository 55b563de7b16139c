/**
 * @file
 * Pluggable victim-selection strategies for the counter cache.
 *
 * The paper's counter-cache baseline (Section II) fixes one cache
 * organization; bench_fig15_extensions studies how sensitive its
 * CMRPO is to the eviction policy.  LRU is the default, alongside
 * LFU and a PRNG-driven random policy.  Random draws through the
 * existing `PrngSource` abstraction so runs stay deterministic given
 * the scheme seed, and the bits it consumes are charged to
 * `SchemeStats::prngBits` like PRA's.
 */

#ifndef CATSIM_CORE_EVICTION_POLICY_HPP
#define CATSIM_CORE_EVICTION_POLICY_HPP

#include <cstdint>
#include <memory>
#include <string>

#include "common/types.hpp"

namespace catsim
{

/** Victim-selection strategy selector (SchemeConfig::evictionPolicy). */
enum class EvictionPolicyKind
{
    Lru,    //!< first invalid way, else least-recently used (default)
    Lfu,    //!< first invalid way, else least use count (LRU tiebreak)
    Random, //!< first invalid way, else a PrngSource draw
};

/** Per-way replacement metadata kept by the counter cache. */
struct CacheWayState
{
    bool valid = false;
    std::uint64_t lastUse = 0;  //!< tick of the last hit or fill
    std::uint64_t useCount = 0; //!< hits + fills since the last fill
};

/** Victim-selection strategy for one set of the counter cache. */
class EvictionPolicy
{
  public:
    virtual ~EvictionPolicy() = default;

    /**
     * Pick the victim way for a fill (only called on a miss, so no way
     * in the set matches the tag).
     *
     * @param set  Per-way metadata, @p ways entries.
     * @param ways Set associativity.
     * @return Way index in [0, ways).
     */
    virtual std::uint32_t pickVictim(const CacheWayState *set,
                                     std::uint32_t ways) = 0;

    /** Random bits drawn so far (non-zero for Random only). */
    virtual Count prngBits() const { return 0; }
};

/** Parse "lru|lfu|random" (case-insensitive). */
EvictionPolicyKind parseEvictionPolicy(const std::string &name);

/** Policy name, e.g. "lru". */
const char *evictionPolicyName(EvictionPolicyKind kind);

/**
 * Build a policy instance.  @p seed feeds the Random policy's
 * PrngSource (ignored by the deterministic policies), so per-bank
 * caches built from one SchemeConfig draw independent streams.
 */
std::unique_ptr<EvictionPolicy> makeEvictionPolicy(
    EvictionPolicyKind kind, std::uint64_t seed);

} // namespace catsim

#endif // CATSIM_CORE_EVICTION_POLICY_HPP
