#include "eviction_policy.hpp"

#include "common/config.hpp"
#include "common/logging.hpp"
#include "core/prng_source.hpp"

namespace catsim
{

namespace
{

class LruEviction : public EvictionPolicy
{
  public:
    std::uint32_t
    pickVictim(const CacheWayState *set, std::uint32_t ways) override
    {
        std::uint32_t victim = 0;
        for (std::uint32_t w = 0; w < ways; ++w) {
            if (!set[w].valid)
                return w;
            if (set[w].lastUse < set[victim].lastUse)
                victim = w;
        }
        return victim;
    }
};

class LfuEviction : public EvictionPolicy
{
  public:
    std::uint32_t
    pickVictim(const CacheWayState *set, std::uint32_t ways) override
    {
        std::uint32_t victim = 0;
        for (std::uint32_t w = 0; w < ways; ++w) {
            if (!set[w].valid)
                return w;
            if (set[w].useCount < set[victim].useCount
                || (set[w].useCount == set[victim].useCount
                    && set[w].lastUse < set[victim].lastUse))
                victim = w;
        }
        return victim;
    }
};

class RandomEviction : public EvictionPolicy
{
  public:
    explicit RandomEviction(std::uint64_t seed) : prng_(seed) {}

    std::uint32_t
    pickVictim(const CacheWayState *set, std::uint32_t ways) override
    {
        for (std::uint32_t w = 0; w < ways; ++w)
            if (!set[w].valid)
                return w;
        bits_ += 16;
        return prng_.nextBits(16) % ways;
    }

    Count prngBits() const override { return bits_; }

  private:
    TruePrng prng_;
    Count bits_ = 0;
};

} // namespace

EvictionPolicyKind
parseEvictionPolicy(const std::string &name)
{
    const std::string s = asciiLower(name);
    if (s == "lru")
        return EvictionPolicyKind::Lru;
    if (s == "lfu")
        return EvictionPolicyKind::Lfu;
    if (s == "random")
        return EvictionPolicyKind::Random;
    CATSIM_FATAL("unknown eviction policy '", name,
                 "' (lru|lfu|random)");
}

const char *
evictionPolicyName(EvictionPolicyKind kind)
{
    switch (kind) {
      case EvictionPolicyKind::Lru:
        return "lru";
      case EvictionPolicyKind::Lfu:
        return "lfu";
      case EvictionPolicyKind::Random:
        return "random";
    }
    CATSIM_PANIC("unreachable eviction policy kind");
}

std::unique_ptr<EvictionPolicy>
makeEvictionPolicy(EvictionPolicyKind kind, std::uint64_t seed)
{
    switch (kind) {
      case EvictionPolicyKind::Lru:
        return std::make_unique<LruEviction>();
      case EvictionPolicyKind::Lfu:
        return std::make_unique<LfuEviction>();
      case EvictionPolicyKind::Random:
        // Seed passed through untouched: Xoshiro seeds via SplitMix64
        // (zero is fine), and any masking would collapse the factory's
        // consecutive per-bank seeds onto shared streams.
        return std::make_unique<RandomEviction>(seed);
    }
    CATSIM_PANIC("unreachable eviction policy kind");
}

} // namespace catsim
