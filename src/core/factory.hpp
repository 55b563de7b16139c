/**
 * @file
 * Construction of mitigation schemes by name, used by the simulators,
 * bench binaries and examples.
 */

#ifndef CATSIM_CORE_FACTORY_HPP
#define CATSIM_CORE_FACTORY_HPP

#include <memory>
#include <string>
#include <vector>

#include "core/eviction_policy.hpp"
#include "core/mitigation.hpp"

namespace catsim
{

class Config;

/** Which mitigation scheme to build. */
enum class SchemeKind
{
    None,  //!< no mitigation (baseline runs)
    Sca,
    Pra,
    Prcat,
    Drcat,
    CounterCache,
    MisraGries, //!< frequent-item tracking (Graphene-style)
    Rfm,        //!< DDR5 refresh management (rolling ACT counter)
};

/** Parameters shared by all schemes; unused fields are ignored. */
struct SchemeConfig
{
    SchemeKind kind = SchemeKind::Drcat;
    std::uint32_t numCounters = 64;  //!< M (SCA/CAT) or cache capacity
    std::uint32_t maxLevels = 11;    //!< L (CAT only)
    std::uint32_t threshold = 32768; //!< refresh threshold T
    double praProbability = 0.002;   //!< p (PRA only)
    std::uint32_t cacheWays = 8;     //!< counter-cache associativity
    std::uint32_t rfmBudget = 64;    //!< ACTs per RFM command (RAAIMT)
    std::uint64_t seed = 1;          //!< PRNG seed (PRA only)
    bool lfsrPrng = false;           //!< use the cheap LFSR for PRA
    /**
     * Custom CAT split-threshold schedule (size maxLevels, last entry
     * == threshold); empty selects the paper's Section IV-D schedule.
     * Used by ablation studies; ExperimentRunner co-scales a custom
     * schedule with the refresh threshold.
     */
    std::vector<std::uint32_t> splitThresholds;
    /** Counter-cache victim selection. */
    EvictionPolicyKind evictionPolicy = EvictionPolicyKind::Lru;
    /**
     * CAT counter-pool sharing: 0 or 1 keeps the paper's private
     * per-bank pools; k > 1 shares one pool of k x numCounters
     * counters among each group of k consecutive banks (set it to the
     * geometry's banksPerRank for per-rank pools).  Only honoured by
     * makeBankSchemes - building a single pooled instance through
     * makeScheme is a configuration error.
     */
    std::uint32_t banksPerPool = 0;

    /** True when CAT banks share counter pools (banksPerPool > 1). */
    bool
    sharesPool() const
    {
        return banksPerPool > 1
               && (kind == SchemeKind::Prcat || kind == SchemeKind::Drcat);
    }

    /** Banks per counter-pool group: banksPerPool when shared, else 1. */
    std::uint32_t
    poolBanks() const
    {
        return sharesPool() ? banksPerPool : 1;
    }

    /** Human-readable label, e.g. "DRCAT_64". */
    std::string label() const;

    /**
     * Read the scheme keys of the key=value surface: scheme=,
     * counters=, levels=, threshold=, p=, lfsr=, ways=, rfmbudget=,
     * schemeseed=, policy=, pool=.  Missing keys keep the paper
     * defaults above.
     */
    static SchemeConfig parse(const Config &cfg);

    /**
     * Canonical scheme keys, defaults omitted; parse(format())
     * reproduces this config (custom splitThresholds excepted - they
     * have no key).
     */
    std::string format() const;
};

/** Parse "none|sca|pra|prcat|drcat|cc|mg|rfm" (case-insensitive). */
SchemeKind parseSchemeKind(const std::string &name);

/** Canonical scheme key, e.g. "drcat" (parseSchemeKind's inverse). */
const char *schemeKindName(SchemeKind kind);

/**
 * Build one per-bank scheme instance; returns nullptr for
 * SchemeKind::None.  PRCAT/DRCAT come back as a TreeBundle
 * (core/tree_bundle.hpp).  Fatal when the config asks for a shared
 * counter pool (banksPerPool > 1) - a single instance cannot share.
 */
std::unique_ptr<MitigationScheme> makeScheme(const SchemeConfig &config,
                                             RowAddr num_rows);

/**
 * Build the scheme instances for @p num_banks banks (flat bank order;
 * entry b is bank b's scheme, or nullptr for SchemeKind::None).  Each
 * bank's config derives its seed exactly as the historical per-bank
 * loops did (seed * 1000003 + GLOBAL bank index, where the global
 * index is first_bank + b), so per-bank construction is byte-identical
 * to calling makeScheme in a loop - and a caller building banks
 * [first_bank, first_bank + num_banks), as replaySources does one pool
 * group at a time, gets the same instances the whole-topology call
 * would.  With config.banksPerPool = k > 1 and a CAT-family kind, each
 * group of k consecutive banks (a rank, when k = banksPerRank) shares
 * one SharedCounterPool of k x numCounters counters, one TreeBundle
 * per bank on it (a short tail group keeps the per-bank budget); the
 * pool's lifetime is tied to the returned schemes, and first_bank must
 * be a multiple of k (fatal otherwise) so no pool group is split.
 */
std::vector<std::unique_ptr<MitigationScheme>> makeBankSchemes(
    const SchemeConfig &config, RowAddr num_rows,
    std::uint32_t num_banks, std::uint32_t first_bank = 0);

} // namespace catsim

#endif // CATSIM_CORE_FACTORY_HPP
