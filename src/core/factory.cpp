#include "factory.hpp"

#include <algorithm>
#include <sstream>

#include "common/config.hpp"
#include "common/logging.hpp"
#include "core/counter_cache.hpp"
#include "core/misra_gries.hpp"
#include "core/pra.hpp"
#include "core/rfm.hpp"
#include "core/sca.hpp"
#include "core/shared_pool.hpp"
#include "core/tree_bundle.hpp"

namespace catsim
{

std::string
SchemeConfig::label() const
{
    std::ostringstream os;
    switch (kind) {
      case SchemeKind::None:
        os << "none";
        break;
      case SchemeKind::Sca:
        os << "SCA_" << numCounters;
        break;
      case SchemeKind::Pra:
        os << "PRA_" << praProbability;
        break;
      case SchemeKind::Prcat:
        os << "PRCAT_" << numCounters;
        break;
      case SchemeKind::Drcat:
        os << "DRCAT_" << numCounters;
        break;
      case SchemeKind::CounterCache:
        os << "CC_" << numCounters;
        // The default policy is omitted, as format() omits it.
        if (evictionPolicy != SchemeConfig{}.evictionPolicy)
            os << '_' << evictionPolicyName(evictionPolicy);
        break;
      case SchemeKind::MisraGries:
        os << "MG_" << numCounters;
        break;
      case SchemeKind::Rfm:
        os << "RFM_" << rfmBudget;
        break;
    }
    if (sharesPool())
        os << "_rank" << banksPerPool;
    return os.str();
}

const char *
schemeKindName(SchemeKind kind)
{
    switch (kind) {
      case SchemeKind::None:
        return "none";
      case SchemeKind::Sca:
        return "sca";
      case SchemeKind::Pra:
        return "pra";
      case SchemeKind::Prcat:
        return "prcat";
      case SchemeKind::Drcat:
        return "drcat";
      case SchemeKind::CounterCache:
        return "cc";
      case SchemeKind::MisraGries:
        return "mg";
      case SchemeKind::Rfm:
        return "rfm";
    }
    return "?";
}

SchemeConfig
SchemeConfig::parse(const Config &cfg)
{
    SchemeConfig s;
    s.kind = parseSchemeKind(cfg.getString("scheme", "drcat"));
    s.numCounters =
        static_cast<std::uint32_t>(cfg.getUint("counters", 64));
    s.maxLevels = static_cast<std::uint32_t>(cfg.getUint("levels", 11));
    s.threshold =
        static_cast<std::uint32_t>(cfg.getUint("threshold", 32768));
    s.praProbability = cfg.getDouble("p", 0.002);
    s.cacheWays = static_cast<std::uint32_t>(cfg.getUint("ways", 8));
    s.rfmBudget =
        static_cast<std::uint32_t>(cfg.getUint("rfmbudget", 64));
    s.seed = cfg.getUint("schemeseed", 1);
    s.lfsrPrng = cfg.getBool("lfsr", false);
    s.evictionPolicy = parseEvictionPolicy(cfg.getString("policy", "lru"));
    s.banksPerPool = static_cast<std::uint32_t>(cfg.getUint("pool", 0));
    return s;
}

std::string
SchemeConfig::format() const
{
    const SchemeConfig def;
    std::ostringstream os;
    os << "scheme=" << schemeKindName(kind);
    if (numCounters != def.numCounters)
        os << " counters=" << numCounters;
    if (maxLevels != def.maxLevels)
        os << " levels=" << maxLevels;
    if (threshold != def.threshold)
        os << " threshold=" << threshold;
    if (praProbability != def.praProbability)
        os << " p=" << praProbability;
    if (cacheWays != def.cacheWays)
        os << " ways=" << cacheWays;
    if (rfmBudget != def.rfmBudget)
        os << " rfmbudget=" << rfmBudget;
    if (seed != def.seed)
        os << " schemeseed=" << seed;
    if (lfsrPrng)
        os << " lfsr=1";
    if (evictionPolicy != def.evictionPolicy)
        os << " policy=" << evictionPolicyName(evictionPolicy);
    if (banksPerPool != def.banksPerPool)
        os << " pool=" << banksPerPool;
    return os.str();
}

SchemeKind
parseSchemeKind(const std::string &name)
{
    const std::string s = asciiLower(name);
    if (s == "none")
        return SchemeKind::None;
    if (s == "sca")
        return SchemeKind::Sca;
    if (s == "pra")
        return SchemeKind::Pra;
    if (s == "prcat")
        return SchemeKind::Prcat;
    if (s == "drcat")
        return SchemeKind::Drcat;
    if (s == "cc" || s == "countercache")
        return SchemeKind::CounterCache;
    if (s == "mg" || s == "misragries" || s == "misra-gries")
        return SchemeKind::MisraGries;
    if (s == "rfm")
        return SchemeKind::Rfm;
    CATSIM_FATAL("unknown scheme '", name, "'");
}

namespace
{

/** One bank's PRCAT/DRCAT scheme, on @p pool when it shares one. */
std::unique_ptr<MitigationScheme>
makeCat(const SchemeConfig &config, RowAddr num_rows,
        std::shared_ptr<SharedCounterPool> pool = nullptr)
{
    return std::make_unique<TreeBundle>(
        num_rows, config.numCounters, config.maxLevels, config.threshold,
        config.kind == SchemeKind::Drcat, config.splitThresholds,
        std::move(pool));
}

/** Build one private-pool instance. */
std::unique_ptr<MitigationScheme>
makeOne(const SchemeConfig &config, RowAddr num_rows)
{
    switch (config.kind) {
      case SchemeKind::None:
        return nullptr;
      case SchemeKind::Sca:
        return std::make_unique<Sca>(num_rows, config.numCounters,
                                     config.threshold);
      case SchemeKind::Pra: {
        std::unique_ptr<PrngSource> prng;
        if (config.lfsrPrng)
            prng = std::make_unique<LfsrPrng>(16, config.seed | 1);
        else
            prng = std::make_unique<TruePrng>(config.seed);
        return std::make_unique<Pra>(num_rows, config.praProbability,
                                     std::move(prng));
      }
      case SchemeKind::Prcat:
      case SchemeKind::Drcat:
        return makeCat(config, num_rows);
      case SchemeKind::CounterCache:
        return std::make_unique<CounterCache>(
            num_rows, config.numCounters, config.cacheWays,
            config.threshold,
            makeEvictionPolicy(config.evictionPolicy, config.seed));
      case SchemeKind::MisraGries:
        return std::make_unique<MisraGries>(
            num_rows, config.numCounters, config.threshold);
      case SchemeKind::Rfm:
        return std::make_unique<Rfm>(num_rows, config.rfmBudget);
    }
    CATSIM_PANIC("unreachable scheme kind");
}

} // namespace

std::unique_ptr<MitigationScheme>
makeScheme(const SchemeConfig &config, RowAddr num_rows)
{
    if (config.sharesPool())
        CATSIM_FATAL("banksPerPool=", config.banksPerPool,
                     " needs makeBankSchemes (a single instance cannot "
                     "share a counter pool)");
    return makeOne(config, num_rows);
}

std::vector<std::unique_ptr<MitigationScheme>>
makeBankSchemes(const SchemeConfig &config, RowAddr num_rows,
                std::uint32_t num_banks, std::uint32_t first_bank)
{
    std::vector<std::unique_ptr<MitigationScheme>> schemes;
    schemes.reserve(num_banks);
    if (config.sharesPool()) {
        const std::uint32_t k = config.banksPerPool;
        if (first_bank % k != 0)
            CATSIM_FATAL("first_bank=", first_bank,
                         " splits a banksPerPool=", k,
                         " counter-pool group");
        // One pool per group of k consecutive banks (a rank in flat
        // bank order) and one scheme per bank on it; a short tail
        // group keeps the per-bank budget, not the full-rank one.
        for (std::uint32_t b = 0; b < num_banks; b += k) {
            const std::uint32_t group = std::min(k, num_banks - b);
            const auto pool = std::make_shared<SharedCounterPool>(
                config.numCounters * group);
            for (std::uint32_t l = 0; l < group; ++l)
                schemes.push_back(makeCat(config, num_rows, pool));
        }
        return schemes;
    }

    for (std::uint32_t b = 0; b < num_banks; ++b) {
        SchemeConfig cfg = config;
        cfg.seed = config.seed * 1000003ULL + (first_bank + b);
        schemes.push_back(makeOne(cfg, num_rows));
    }
    return schemes;
}

} // namespace catsim
