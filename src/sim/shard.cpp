#include "shard.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "common/logging.hpp"

namespace catsim
{

std::uint32_t
defaultShards()
{
    if (const char *env = std::getenv("CATSIM_SHARDS")) {
        char *end = nullptr;
        const long v = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && v >= 1)
            return static_cast<std::uint32_t>(v);
    }
    return 1;
}

namespace
{

/** Journal blob codec for one shard's ReplayResult (all integers). */
std::string
encodeReplay(const ReplayResult &r)
{
    BlobWriter w;
    w.putStats(r.stats);
    w.putU64(r.banks);
    w.putU64(r.epochs);
    return w.str();
}

bool
decodeReplay(const std::string &blob, ReplayResult *r)
{
    BlobReader rd(blob);
    return rd.getStats(&r->stats) && rd.getU64(&r->banks)
           && rd.getU64(&r->epochs) && rd.atEnd();
}

} // namespace

ShardPlan
ShardPlan::make(std::uint32_t num_banks, std::uint32_t num_shards,
                std::uint32_t banks_per_pool)
{
    if (num_banks == 0)
        CATSIM_FATAL("ShardPlan needs at least one bank");
    const std::uint32_t align = std::max<std::uint32_t>(banks_per_pool, 1);
    // Pool groups are the indivisible unit: a shard boundary inside a
    // group would split a SharedCounterPool (tail group may be short).
    const std::uint32_t groups = (num_banks + align - 1) / align;
    const std::uint32_t shards =
        std::min(std::max<std::uint32_t>(num_shards, 1), groups);

    ShardPlan plan;
    plan.numBanks_ = num_banks;
    plan.shards_.reserve(shards);
    for (std::uint32_t s = 0; s < shards; ++s) {
        const std::uint32_t g0 =
            static_cast<std::uint32_t>(std::uint64_t(groups) * s / shards);
        const std::uint32_t g1 = static_cast<std::uint32_t>(
            std::uint64_t(groups) * (s + 1) / shards);
        const std::uint32_t first = g0 * align;
        const std::uint32_t last = std::min(g1 * align, num_banks);
        plan.shards_.push_back({first, last - first});
    }
    return plan;
}

std::string
ShardPlan::spec() const
{
    return "banks=" + std::to_string(numBanks_) + "/shards="
           + std::to_string(shards_.size());
}

ShardedSim::ShardedSim(SchemeConfig scheme, RowAddr rows_per_bank,
                       ShardPlan plan, std::size_t jobs)
    : scheme_(std::move(scheme)), rowsPerBank_(rows_per_bank),
      plan_(std::move(plan)), tasks_(jobs)
{
}

JournaledGrid
ShardedSim::shardGrid(const std::string &tag, std::uint64_t seq) const
{
    JournaledGrid grid;
    grid.what = "fleet run shards";
    grid.failSite = "shard_task";
    std::ostringstream runKey;
    runKey << "fleet-run|tag=" << tag << "|seq=" << seq << '|'
           << scheme_.format() << "|rows=" << rowsPerBank_ << '|'
           << plan_.spec();
    for (std::size_t i = 0; i < plan_.numShards(); ++i) {
        const ShardRange &r = plan_.shards()[i];
        grid.keys.push_back("run-shard#" + std::to_string(i) + "|first="
                            + std::to_string(r.firstBank)
                            + "|n=" + std::to_string(r.numBanks));
        grid.labels.push_back("shard " + std::to_string(i));
        runKey << '|' << grid.keys.back();
    }
    grid.runKey = runKey.str();
    return grid;
}

FleetResult
ShardedSim::run(const SourceFactory &make_source, const std::string &tag)
{
    if (scheme_.kind == SchemeKind::None)
        CATSIM_FATAL("fleet replay needs a real scheme, not None");
    FleetResult fleet;
    fleet.perShard.resize(plan_.numShards());
    tasks_.run(
        shardGrid(tag, tasks_.nextSeq("run|" + tag)),
        [&fleet](std::size_t i, const std::string &blob) {
            return decodeReplay(blob, &fleet.perShard[i]);
        },
        [this, &fleet, &make_source](std::size_t i) {
            const ShardRange &range = plan_.shards()[i];
            std::vector<std::unique_ptr<ActivationSource>> sources;
            sources.reserve(range.numBanks);
            for (std::uint32_t b = 0; b < range.numBanks; ++b)
                sources.push_back(make_source(range.firstBank + b));
            fleet.perShard[i] = replaySources(sources, scheme_,
                                              rowsPerBank_, range.firstBank);
        },
        [&fleet](std::size_t i) { return encodeReplay(fleet.perShard[i]); });
    fleet.resumedShards = tasks_.lastResumed();

    // Totals over the shards that did not fail.
    fleet.errors = tasks_.lastErrors();
    std::vector<char> live(fleet.perShard.size(), 1);
    for (const CellError &e : fleet.errors)
        live[e.index] = 0;
    for (std::size_t i = 0; i < fleet.perShard.size(); ++i) {
        if (!live[i])
            continue;
        fleet.total.stats.add(fleet.perShard[i].stats);
        fleet.total.banks += fleet.perShard[i].banks;
    }
    // Epochs follow the unsharded replay's bank-0 rule: the shard
    // holding global bank 0 is always shard 0 (contiguous ranges).
    if (!fleet.perShard.empty() && live[0])
        fleet.total.epochs = fleet.perShard[0].epochs;
    return fleet;
}

} // namespace catsim
