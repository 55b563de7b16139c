#include "activation_sim.hpp"

#include <algorithm>
#include <utility>

#include "common/logging.hpp"

namespace catsim
{

namespace
{

/**
 * Pooled-replay activation quantum.  Banks sharing a counter budget
 * must compete for it roughly in parallel, the way the timing
 * simulator's arrival-order interleaving makes them - a sequential
 * bank-by-bank replay would let bank 0 drain the whole pool before
 * bank 1 ever runs.  The quantum (activations per bank per turn) is
 * fixed, so the contention order is deterministic and independent of
 * CATSIM_JOBS; per-scheme results are otherwise identical to the
 * sequential path because batch delivery is semantically per-row.
 */
constexpr std::size_t kPoolQuantum = 1024;

} // namespace

ReplayLane::ReplayLane(ActivationSource &source,
                       std::vector<MitigationScheme *> schemes)
    : source_(&source), schemes_(std::move(schemes))
{
    if (schemes_.empty())
        CATSIM_FATAL("replay lane needs at least one scheme");
    if (source_->closedLoop() && schemes_.size() != 1)
        CATSIM_FATAL("a closed-loop source reacts to one scheme, not ",
                     schemes_.size());
}

bool
ReplayLane::step(std::size_t budget)
{
    if (ended_)
        return false;
    const bool closed = source_->closedLoop();
    while (budget > 0) {
        if (pending_ == 0) {
            const SourceChunk chunk = source_->next(&rows_, &pending_);
            if (chunk == SourceChunk::End) {
                ended_ = true;
                return false;
            }
            if (chunk == SourceChunk::Epoch) {
                for (MitigationScheme *scheme : schemes_)
                    scheme->onEpoch();
                ++epochs_;
                continue;
            }
        }
        const std::size_t take = std::min(budget, pending_);
        if (closed) {
            // Per-activation loop: the source sees every
            // RefreshAction, which is what lets adaptive attackers
            // react.
            MitigationScheme &scheme = *schemes_.front();
            for (std::size_t i = 0; i < take; ++i) {
                const RefreshAction act = scheme.onActivate(rows_[i]);
                source_->onRefreshAction(rows_[i], act);
            }
        } else {
            // Epoch markers are rare (one per 64 ms of simulated
            // time), so nearly the whole stream goes through tight
            // per-scheme inner loops instead of one virtual call per
            // activation.
            for (MitigationScheme *scheme : schemes_)
                scheme->onActivateBatch(rows_, take);
        }
        rows_ += take;
        pending_ -= take;
        budget -= take;
    }
    return true;
}

std::vector<ReplayResult>
replaySources(
    const std::vector<std::unique_ptr<ActivationSource>> &sources,
    const std::vector<SchemeConfig> &scheme_configs,
    RowAddr rows_per_bank)
{
    if (scheme_configs.empty())
        CATSIM_FATAL("replay needs at least one scheme config");
    const std::uint32_t groupBanks = scheme_configs.front().poolBanks();
    for (const SchemeConfig &cfg : scheme_configs) {
        if (cfg.kind == SchemeKind::None)
            CATSIM_FATAL("replay needs a real scheme, not None");
        if (cfg.poolBanks() != groupBanks)
            CATSIM_FATAL("configs replayed together need one pool "
                         "grouping, got ", groupBanks, " and ",
                         cfg.poolBanks(), " banks per pool");
    }
    const std::size_t numConfigs = scheme_configs.size();
    std::vector<ReplayResult> res(numConfigs);
    for (ReplayResult &r : res)
        r.banks = sources.size();

    const auto numBanks = static_cast<std::uint32_t>(sources.size());
    const std::size_t quantum =
        groupBanks > 1 ? kPoolQuantum : ReplayLane::kWholeStream;
    for (std::uint32_t g = 0; g < numBanks; g += groupBanks) {
        const std::uint32_t n = std::min(groupBanks, numBanks - g);
        if (std::none_of(sources.begin() + g, sources.begin() + g + n,
                         [](const auto &s) { return s != nullptr; }))
            continue;
        // Only this group's schemes are alive: a CounterCache carries
        // a per-row backing array, so keeping every bank's scheme
        // would multiply peak memory for nothing.
        std::vector<std::vector<std::unique_ptr<MitigationScheme>>>
            schemes;
        for (const SchemeConfig &cfg : scheme_configs)
            schemes.push_back(makeBankSchemes(cfg, rows_per_bank, n, g));
        std::vector<ReplayLane> lanes;
        for (std::uint32_t b = 0; b < n; ++b) {
            if (!sources[g + b])
                continue;
            std::vector<MitigationScheme *> bankSchemes;
            for (const auto &configSchemes : schemes)
                bankSchemes.push_back(configSchemes[b].get());
            lanes.emplace_back(*sources[g + b], std::move(bankSchemes));
        }
        // Round-robin turns in bank order until every lane has ended;
        // a private bank plays its whole stream in one turn.
        for (bool live = true; live;) {
            live = false;
            for (ReplayLane &lane : lanes)
                live |= lane.step(quantum);
        }
        for (std::size_t k = 0; k < numConfigs; ++k) {
            // Epochs follow bank 0, which is then the group's first
            // lane.
            if (g == 0 && sources[0])
                res[k].epochs = lanes.front().epochs();
            for (std::uint32_t b = 0; b < n; ++b)
                if (sources[g + b])
                    res[k].stats.add(schemes[k][b]->stats());
        }
    }
    return res;
}

ReplayResult
replaySources(
    const std::vector<std::unique_ptr<ActivationSource>> &sources,
    const SchemeConfig &scheme_config, RowAddr rows_per_bank)
{
    return replaySources(sources, std::vector<SchemeConfig>{scheme_config},
                         rows_per_bank)
        .front();
}

ReplayResult
replayActivations(const std::vector<std::vector<RowAddr>> &bank_streams,
                  const SchemeConfig &scheme_config,
                  RowAddr rows_per_bank)
{
    std::vector<std::unique_ptr<ActivationSource>> sources;
    sources.reserve(bank_streams.size());
    for (const auto &stream : bank_streams)
        sources.push_back(
            std::make_unique<RecordedStreamSource>(stream));
    return replaySources(sources, scheme_config, rows_per_bank);
}

} // namespace catsim
