#include "montecarlo.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "core/pra.hpp"
#include "sim/checkpoint.hpp"

namespace catsim
{

double
McResult::unsurvivabilityAfter(double q0, double intervals) const
{
    const double exposures = q0 * intervals;
    if (windowFailureProb <= 0.0)
        return 0.0;
    // 1 - (1-pf)^n computed stably.
    return -std::expm1(exposures * std::log1p(-windowFailureProb));
}

McResult
praWindowFailures(PrngSource &prng, std::uint32_t threshold, double p,
                  std::uint64_t windows)
{
    if (p <= 0.0 || p >= 1.0)
        CATSIM_FATAL("probability must be in (0,1)");
    const PraDecisionRule rule = praDecisionRule(p);

    McResult res;
    res.windows = windows;
    // Each trial models one hammered victim: its disturbance counter
    // restarts whenever a refresh is accepted; the trial fails when T
    // consecutive draws all miss the accept region.
    for (std::uint64_t w = 0; w < windows; ++w) {
        bool refreshed = false;
        for (std::uint32_t i = 0; i < threshold; ++i) {
            if (prng.nextBits(rule.bits) < rule.acceptBelow) {
                refreshed = true;
                break;
            }
        }
        if (!refreshed)
            ++res.failedWindows;
    }
    res.windowFailureProb = windows == 0
        ? 0.0
        : static_cast<double>(res.failedWindows)
              / static_cast<double>(res.windows);
    return res;
}

namespace
{

/** Per-batch PRNG: an independent stream seeded from (seed, batch). */
std::unique_ptr<PrngSource>
makeBatchPrng(const McCampaignSpec &spec, std::uint64_t batch)
{
    SplitMix64 mix(spec.seed ^ (batch * 0x9E3779B97F4A7C15ULL));
    const std::uint64_t derived = mix.next();
    if (spec.prng == McCampaignSpec::Prng::True)
        return std::make_unique<TruePrng>(derived);
    // The LFSR register must be nonzero within its width.
    const std::uint64_t mask =
        spec.lfsrWidth >= 64 ? ~0ULL : ((1ULL << spec.lfsrWidth) - 1);
    std::uint64_t s = derived & mask;
    if (s == 0)
        s = 1;
    return std::make_unique<LfsrPrng>(spec.lfsrWidth, s);
}

} // namespace

std::string
McCampaignSpec::journalKeyPrefix() const
{
    std::ostringstream os;
    os << "mc|" << (prng == Prng::True ? "true" : "lfsr") << '|'
       << lfsrWidth << "|seed=" << seed << "|T=" << threshold
       << "|p=" << std::hexfloat << p << std::defaultfloat
       << "|windows=" << windows << "|batch=" << windowsPerBatch;
    return os.str();
}

McResult
praWindowFailuresResumable(const McCampaignSpec &spec,
                           CheckpointJournal *journal)
{
    const std::uint64_t batchSize =
        spec.windowsPerBatch ? spec.windowsPerBatch : 1;
    const std::string prefix = spec.journalKeyPrefix();

    McResult total;
    total.windows = spec.windows;
    std::uint64_t resumed = 0;
    for (std::uint64_t batch = 0, start = 0; start < spec.windows;
         ++batch, start += batchSize) {
        const std::uint64_t count =
            std::min(batchSize, spec.windows - start);
        const std::string key =
            prefix + "|#" + std::to_string(batch);

        if (journal) {
            std::string blob;
            std::uint64_t failed = 0, windows = 0;
            if (journal->lookup(key, &blob)) {
                BlobReader r(blob);
                if (r.getU64(&failed) && r.getU64(&windows)
                    && r.atEnd() && windows == count) {
                    total.failedWindows += failed;
                    ++resumed;
                    continue;
                }
            }
        }

        const auto prng = makeBatchPrng(spec, batch);
        const McResult br =
            praWindowFailures(*prng, spec.threshold, spec.p, count);
        total.failedWindows += br.failedWindows;
        if (journal) {
            BlobWriter w;
            w.putU64(br.failedWindows);
            w.putU64(br.windows);
            journal->append(key, w.str());
        }
    }
    if (resumed > 0)
        CATSIM_INFORM("checkpoint: resumed ", resumed,
                      " Monte-Carlo batches (", prefix, ")");
    total.windowFailureProb = total.windows == 0
        ? 0.0
        : static_cast<double>(total.failedWindows)
              / static_cast<double>(total.windows);
    return total;
}

} // namespace catsim
