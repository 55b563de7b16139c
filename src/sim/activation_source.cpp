#include "activation_source.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace catsim
{

std::vector<std::size_t>
epochMarkerPositions(const std::vector<RowAddr> &stream)
{
    std::vector<std::size_t> markers;
    for (std::size_t i = 0; i < stream.size(); ++i)
        if (stream[i] == kEpochMarker)
            markers.push_back(i);
    return markers;
}

SourceChunk
RecordedStreamSource::next(const RowAddr **rows, std::size_t *count)
{
    if (finished_)
        return SourceChunk::End;
    if (nextIsEpoch_) {
        nextIsEpoch_ = false;
        return SourceChunk::Epoch;
    }
    *rows = stream_->data() + begin_;
    if (nextMarker_ == markers_.size()) {
        *count = stream_->size() - begin_;
        finished_ = true;
    } else {
        const std::size_t end = markers_[nextMarker_++];
        *count = end - begin_;
        nextIsEpoch_ = true;
        begin_ = end + 1;
    }
    return SourceChunk::Rows;
}

AttackSourceBase::AttackSourceBase(const AttackSourceParams &params)
    : params_(params), aggressors_(params.targets), rng_(params.seed)
{
    if (params_.targets.empty())
        CATSIM_FATAL("attack source needs at least one target row");
    if (params_.actsPerEpoch == 0)
        CATSIM_FATAL("attack source needs actsPerEpoch > 0");
    // A bank-filling aggressor set would leave re-aiming (freshRow)
    // nowhere to rotate to.
    if (params_.targets.size() >= params_.numRows)
        CATSIM_FATAL("attack source needs fewer targets (",
                     params_.targets.size(), ") than rows (",
                     params_.numRows, ")");
    for (RowAddr t : params_.targets) {
        if (t >= params_.numRows)
            CATSIM_FATAL("target row ", t, " outside bank of ",
                         params_.numRows, " rows");
    }
}

bool
AttackSourceBase::atBoundary(SourceChunk *out)
{
    if (pendingEpoch_) {
        pendingEpoch_ = false;
        producedInEpoch_ = 0;
        ++epochsDone_;
        *out = SourceChunk::Epoch;
        return true;
    }
    if (epochsDone_ >= params_.epochs) {
        *out = SourceChunk::End;
        return true;
    }
    return false;
}

void
AttackSourceBase::noteProduced(std::uint64_t n)
{
    producedInEpoch_ += n;
    if (producedInEpoch_ >= params_.actsPerEpoch)
        pendingEpoch_ = true;
}

RowAddr
AttackSourceBase::nextAggressor()
{
    // Many-sided hammer: cycle through the aggressor set.
    lastAggressorIdx_ = hammerIdx_;
    hammerIdx_ = (hammerIdx_ + 1) % aggressors_.size();
    return aggressors_[lastAggressorIdx_];
}

SyntheticAttackSource::SyntheticAttackSource(
    const AttackSourceParams &params)
    : AttackSourceBase(params)
{
    buffer_.resize(kChunk);
}

SourceChunk
SyntheticAttackSource::next(const RowAddr **rows, std::size_t *count)
{
    SourceChunk boundary;
    if (atBoundary(&boundary))
        return boundary;
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(leftInEpoch(), kChunk));
    for (std::size_t i = 0; i < n; ++i) {
        buffer_[i] = rng_.nextDouble() < params_.targetFraction
            ? nextAggressor()
            : static_cast<RowAddr>(rng_.nextBounded(params_.numRows));
    }
    noteProduced(n);
    *rows = buffer_.data();
    *count = n;
    return SourceChunk::Rows;
}

RefreshAwareAttackerSource::RefreshAwareAttackerSource(
    const AttackSourceParams &params)
    : AttackSourceBase(params)
{
}

RowAddr
RefreshAwareAttackerSource::freshRow()
{
    // Re-aim to a row not currently in the aggressor set.
    for (;;) {
        const auto row =
            static_cast<RowAddr>(rng_.nextBounded(params_.numRows));
        if (std::find(aggressors_.begin(), aggressors_.end(), row)
            == aggressors_.end())
            return row;
    }
}

SourceChunk
RefreshAwareAttackerSource::next(const RowAddr **rows,
                                 std::size_t *count)
{
    SourceChunk boundary;
    if (atBoundary(&boundary))
        return boundary;
    if (rng_.nextDouble() < params_.targetFraction) {
        lastWasAggressor_ = true;
        current_ = nextAggressor();
    } else {
        lastWasAggressor_ = false;
        current_ =
            static_cast<RowAddr>(rng_.nextBounded(params_.numRows));
    }
    noteProduced(1);
    *rows = &current_;
    *count = 1;
    return SourceChunk::Rows;
}

void
RefreshAwareAttackerSource::onRefreshAction(RowAddr row,
                                            const RefreshAction &act)
{
    if (!act.triggered() || !lastWasAggressor_ || row != current_)
        return;
    // The defense just refreshed victims around this aggressor: it has
    // been located.  Rotate it to a fresh row (TRR-style re-aim) so
    // defenses that learn stable hot locations must start over.
    aggressors_[lastAggressorIdx_] = freshRow();
    ++rotations_;
}

namespace
{

/** Fatal on a mix that cannot run, before its Zipf table is built. */
const CloudMixParams &
checkedMix(const CloudMixParams &params)
{
    if (params.tenants == 0)
        CATSIM_FATAL("cloud mix needs at least one tenant");
    if (params.hotRowsPerTenant == 0
        || params.hotRowsPerTenant > params.numRows)
        CATSIM_FATAL("cloud-mix working set of ",
                     params.hotRowsPerTenant,
                     " rows does not fit a bank of ", params.numRows,
                     " rows");
    if (params.actsPerEpoch == 0)
        CATSIM_FATAL("cloud mix needs actsPerEpoch > 0");
    return params;
}

} // namespace

CloudMixSource::CloudMixSource(const CloudMixParams &params)
    : params_(checkedMix(params)),
      zipf_(params.hotRowsPerTenant, params.zipfTheta),
      rng_(params.seed),
      bases_(params.tenants, 0),
      buffer_(kChunk)
{
    rebase();
}

RowAddr
CloudMixSource::tenantBase(std::uint32_t tenant) const
{
    if (tenant >= bases_.size())
        CATSIM_FATAL("tenant ", tenant, " out of range (",
                     bases_.size(), " tenants)");
    return bases_[tenant];
}

void
CloudMixSource::rebase()
{
    // Bases are a pure hash of (seed, phase, tenant), so relocation
    // happens at the same activation index no matter how the stream
    // was chunked, and a rebuilt source lands in the same phase.
    const std::uint64_t phase =
        params_.phaseEvery ? produced_ / params_.phaseEvery : 0;
    for (std::uint32_t t = 0; t < params_.tenants; ++t) {
        Xoshiro256StarStar h(params_.seed * 0x9E3779B97F4A7C15ULL
                             + phase * 1000003ULL + t);
        bases_[t] =
            static_cast<RowAddr>(h.nextBounded(params_.numRows));
    }
}

SourceChunk
CloudMixSource::next(const RowAddr **rows, std::size_t *count)
{
    if (pendingEpoch_) {
        pendingEpoch_ = false;
        producedInEpoch_ = 0;
        ++epochsDone_;
        return SourceChunk::Epoch;
    }
    if (epochsDone_ >= params_.epochs)
        return SourceChunk::End;
    std::uint64_t n = std::min<std::uint64_t>(
        params_.actsPerEpoch - producedInEpoch_, kChunk);
    if (params_.phaseEvery > 0) {
        // Stop the chunk at the phase boundary so the rebase happens
        // at the exact activation index.
        const std::uint64_t intoPhase = produced_ % params_.phaseEvery;
        n = std::min(n, params_.phaseEvery - intoPhase);
    }
    for (std::uint64_t i = 0; i < n; ++i) {
        const auto tenant = static_cast<std::uint32_t>(
            rng_.nextBounded(params_.tenants));
        const auto offset = static_cast<RowAddr>(zipf_.sample(rng_));
        buffer_[static_cast<std::size_t>(i)] =
            (bases_[tenant] + offset) % params_.numRows;
    }
    produced_ += n;
    producedInEpoch_ += n;
    if (producedInEpoch_ >= params_.actsPerEpoch)
        pendingEpoch_ = true;
    if (params_.phaseEvery > 0 && produced_ % params_.phaseEvery == 0)
        rebase();
    *rows = buffer_.data();
    *count = static_cast<std::size_t>(n);
    return SourceChunk::Rows;
}

DisturbanceLedger::DisturbanceLedger(
    std::unique_ptr<ActivationSource> source, RowAddr num_rows)
    : source_(std::move(source)),
      sourceClosed_(source_->closedLoop()),
      numRows_(num_rows)
{
}

SourceChunk
DisturbanceLedger::next(const RowAddr **rows, std::size_t *count)
{
    // The counts live only while the bank plays: a fleet's ledgers are
    // built up front, but a replay plays private banks one at a time.
    if (counts_.empty())
        counts_.assign(numRows_, 0);
    const SourceChunk chunk = source_->next(rows, count);
    if (chunk == SourceChunk::Epoch)
        std::fill(counts_.begin(), counts_.end(), 0);
    else if (chunk == SourceChunk::End)
        counts_ = std::vector<std::uint32_t>();
    return chunk;
}

void
DisturbanceLedger::onRefreshAction(RowAddr row, const RefreshAction &act)
{
    const std::uint32_t reached = ++counts_[row];
    if (reached > max_)
        max_ = reached;
    if (act.triggered()) {
        for (std::int64_t r = static_cast<std::int64_t>(act.lo) + 1;
             r <= static_cast<std::int64_t>(act.hi) - 1; ++r)
            counts_[static_cast<std::size_t>(r)] = 0;
        if (act.lo <= 1 && act.hi >= 1)
            counts_[0] = 0;
        if (act.lo <= numRows_ - 2 && act.hi >= numRows_ - 2)
            counts_[numRows_ - 1] = 0;
    }
    if (sourceClosed_)
        source_->onRefreshAction(row, act);
}

} // namespace catsim
