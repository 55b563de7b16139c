/**
 * @file
 * Pluggable per-bank activation sources for replay (ReplayLane).
 *
 * A mitigation scheme consumes one bank's row-activation stream; an
 * ActivationSource produces it.  Four families exist:
 *
 *  - RecordedStreamSource: replays a stream recorded by the timing
 *    simulator (or ingested from a trace file).  Chunks are handed out
 *    zero-copy between epoch markers, so the scheme's onActivateBatch
 *    fast path is preserved and results are bit-identical to the
 *    historical replayActivations loop.
 *  - SyntheticAttackSource: generates a live kernel-attack stream
 *    (targets + uniform benign filler) without any recording - an
 *    open-loop synthetic generator.
 *  - RefreshAwareAttackerSource: a *closed-loop* TRR-style adaptive
 *    attacker.  It observes every RefreshAction the scheme under test
 *    returns; when the defense refreshes around one of its aggressor
 *    rows it rotates that aggressor elsewhere, defeating defenses
 *    whose strength comes from learning stable hot locations.
 *  - CloudMixSource: a benign open-loop multi-tenant Zipf mix whose
 *    hot sets move at phase changes.
 *
 * DisturbanceLedger wraps any of them: it passes the stream through
 * unchanged and keeps a hammer count per row from the RefreshActions
 * it observes.
 *
 * Closed-loop sources (closedLoop() == true) are driven one activation
 * at a time and receive onRefreshAction() after each; open-loop
 * sources are driven through the batched fast path.
 */

#ifndef CATSIM_SIM_ACTIVATION_SOURCE_HPP
#define CATSIM_SIM_ACTIVATION_SOURCE_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "common/zipf.hpp"
#include "core/mitigation.hpp"

namespace catsim
{

/** What ActivationSource::next produced. */
enum class SourceChunk
{
    Rows,  //!< a marker-free run of activations
    Epoch, //!< a 64 ms auto-refresh boundary
    End,   //!< stream exhausted
};

/** Pull-based producer of one bank's activation stream. */
class ActivationSource
{
  public:
    virtual ~ActivationSource() = default;

    /** True when the source reacts to per-activation RefreshActions. */
    virtual bool closedLoop() const { return false; }

    /**
     * Produce the next chunk.  On SourceChunk::Rows, the rows/count
     * outputs describe a buffer owned by the source, valid until the
     * next call.  Epoch and End leave the outputs untouched.
     */
    virtual SourceChunk next(const RowAddr **rows,
                             std::size_t *count) = 0;

    /**
     * Feedback for one activation the replay lane just played
     * (closed-loop sources only): the row and the scheme's response.
     */
    virtual void
    onRefreshAction(RowAddr row, const RefreshAction &act)
    {
        (void)row;
        (void)act;
    }
};

/** Ascending positions of every kEpochMarker in @p stream. */
std::vector<std::size_t> epochMarkerPositions(
    const std::vector<RowAddr> &stream);

/**
 * Zero-copy source over a recorded stream (rows + kEpochMarker
 * sentinels).  Emits exactly the chunk sequence the historical replay
 * loop produced: every marker-delimited segment (including a possibly
 * empty final one), with Epoch between segments.  Chunk ends come from
 * the marker positions, found once per stream, so a replay never
 * scans the rows.
 */
class RecordedStreamSource : public ActivationSource
{
  public:
    /** @p stream must outlive the source; its markers are found here. */
    explicit RecordedStreamSource(const std::vector<RowAddr> &stream)
        : RecordedStreamSource(stream, epochMarkerPositions(stream))
    {
    }

    /** @p markers must be epochMarkerPositions(stream), e.g. found
     *  once for every replay of a cached baseline. */
    RecordedStreamSource(const std::vector<RowAddr> &stream,
                         std::vector<std::size_t> markers)
        : stream_(&stream), markers_(std::move(markers))
    {
    }

    SourceChunk next(const RowAddr **rows, std::size_t *count) override;

  private:
    const std::vector<RowAddr> *stream_;
    std::vector<std::size_t> markers_;
    std::size_t nextMarker_ = 0; //!< index into markers_
    std::size_t begin_ = 0;
    bool nextIsEpoch_ = false;
    bool finished_ = false;
};

/** Shape of a synthetic per-bank attack stream. */
struct AttackSourceParams
{
    RowAddr numRows = 65536;          //!< rows in this bank
    std::vector<RowAddr> targets;     //!< initial aggressor rows
    double targetFraction = 0.5;      //!< share of acts on aggressors
    std::uint64_t actsPerEpoch = 0;   //!< activations per 64 ms epoch
    std::uint64_t epochs = 2;         //!< epochs before End
    std::uint64_t seed = 1;           //!< stream seed
};

/**
 * Shared state machine of the live attack generators: the epoch /
 * end-of-stream gate (an Epoch chunk after every actsPerEpoch
 * activations, End after the configured epoch count) and the
 * round-robin many-sided hammer over a mutable aggressor set.
 */
class AttackSourceBase : public ActivationSource
{
  public:
    const std::vector<RowAddr> &aggressors() const
    {
        return aggressors_;
    }

  protected:
    explicit AttackSourceBase(const AttackSourceParams &params);

    /** True when next() must return *out (Epoch or End) unprocessed. */
    bool atBoundary(SourceChunk *out);

    /** Activations still allowed before the next epoch boundary. */
    std::uint64_t leftInEpoch() const
    {
        return params_.actsPerEpoch - producedInEpoch_;
    }

    /** Account @p n produced activations toward the epoch gate. */
    void noteProduced(std::uint64_t n);

    /** Next aggressor row (round robin); sets lastAggressorIdx_. */
    RowAddr nextAggressor();

    AttackSourceParams params_;
    std::vector<RowAddr> aggressors_;
    Xoshiro256StarStar rng_;
    std::size_t lastAggressorIdx_ = 0;

  private:
    std::uint64_t producedInEpoch_ = 0;
    std::uint64_t epochsDone_ = 0;
    std::size_t hammerIdx_ = 0;
    bool pendingEpoch_ = false;
};

/**
 * Open-loop live generator: aggressors are hammered round-robin
 * (many-sided pattern) at the configured fraction, the rest of the
 * stream is uniform benign filler.  Deterministic in its params.
 */
class SyntheticAttackSource : public AttackSourceBase
{
  public:
    explicit SyntheticAttackSource(const AttackSourceParams &params);

    SourceChunk next(const RowAddr **rows, std::size_t *count) override;

    const std::vector<RowAddr> &targets() const { return aggressors_; }

  private:
    static constexpr std::size_t kChunk = 4096;

    std::vector<RowAddr> buffer_;
};

/**
 * Closed-loop TRR-style adaptive attacker.  Emits one activation at a
 * time; after each, the replay lane reports the scheme's
 * RefreshAction.  A triggered refresh whose victim range covers the
 * neighborhood of one of the attacker's aggressors means the defense
 * has located that aggressor - the attacker rotates it to a fresh row
 * (re-aiming, TRRespass-style) and keeps hammering.
 */
class RefreshAwareAttackerSource : public AttackSourceBase
{
  public:
    explicit RefreshAwareAttackerSource(
        const AttackSourceParams &params);

    bool closedLoop() const override { return true; }
    SourceChunk next(const RowAddr **rows, std::size_t *count) override;
    void onRefreshAction(RowAddr row,
                         const RefreshAction &act) override;

    /** Aggressor re-aims performed so far (for reports/tests). */
    Count rotations() const { return rotations_; }

  private:
    RowAddr current_ = 0;
    bool lastWasAggressor_ = false;
    Count rotations_ = 0;

    RowAddr freshRow();
};

/** Shape of the benign multi-tenant cloud-mix stream. */
struct CloudMixParams
{
    RowAddr numRows = 65536;        //!< rows in this bank
    std::uint32_t tenants = 4;      //!< co-located tenants on the bank
    RowAddr hotRowsPerTenant = 256; //!< per-tenant working-set rows
    double zipfTheta = 0.99;        //!< intra-tenant popularity skew
    std::uint64_t actsPerEpoch = 0; //!< activations per 64 ms epoch
    std::uint64_t epochs = 2;       //!< epochs before End
    std::uint64_t phaseEvery = 0;   //!< acts between hot-set moves
                                    //!< (0 = static hot sets)
    std::uint64_t seed = 1;         //!< stream seed
};

/**
 * Open-loop benign generator: a consolidated multi-tenant cloud bank.
 * Each activation picks one of the tenants uniformly and a row from
 * that tenant's Zipf-skewed working set; every phaseEvery activations
 * the working sets relocate to seeded, phase-indexed bases
 * (deterministic phase changes - the hot-spot turnover that dynamic
 * reconfiguration schemes are sold on).  Deterministic in its params
 * and independent of how the stream is chunked.
 */
class CloudMixSource : public ActivationSource
{
  public:
    explicit CloudMixSource(const CloudMixParams &params);

    SourceChunk next(const RowAddr **rows, std::size_t *count) override;

    /** Hot-set base row of @p tenant in the current phase (tests). */
    RowAddr tenantBase(std::uint32_t tenant) const;

  private:
    static constexpr std::size_t kChunk = 4096;

    /** Move every tenant's base for the phase produced_ sits in. */
    void rebase();

    CloudMixParams params_;
    ZipfSampler zipf_;
    Xoshiro256StarStar rng_;
    std::vector<RowAddr> bases_;
    std::vector<RowAddr> buffer_;
    std::uint64_t produced_ = 0; //!< total acts, drives phase changes
    std::uint64_t producedInEpoch_ = 0;
    std::uint64_t epochsDone_ = 0;
    bool pendingEpoch_ = false;
};

/**
 * Per-bank hammer ledger, as a pass-through on one bank's source: it
 * counts activations per row and resets a row's count when a refresh
 * covers ALL of its victims - interior rows need both neighbors in
 * [lo, hi] (i.e. row in [lo+1, hi-1]); the bank-edge rows have a
 * single victim (row 1 resp. N-2) and reset whenever that victim is
 * covered.  An Epoch chunk (retention refresh rewrites every row)
 * resets every count.  The maximum count ever reached is the
 * attacker's best disturbance before the defense intervened.
 *
 * This is the exact form of the rule; the SafetyChecker in
 * tests/test_integration_safety.cpp (and the tree-level copy in
 * test_cat_tree.cpp) deliberately keeps the conservative variant
 * that widens to the edges only when the refresh range touches them
 * - failing to reset there only makes the safety assertion stricter,
 * while a success *metric* must not over-report the attacker.
 *
 * The ledger is closed loop, so a replay lane hands it every
 * RefreshAction; it forwards each one to the wrapped source when
 * that source is closed loop too.  Its counts are held from the first
 * next() until End.
 */
class DisturbanceLedger : public ActivationSource
{
  public:
    DisturbanceLedger(std::unique_ptr<ActivationSource> source,
                      RowAddr num_rows);

    bool closedLoop() const override { return true; }
    SourceChunk next(const RowAddr **rows, std::size_t *count) override;
    void onRefreshAction(RowAddr row,
                         const RefreshAction &act) override;

    /** Highest count any row has reached. */
    std::uint32_t maxReached() const { return max_; }

  private:
    std::unique_ptr<ActivationSource> source_;
    /** source_->closedLoop(), asked once rather than per activation. */
    bool sourceClosed_;
    RowAddr numRows_;
    std::vector<std::uint32_t> counts_;
    std::uint32_t max_ = 0;
};

} // namespace catsim

#endif // CATSIM_SIM_ACTIVATION_SOURCE_HPP
