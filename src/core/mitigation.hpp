/**
 * @file
 * Abstract interface for wordline-crosstalk (row hammer) mitigation
 * schemes.
 *
 * A scheme instance watches the row-activation stream of ONE DRAM bank.
 * For every activation it may order a victim-row refresh; the memory
 * controller executes the refresh, blocking the bank (the source of the
 * paper's ETO metric).  Schemes also accumulate the event counts that
 * the energy model (src/energy) converts into CMRPO.
 */

#ifndef CATSIM_CORE_MITIGATION_HPP
#define CATSIM_CORE_MITIGATION_HPP

#include <cstddef>

#include "common/types.hpp"

namespace catsim
{

/**
 * Victim-refresh order returned by a scheme for one activation.
 *
 * `rowCount` is the number of rows actually refreshed (what costs energy
 * and bank time).  [lo, hi] is the affected address range; for PRA the
 * two victims are non-contiguous (row-1 and row+1) so rowCount < span.
 */
struct RefreshAction
{
    Count rowCount = 0;
    RowAddr lo = 0;
    RowAddr hi = 0;

    bool triggered() const { return rowCount > 0; }
};

/** Event counts accumulated by a scheme; input to the energy model. */
struct SchemeStats
{
    Count activations = 0;          //!< row ACTs observed
    Count refreshEvents = 0;        //!< times a refresh was ordered
    Count victimRowsRefreshed = 0;  //!< total rows refreshed
    Count sramAccesses = 0;         //!< on-chip SRAM reads+writes
    Count prngBits = 0;             //!< random bits generated (PRA)
    Count splits = 0;               //!< CAT counter splits
    Count merges = 0;               //!< DRCAT merge-reconfigurations
    Count epochResets = 0;          //!< PRCAT periodic resets
    Count counterDramReads = 0;     //!< counter-cache misses -> DRAM
    Count counterDramWrites = 0;    //!< counter-cache writebacks

    /**
     * Every field, in the order the journal and baseline-cache codecs
     * store them (BlobWriter::putStats).  The one field list: add(),
     * operator== and the codecs all walk it.
     */
    static constexpr Count SchemeStats::*kFields[] = {
        &SchemeStats::activations,
        &SchemeStats::refreshEvents,
        &SchemeStats::victimRowsRefreshed,
        &SchemeStats::sramAccesses,
        &SchemeStats::prngBits,
        &SchemeStats::splits,
        &SchemeStats::merges,
        &SchemeStats::epochResets,
        &SchemeStats::counterDramReads,
        &SchemeStats::counterDramWrites,
    };

    /** Accumulate another instance field by field. */
    void
    add(const SchemeStats &o)
    {
        for (const auto field : kFields)
            this->*field += o.*field;
    }

    bool
    operator==(const SchemeStats &o) const
    {
        for (const auto field : kFields)
            if (this->*field != o.*field)
                return false;
        return true;
    }
};

/**
 * Base class for all mitigation schemes.  One instance per bank.
 *
 * The primary entry point is `onActivateBatch`: drivers that own a
 * stream of activations deliver it in chunks, and schemes with a hot
 * per-activation path run the whole chunk on local accumulators.  The
 * single-row `onActivate` remains for callers that need the
 * per-activation RefreshAction fed back immediately - the memory
 * controller (a triggered refresh blocks the bank) and closed-loop
 * stimulus sources (adaptive attackers observe every action) - and as
 * the semantic definition a batch must match row for row.
 */
class MitigationScheme
{
  public:
    explicit MitigationScheme(RowAddr num_rows) : numRows_(num_rows) {}
    virtual ~MitigationScheme() = default;

    MitigationScheme(const MitigationScheme &) = delete;
    MitigationScheme &operator=(const MitigationScheme &) = delete;

    /**
     * Observe one activation of @p row; returns the victim-refresh
     * order (rowCount == 0 when nothing is to be done).  Feedback-
     * coupled callers only; batch-shaped callers use onActivateBatch.
     */
    virtual RefreshAction onActivate(RowAddr row) = 0;

    /**
     * PRIMARY ENTRY POINT: observe a contiguous batch of activations
     * (no epoch markers).
     *
     * Semantically identical to calling onActivate once per row; the
     * per-row refresh actions are applied to the scheme's own stats
     * and not returned, so this is for replay-style callers that only
     * read stats() afterwards.  The default forwards to onActivate;
     * SCA and the CAT family (TreeBundle) override it with their own
     * batch loops, which hoist the virtual dispatch and the per-call
     * stats bookkeeping out of the inner loop.
     */
    virtual void
    onActivateBatch(const RowAddr *rows, std::size_t count)
    {
        for (std::size_t i = 0; i < count; ++i)
            onActivate(rows[i]);
    }

    /**
     * Auto-refresh epoch boundary (every 64 ms).  Retention refresh
     * clears accumulated disturbance, so counting schemes reset here.
     */
    virtual void onEpoch() {}

    /** Event counts so far. */
    const SchemeStats &stats() const { return stats_; }
    RowAddr numRows() const { return numRows_; }

  protected:
    /** Clamp a victim range to the bank and fill a RefreshAction. */
    RefreshAction
    makeRangeRefresh(std::int64_t lo, std::int64_t hi)
    {
        if (lo < 0)
            lo = 0;
        if (hi > static_cast<std::int64_t>(numRows_) - 1)
            hi = static_cast<std::int64_t>(numRows_) - 1;
        RefreshAction act;
        act.lo = static_cast<RowAddr>(lo);
        act.hi = static_cast<RowAddr>(hi);
        act.rowCount = static_cast<Count>(hi - lo + 1);
        ++stats_.refreshEvents;
        stats_.victimRowsRefreshed += act.rowCount;
        return act;
    }

    SchemeStats stats_;
    RowAddr numRows_;
};

} // namespace catsim

#endif // CATSIM_CORE_MITIGATION_HPP
