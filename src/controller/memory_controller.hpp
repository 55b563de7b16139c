/**
 * @file
 * Memory controller with FR-FCFS arbitration, closed-page policy, a
 * 64-entry posted write queue per channel, and the victim-refresh hook
 * that connects DRAM activations to a crosstalk-mitigation scheme.
 *
 * Requests are submitted in global arrival order by the timing
 * simulator.  Under a closed-page policy there are no row hits to
 * reorder for, so FR-FCFS degenerates to first-come-first-served per
 * bank readiness - which the submit-in-arrival-order design models
 * exactly.  Writes are posted: they complete immediately from the
 * core's perspective, drain to DRAM when the write queue reaches a high
 * watermark (write-drain mode), and contend with reads for banks and
 * the data bus.
 *
 * Each channel's write queue is a fixed 64-slot ring: a drain issues
 * the oldest writes first and advances the ring's head, so queueing
 * and draining never allocate or move entries.  The submit calls and
 * the issue step under them are inline, down to DramSystem::issue;
 * only a drain, the activation observers and a scheme's onActivate
 * are calls.
 *
 * Every ACT is reported to the bank's mitigation scheme; a triggered
 * RefreshAction blocks the bank for tRC per victim row, which is how
 * mitigation cost turns into execution-time overhead (ETO).
 */

#ifndef CATSIM_CONTROLLER_MEMORY_CONTROLLER_HPP
#define CATSIM_CONTROLLER_MEMORY_CONTROLLER_HPP

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "controller/address_mapping.hpp"
#include "controller/request.hpp"
#include "core/factory.hpp"
#include "core/mitigation.hpp"
#include "dram/dram_system.hpp"

namespace catsim
{

/** Aggregate controller statistics. */
struct ControllerStats
{
    Count reads = 0;
    Count writes = 0;
    Count writeDrains = 0;
    Count victimRefreshEvents = 0;
    Count victimRowsRefreshed = 0;
    Cycle lastCompletion = 0;
};

/** Optional observer of the per-bank activation stream. */
using ActivationObserver =
    std::function<void(std::uint32_t bank_flat, RowAddr row)>;

/**
 * Optional observer of the per-ACT mitigation response.  Invoked for
 * EVERY activation - with an untriggered (rowCount == 0) action when
 * the bank's scheme stayed quiet or no scheme is attached - so
 * closed-loop stimulus sources can watch the defense mid-flight
 * (ActivationSource::onRefreshAction).
 */
using RefreshActionObserver = std::function<void(
    std::uint32_t bank_flat, RowAddr row, const RefreshAction &act)>;

/** The DRAM memory controller. */
class MemoryController
{
  public:
    /**
     * @param dram    DRAM device model (owned by the caller).
     * @param mapper  Address mapping policy.
     * @param scheme_config Mitigation configuration; one scheme instance
     *                is created per bank (SchemeKind::None disables).
     */
    MemoryController(DramSystem &dram, const AddressMapper &mapper,
                     const SchemeConfig &scheme_config);

    /**
     * Submit a read; requests must be submitted in non-decreasing
     * arrival order.
     *
     * @return Bus cycle at which read data is available.
     */
    Cycle
    submitRead(const MemRequest &req)
    {
        return read(mapper_.map(req.addr), req.arrival);
    }

    /**
     * Submit a read whose DRAM coordinates (@p req.loc) the caller
     * already filled in - the address-mapper bypass used by stimulus
     * sources that speak (bank, row) natively.  Same arbitration,
     * write-drain, and mitigation path as submitRead.
     */
    Cycle
    submitMapped(const MemRequest &req)
    {
        return read(req.loc, req.arrival);
    }

    /**
     * Submit a posted write.  A full write queue first drains down to
     * the low watermark into the DRAM timeline at the arrival cycle;
     * that delays later reads through bank and bus occupancy, never
     * the write itself.
     *
     * @return The arrival cycle, always: the core never waits on a
     *         write.
     */
    Cycle
    submitWrite(const MemRequest &req)
    {
        const MappedAddr loc = mapper_.map(req.addr);
        ++stats_.writes;
        WriteQueue &wq = writeQ_[loc.channel];
        drainIfFull(wq, req.arrival);
        wq.slots[(wq.head + wq.size) % kWriteQueueCapacity] = loc;
        ++wq.size;
        return req.arrival;
    }

    /** Auto-refresh epoch boundary: informs every bank's scheme. */
    void onEpoch();

    /** Flush all pending writes (end of simulation). */
    void drainAllWrites(Cycle now);

    const ControllerStats &stats() const { return stats_; }

    /** Combined stats over all per-bank scheme instances. */
    SchemeStats combinedSchemeStats() const;

    void setActivationObserver(ActivationObserver obs);
    void setRefreshActionObserver(RefreshActionObserver obs);

    static constexpr std::size_t kWriteQueueCapacity = 64;
    static constexpr std::size_t kWriteDrainLow = 48;

  private:
    /** One channel's posted writes: a FIFO ring, oldest at head. */
    struct WriteQueue
    {
        std::array<MappedAddr, kWriteQueueCapacity> slots;
        std::size_t head = 0;
        std::size_t size = 0;
    };

    /** A read at @p loc: drain a full write queue, then issue it. */
    Cycle
    read(const MappedAddr &loc, Cycle arrival)
    {
        ++stats_.reads;
        // Write-drain has priority when the queue is saturated;
        // otherwise reads bypass queued writes (standard read-priority
        // scheduling).
        drainIfFull(writeQ_[loc.channel], arrival);
        return issue(loc, false, arrival);
    }

    /** Drain a saturated queue to the low watermark at @p now. */
    void
    drainIfFull(WriteQueue &wq, Cycle now)
    {
        if (wq.size >= kWriteQueueCapacity) {
            drainWrites(wq, kWriteDrainLow, now);
            ++stats_.writeDrains;
        }
    }

    /** Issue one transaction into the DRAM timeline. */
    Cycle
    issue(const MappedAddr &loc, bool is_write, Cycle not_before)
    {
        const BankId bid = loc.bankId();
        const DramAccess access = dram_.issue(bid, is_write, not_before);

        const std::uint32_t flat = bid.flat(dram_.geometry());
        if (observer_)
            observer_(flat, loc.row);
        RefreshAction act;
        if (MitigationScheme *scheme = schemes_[flat].get()) {
            act = scheme->onActivate(loc.row);
            if (act.triggered()) {
                dram_.victimRefresh(bid, act.rowCount, access.issued);
                ++stats_.victimRefreshEvents;
                stats_.victimRowsRefreshed += act.rowCount;
            }
        }
        if (refreshObserver_)
            refreshObserver_(flat, loc.row, act);
        if (access.ready > stats_.lastCompletion)
            stats_.lastCompletion = access.ready;
        return access.ready;
    }

    /** Issue @p wq's oldest writes until @p down_to remain. */
    void drainWrites(WriteQueue &wq, std::size_t down_to, Cycle now);

    DramSystem &dram_;
    const AddressMapper &mapper_;
    std::vector<std::unique_ptr<MitigationScheme>> schemes_; //!< per bank
    std::vector<WriteQueue> writeQ_;                         //!< per chan
    ControllerStats stats_;
    ActivationObserver observer_;
    RefreshActionObserver refreshObserver_;
};

} // namespace catsim

#endif // CATSIM_CONTROLLER_MEMORY_CONTROLLER_HPP
