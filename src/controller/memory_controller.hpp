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
 * Every ACT is reported to the bank's mitigation scheme; a triggered
 * RefreshAction blocks the bank for tRC per victim row, which is how
 * mitigation cost turns into execution-time overhead (ETO).
 */

#ifndef CATSIM_CONTROLLER_MEMORY_CONTROLLER_HPP
#define CATSIM_CONTROLLER_MEMORY_CONTROLLER_HPP

#include <functional>
#include <memory>
#include <queue>
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
    Cycle submitRead(const MemRequest &req);

    /**
     * Submit a read whose DRAM coordinates (@p req.loc) the caller
     * already filled in - the address-mapper bypass used by stimulus
     * sources that speak (bank, row) natively.  Same arbitration,
     * write-drain, and mitigation path as submitRead.
     */
    Cycle submitMapped(const MemRequest &req);

    /**
     * Submit a posted write.  A full write queue first drains down to
     * the low watermark into the DRAM timeline at the arrival cycle;
     * that delays later reads through bank and bus occupancy, never
     * the write itself.
     *
     * @return The arrival cycle, always: the core never waits on a
     *         write.
     */
    Cycle submitWrite(const MemRequest &req);

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
    /** A read at @p loc: drain a full write queue, then issue it. */
    Cycle read(const MappedAddr &loc, Cycle arrival);
    /** Issue one transaction into the DRAM timeline. */
    Cycle issue(const MappedAddr &loc, bool is_write, Cycle not_before);
    void drainWrites(std::uint32_t channel, std::size_t down_to,
                     Cycle now);

    DramSystem &dram_;
    const AddressMapper &mapper_;
    std::vector<std::unique_ptr<MitigationScheme>> schemes_; //!< per bank
    std::vector<std::vector<MappedAddr>> writeQ_;            //!< per chan
    ControllerStats stats_;
    ActivationObserver observer_;
    RefreshActionObserver refreshObserver_;
};

} // namespace catsim

#endif // CATSIM_CONTROLLER_MEMORY_CONTROLLER_HPP
