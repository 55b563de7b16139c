/**
 * @file
 * Lightweight out-of-order core front end (USIMM-style; paper Table I:
 * 3.2 GHz, retire width 2).  Of Table I's core, only the retire width
 * and the clock ratio are modelled; the ROB, fetch width and pipeline
 * depth are not.
 *
 * The model consumes trace records {gap, op, addr}.  Non-memory
 * instructions retire at the retire width; reads are issued to the
 * memory controller and the core may run ahead until its memory-level
 * parallelism window (a fixed `mlp` outstanding reads) is full, at
 * which point it stalls on the oldest outstanding read.  The window
 * keeps its completion cycles sorted, so retiring is a prefix erase
 * and the stall waits on front().
 *
 * Writes are posted: the controller acknowledges a write at its
 * arrival cycle, so the core never waits on one.  A full write queue
 * drains 16 writes into the DRAM timeline at that cycle, which delays
 * later reads through bank and bus occupancy, not the write itself.
 */

#ifndef CATSIM_SIM_CORE_MODEL_HPP
#define CATSIM_SIM_CORE_MODEL_HPP

#include <memory>
#include <vector>

#include "common/types.hpp"
#include "controller/memory_controller.hpp"
#include "trace/trace.hpp"

namespace catsim
{

/** Core pipeline parameters (paper Table I). */
struct CoreParams
{
    std::uint32_t retireWidth = 2;
    std::uint32_t cpuMult = 4;  //!< CPU cycles per bus cycle
    std::uint32_t mlp = 16;      //!< max outstanding reads
};

/** One simulated core driving a trace into the memory controller. */
class CoreModel
{
  public:
    CoreModel(CoreId id, const CoreParams &params,
              std::unique_ptr<TraceStream> stream,
              MemoryController &controller);

    /** Bus-cycle timestamp of the core's next action. */
    double time() const { return time_; }

    bool done() const { return done_; }

    /** Process one trace record; returns false when the trace ends. */
    bool step();

    /** Wait for all outstanding reads (end of simulation). */
    void drain();

    Count instructionsRetired() const { return instructions_; }
    Count memOps() const { return memOps_; }
    CoreId id() const { return id_; }

  private:
    /** Instructions retired per bus cycle at full speed. */
    double
    retirePerBusCycle() const
    {
        return static_cast<double>(params_.retireWidth)
               * static_cast<double>(params_.cpuMult);
    }

    CoreId id_;
    CoreParams params_;
    std::unique_ptr<TraceStream> stream_;
    MemoryController &controller_;
    double time_ = 0.0;
    bool done_ = false;
    std::vector<Cycle> inflightReads_; //!< completion cycles, ascending
    Count instructions_ = 0;
    Count memOps_ = 0;
};

} // namespace catsim

#endif // CATSIM_SIM_CORE_MODEL_HPP
