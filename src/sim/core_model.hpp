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
 * which point it stalls on the oldest outstanding read.
 *
 * The window is a fixed ring of completion cycles kept in ascending
 * order from its head, sized once at construction.  Retiring advances
 * the head past the completions at or before the core's clock, a
 * stall waits on the head, and a new completion goes in after the
 * last entry not greater than it, shifting the few later ones up one
 * slot.  step() is inline header code, so the timing loop reaches the
 * controller, and through it DRAM, without a call.
 *
 * Writes are posted: the controller acknowledges a write at its
 * arrival cycle, so the core never waits on one.  A full write queue
 * drains 16 writes into the DRAM timeline at that cycle, which delays
 * later reads through bank and bus occupancy, not the write itself.
 */

#ifndef CATSIM_SIM_CORE_MODEL_HPP
#define CATSIM_SIM_CORE_MODEL_HPP

#include <cmath>
#include <memory>
#include <vector>

#include "common/bit.hpp"
#include "common/logging.hpp"
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
              MemoryController &controller)
        : id_(id),
          params_(params),
          retirePerBusCycle_(static_cast<double>(params.retireWidth)
                             * static_cast<double>(params.cpuMult)),
          stream_(std::move(stream)),
          controller_(controller),
          window_(std::size_t{1} << ceilLog2(params.mlp)),
          mask_(window_.size() - 1)
    {
        if (params.mlp == 0)
            CATSIM_FATAL("core ", id, ": the MLP window needs a slot");
    }

    /** Bus-cycle timestamp of the core's next action. */
    double time() const { return time_; }

    bool done() const { return done_; }

    /** Process one trace record; returns false when the trace ends. */
    bool
    step()
    {
        TraceRecord rec;
        if (!stream_->next(rec)) {
            done_ = true;
            return false;
        }

        // Retire the compute gap at full width.
        time_ += static_cast<double>(rec.gap) / retirePerBusCycle_;
        instructions_ += rec.gap + 1;
        ++memOps_;

        // Retire completed reads: the window is sorted, so they are a
        // prefix.
        const auto now = static_cast<Cycle>(time_);
        while (inflight_ != 0 && window_[head_] <= now)
            popOldest();

        MemRequest req;
        req.addr = rec.addr;
        req.isWrite = rec.isWrite;
        req.core = id_;
        req.arrival = static_cast<Cycle>(std::ceil(time_));

        if (rec.isWrite) {
            const Cycle ack = controller_.submitWrite(req);
            if (static_cast<double>(ack) > time_)
                time_ = static_cast<double>(ack);
            return true;
        }

        // Reads: stall on the oldest outstanding read once the MLP
        // window is full (ROB head blocks retirement).
        if (inflight_ >= params_.mlp) {
            const Cycle oldest = window_[head_];
            if (static_cast<double>(oldest) > time_)
                time_ = static_cast<double>(oldest);
            popOldest();
            req.arrival = static_cast<Cycle>(std::ceil(time_));
        }

        // Keep the window sorted: insert after the last completion not
        // later than this one, moving the later ones up a slot.  Reads
        // on one channel complete in issue order, so the scan from the
        // back stops within a few slots of the end.
        const Cycle done = controller_.submitRead(req);
        std::size_t at = inflight_;
        for (; at != 0; --at) {
            const Cycle prev = window_[(head_ + at - 1) & mask_];
            if (prev <= done)
                break;
            window_[(head_ + at) & mask_] = prev;
        }
        window_[(head_ + at) & mask_] = done;
        ++inflight_;
        return true;
    }

    /** Wait for all outstanding reads (end of simulation). */
    void
    drain()
    {
        if (inflight_ != 0) {
            const Cycle last = window_[(head_ + inflight_ - 1) & mask_];
            if (static_cast<double>(last) > time_)
                time_ = static_cast<double>(last);
        }
        head_ = 0;
        inflight_ = 0;
    }

    Count instructionsRetired() const { return instructions_; }
    Count memOps() const { return memOps_; }
    CoreId id() const { return id_; }

  private:
    /** Drop the window's oldest (smallest) completion. */
    void
    popOldest()
    {
        head_ = (head_ + 1) & mask_;
        --inflight_;
    }

    CoreId id_;
    CoreParams params_;
    double retirePerBusCycle_; //!< instructions per bus cycle, full speed
    std::unique_ptr<TraceStream> stream_;
    MemoryController &controller_;
    double time_ = 0.0;
    bool done_ = false;
    /** Completion cycles, ascending from head_; mlp slots or more. */
    std::vector<Cycle> window_;
    std::size_t mask_;
    std::size_t head_ = 0;
    std::size_t inflight_ = 0;
    Count instructions_ = 0;
    Count memOps_ = 0;
};

} // namespace catsim

#endif // CATSIM_SIM_CORE_MODEL_HPP
