#include "core_model.hpp"

#include <cmath>

namespace catsim
{

CoreModel::CoreModel(CoreId id, const CoreParams &params,
                     std::unique_ptr<TraceStream> stream,
                     MemoryController &controller)
    : id_(id),
      params_(params),
      stream_(std::move(stream)),
      controller_(controller)
{
}

bool
CoreModel::step()
{
    TraceRecord rec;
    if (!stream_->next(rec)) {
        done_ = true;
        return false;
    }

    // Retire the compute gap at full width.
    time_ += static_cast<double>(rec.gap) / retirePerBusCycle();
    instructions_ += rec.gap + 1;
    ++memOps_;

    // Retire completed reads: the window is sorted, so they are a
    // prefix.
    const auto now = static_cast<Cycle>(time_);
    auto live = inflightReads_.begin();
    while (live != inflightReads_.end() && *live <= now)
        ++live;
    inflightReads_.erase(inflightReads_.begin(), live);

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

    // Reads: stall on the oldest outstanding read once the MLP window
    // is full (ROB head blocks retirement).
    if (inflightReads_.size() >= params_.mlp) {
        const Cycle oldest = inflightReads_.front();
        if (static_cast<double>(oldest) > time_)
            time_ = static_cast<double>(oldest);
        inflightReads_.erase(inflightReads_.begin());
        req.arrival = static_cast<Cycle>(std::ceil(time_));
    }

    // Keep the window sorted: insert after the last completion not
    // later than this one.  Reads on one channel complete in issue
    // order, so the scan from the back stops at or near the end.
    const Cycle done = controller_.submitRead(req);
    auto at = inflightReads_.end();
    while (at != inflightReads_.begin() && *(at - 1) > done)
        --at;
    inflightReads_.insert(at, done);
    return true;
}

void
CoreModel::drain()
{
    if (!inflightReads_.empty()
        && static_cast<double>(inflightReads_.back()) > time_)
        time_ = static_cast<double>(inflightReads_.back());
    inflightReads_.clear();
}

} // namespace catsim
