/**
 * @file
 * Trace records and streams.
 *
 * catsim uses USIMM-style records: each record carries the number of
 * non-memory instructions since the previous memory operation (the
 * "gap"), the operation type, and the physical byte address.  Streams
 * are pull-based so synthetic generators never materialize multi-
 * gigabyte traces; a file-backed reader/writer is provided for
 * interchange with external tools.
 */

#ifndef CATSIM_TRACE_TRACE_HPP
#define CATSIM_TRACE_TRACE_HPP

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace catsim
{

/** One memory operation plus the preceding compute gap. */
struct TraceRecord
{
    std::uint32_t gap = 0; //!< non-memory instructions before this op
    bool isWrite = false;
    Addr addr = 0;
};

/** Pull-based record source. */
class TraceStream
{
  public:
    virtual ~TraceStream() = default;

    /** Fetch the next record; false at end of stream. */
    virtual bool next(TraceRecord &out) = 0;

    /** Restart from the beginning (same sequence). */
    virtual void rewind() = 0;
};

/** In-memory trace, also used as the file reader's buffer. */
class VectorTrace : public TraceStream
{
  public:
    VectorTrace() = default;
    explicit VectorTrace(std::vector<TraceRecord> records)
        : records_(std::move(records))
    {
    }

    bool
    next(TraceRecord &out) override
    {
        if (pos_ >= records_.size())
            return false;
        out = records_[pos_++];
        return true;
    }

    void rewind() override { pos_ = 0; }

    void push(const TraceRecord &r) { records_.push_back(r); }
    std::size_t size() const { return records_.size(); }
    const std::vector<TraceRecord> &records() const { return records_; }

  private:
    std::vector<TraceRecord> records_;
    std::size_t pos_ = 0;
};

/**
 * Strict whole-token address parse (base auto-detected): returns
 * false on partial junk like "0x123junk", which std::stoull alone
 * would silently truncate.  Shared by every trace dialect reader.
 */
bool parseTraceAddr(const std::string &token, Addr *out);

/**
 * Write a stream to a simple text format: one "gap R|W hexaddr" per
 * line.  Returns the number of records written.
 */
std::size_t writeTraceFile(const std::string &path, TraceStream &stream);

/** Read a trace file written by writeTraceFile. */
VectorTrace readTraceFile(const std::string &path);

/**
 * Append the kEpochMarker sentinel to every per-bank stream: the one
 * marker emission point of the timing front ends and trace ingestion.
 */
void appendEpochMarkers(std::vector<std::vector<RowAddr>> &streams);

} // namespace catsim

#endif // CATSIM_TRACE_TRACE_HPP
