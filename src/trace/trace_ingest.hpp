/**
 * @file
 * External trace-file ingestion.
 *
 * Besides catsim's native "gap R|W hexaddr" format (trace.hpp), the
 * simulator ingests DRAMSim-style traces - one memory operation per
 * line as `hexaddr READ|WRITE cycle` with absolute issue cycles - so
 * recorded streams from external tools can drive the schemes.  Records
 * are normalized into the native gap-based form (gap = cycle delta),
 * and `traceBankStreams` maps them through an AddressMapper into the
 * per-bank row-activation streams that replay consumes.
 *
 * Two ingestion modes exist.  The batch readers (readTraceFile,
 * readDramSimTrace) materialize the whole file - fine for test-sized
 * traces.  Fleet-scale runs use StreamingTraceReader + TraceWindower
 * instead: the reader refills a bounded record buffer from the file on
 * demand and the windower turns the stream into bounded per-bank row
 * windows, so a multi-GB trace is never resident at once.  Both modes
 * share the same per-line parsers, so they accept and reject byte-
 * identical inputs, and the windowed output concatenates to exactly
 * what traceBankStreams would build in RAM.
 */

#ifndef CATSIM_TRACE_TRACE_INGEST_HPP
#define CATSIM_TRACE_TRACE_INGEST_HPP

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "controller/address_mapping.hpp"
#include "dram/geometry.hpp"
#include "trace/trace.hpp"

namespace catsim
{

/** On-disk trace dialect. */
enum class TraceFormat
{
    Native,  //!< "gap R|W hexaddr" (trace.hpp)
    DramSim, //!< "hexaddr READ|WRITE cycle", absolute cycles
};

/** Parse "native|dramsim" (case-insensitive). */
TraceFormat parseTraceFormat(const std::string &name);

/**
 * Stateful DRAMSim line parser: carries the previous absolute cycle so
 * gaps come out as cycle deltas (the first record keeps its cycle as
 * lead-in gap).  parse() returns false for blank/comment lines; bad
 * lines and non-monotonic cycles are fatal.  Shared by the batch and
 * streaming readers.
 */
struct DramSimLineParser
{
    /** @return true when @p out holds a record for this line. */
    bool parse(const std::string &line, std::size_t lineno,
               const std::string &path, TraceRecord *out);

    std::uint64_t prevCycle = 0;
    bool first = true;
};

/**
 * Read a DRAMSim-style trace: `hexaddr READ|WRITE cycle` per line
 * ('#' and ';' start comments; R/W and P_MEM_RD/P_MEM_WR accepted as
 * operation spellings).  Cycles must be non-decreasing; each record's
 * gap becomes the cycle delta to its predecessor.  Malformed lines are
 * fatal, so truncated or corrupt files are rejected loudly.
 */
VectorTrace readDramSimTrace(const std::string &path);

/** Read @p path in the given dialect. */
VectorTrace readTraceFileAs(const std::string &path, TraceFormat format);

/**
 * Bounded-memory file-backed TraceStream.  Parses the file
 * chunk_records records at a time into an internal buffer, refilling
 * from disk as the consumer drains it - at no point are more than
 * chunk_records records resident (peakBuffered() proves it, for the
 * bounded-memory tests).  Yields exactly the record sequence the
 * matching batch reader would, including the same loud fatals on
 * malformed or truncated input (a line cut mid-record dies at its line
 * number), and hits the `trace_ingest_read` fail point once per file
 * line just like the batch readers.  rewind() reopens the file.
 */
class StreamingTraceReader : public TraceStream
{
  public:
    /** Default chunk: 64 Ki records (~1 MiB of buffer). */
    static constexpr std::size_t kDefaultChunkRecords = 64 * 1024;

    StreamingTraceReader(std::string path, TraceFormat format,
                         std::size_t chunk_records = kDefaultChunkRecords);

    bool next(TraceRecord &out) override;
    void rewind() override;

    /** High-water mark of records buffered at once. */
    std::size_t peakBuffered() const { return peakBuffered_; }

    /** Records handed out since construction (not reset by rewind). */
    std::uint64_t recordsRead() const { return recordsRead_; }

  private:
    void open();
    void refill();

    std::string path_;
    TraceFormat format_;
    std::size_t chunkRecords_;
    std::ifstream in_;
    std::size_t lineno_ = 0;
    DramSimLineParser dramsim_;
    std::vector<TraceRecord> buffer_;
    std::size_t pos_ = 0;
    bool exhausted_ = false;
    std::size_t peakBuffered_ = 0;
    std::uint64_t recordsRead_ = 0;
};

/**
 * Map every record of @p stream through @p mapper into per-flat-bank
 * row streams.  When @p epoch_every > 0, a kEpochMarker sentinel is
 * appended to EVERY bank stream after each @p epoch_every ingested
 * records (mirroring the wall-clock epoch boundaries the timing
 * recorder emits), so the result feeds replayActivations directly.
 * The stream is consumed from its current position.
 */
std::vector<std::vector<RowAddr>> traceBankStreams(
    TraceStream &stream, const AddressMapper &mapper,
    const DramGeometry &geometry, std::uint64_t epoch_every = 0);

/**
 * Windowed traceBankStreams: each next() call drains up to
 * window_records records from the stream into per-flat-bank row
 * vectors (rows + kEpochMarker sentinels), clearing the previous
 * window first.  The epoch cadence is carried across windows, so
 * concatenating every window per bank reproduces the traceBankStreams
 * output bit for bit while only one window is ever resident.  Feed the
 * stream from a StreamingTraceReader and the whole path is bounded:
 * O(chunk + window), independent of trace size.
 */
class TraceWindower
{
  public:
    /** Default window: 256 Ki records (~1 MiB of rows). */
    static constexpr std::size_t kDefaultWindowRecords = 256 * 1024;

    TraceWindower(TraceStream &stream, const AddressMapper &mapper,
                  const DramGeometry &geometry,
                  std::uint64_t epoch_every = 0,
                  std::size_t window_records = kDefaultWindowRecords);

    /**
     * Fill @p window (resized to totalBanks()) with the next batch of
     * per-bank rows; false when the stream is exhausted and nothing
     * was produced.
     */
    bool next(std::vector<std::vector<RowAddr>> *window);

    /** High-water mark of rows (incl. markers) held by one window. */
    std::size_t peakWindowRows() const { return peakWindowRows_; }

    /** Records windowed so far. */
    std::uint64_t recordsWindowed() const { return recordsWindowed_; }

  private:
    TraceStream &stream_;
    const AddressMapper &mapper_;
    const DramGeometry &geometry_;
    std::uint64_t epochEvery_;
    std::size_t windowRecords_;
    std::uint64_t sinceEpoch_ = 0;
    std::size_t peakWindowRows_ = 0;
    std::uint64_t recordsWindowed_ = 0;
};

} // namespace catsim

#endif // CATSIM_TRACE_TRACE_INGEST_HPP
