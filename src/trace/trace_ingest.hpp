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
 * per-bank row-activation streams that replay consumes.  The readers
 * materialize the whole file in RAM.
 */

#ifndef CATSIM_TRACE_TRACE_INGEST_HPP
#define CATSIM_TRACE_TRACE_INGEST_HPP

#include <cstdint>
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

} // namespace catsim

#endif // CATSIM_TRACE_TRACE_INGEST_HPP
