#include "trace_ingest.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/config.hpp"
#include "common/fault_injection.hpp"
#include "common/logging.hpp"

namespace catsim
{

TraceFormat
parseTraceFormat(const std::string &name)
{
    const std::string s = asciiLower(name);
    if (s == "native")
        return TraceFormat::Native;
    if (s == "dramsim")
        return TraceFormat::DramSim;
    CATSIM_FATAL("unknown trace format '", name,
                 "' (want native|dramsim)");
}

namespace
{

bool
parseOp(const std::string &token, bool *is_write)
{
    if (token == "R" || token == "READ" || token == "P_MEM_RD") {
        *is_write = false;
        return true;
    }
    if (token == "W" || token == "WRITE" || token == "P_MEM_WR") {
        *is_write = true;
        return true;
    }
    return false;
}

/**
 * Stateful DRAMSim line parser: carries the previous absolute cycle so
 * gaps come out as cycle deltas (the first record keeps its cycle as
 * lead-in gap).  parse() returns false for blank/comment lines; bad
 * lines and non-monotonic cycles are fatal.
 */
struct DramSimLineParser
{
    /** @return true when @p out holds a record for this line. */
    bool parse(const std::string &line, std::size_t lineno,
               const std::string &path, TraceRecord *out);

    std::uint64_t prevCycle = 0;
    bool first = true;
};

bool
DramSimLineParser::parse(const std::string &line, std::size_t lineno,
                         const std::string &path, TraceRecord *out)
{
    if (line.empty() || line[0] == '#' || line[0] == ';')
        return false;
    std::istringstream is(line);
    std::string addr, op;
    std::uint64_t cycle = 0;
    if (!(is >> addr >> op >> cycle))
        CATSIM_FATAL("bad DRAMSim trace line ", lineno, " in '", path,
                     "' (want: hexaddr READ|WRITE cycle)");
    TraceRecord r;
    if (!parseOp(op, &r.isWrite))
        CATSIM_FATAL("bad op '", op, "' at line ", lineno, " in '",
                     path, "'");
    if (!parseTraceAddr(addr, &r.addr))
        CATSIM_FATAL("bad address '", addr, "' at line ", lineno,
                     " in '", path, "'");
    if (!first && cycle < prevCycle)
        CATSIM_FATAL("non-monotonic cycle ", cycle, " at line ", lineno,
                     " in '", path, "'");
    // Absolute issue cycles -> per-record compute gap.  The first
    // record keeps its cycle as lead-in gap, matching how DRAMSim
    // players idle until the first timestamp.
    const std::uint64_t delta = first ? cycle : cycle - prevCycle;
    r.gap = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(delta, 0xFFFFFFFFu));
    prevCycle = cycle;
    first = false;
    *out = r;
    return true;
}

} // namespace

VectorTrace
readDramSimTrace(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        CATSIM_FATAL("cannot open trace file '", path, "'");
    VectorTrace trace;
    std::string line;
    std::size_t lineno = 0;
    DramSimLineParser parser;
    while (std::getline(in, line)) {
        ++lineno;
        fault::maybeThrow("trace_ingest_read");
        TraceRecord r;
        if (parser.parse(line, lineno, path, &r))
            trace.push(r);
    }
    return trace;
}

VectorTrace
readTraceFileAs(const std::string &path, TraceFormat format)
{
    switch (format) {
      case TraceFormat::Native:
        return readTraceFile(path);
      case TraceFormat::DramSim:
        return readDramSimTrace(path);
    }
    CATSIM_FATAL("unhandled trace format");
}

std::vector<std::vector<RowAddr>>
traceBankStreams(TraceStream &stream, const AddressMapper &mapper,
                 const DramGeometry &geometry,
                 std::uint64_t epoch_every)
{
    std::vector<std::vector<RowAddr>> streams(geometry.totalBanks());
    TraceRecord r;
    std::uint64_t sinceEpoch = 0;
    while (stream.next(r)) {
        const MappedAddr loc = mapper.map(r.addr);
        const std::uint32_t flat = loc.bankId().flat(geometry);
        if (flat >= streams.size())
            CATSIM_FATAL("trace address 0x", std::hex, r.addr, std::dec,
                         " maps outside the geometry (bank ", flat,
                         " of ", streams.size(), ")");
        streams[flat].push_back(loc.row);
        if (epoch_every > 0 && ++sinceEpoch >= epoch_every) {
            sinceEpoch = 0;
            appendEpochMarkers(streams);
        }
    }
    return streams;
}

} // namespace catsim
