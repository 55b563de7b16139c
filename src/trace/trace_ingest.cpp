#include "trace_ingest.hpp"

#include <algorithm>
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

} // namespace

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

StreamingTraceReader::StreamingTraceReader(std::string path,
                                           TraceFormat format,
                                           std::size_t chunk_records)
    : path_(std::move(path)), format_(format),
      chunkRecords_(chunk_records ? chunk_records : 1)
{
    buffer_.reserve(chunkRecords_);
    open();
}

void
StreamingTraceReader::open()
{
    in_.close();
    in_.clear();
    in_.open(path_);
    if (!in_)
        CATSIM_FATAL("cannot open trace file '", path_, "'");
    lineno_ = 0;
    dramsim_ = DramSimLineParser{};
    buffer_.clear();
    pos_ = 0;
    exhausted_ = false;
}

void
StreamingTraceReader::refill()
{
    buffer_.clear();
    pos_ = 0;
    std::string line;
    while (buffer_.size() < chunkRecords_ && std::getline(in_, line)) {
        ++lineno_;
        fault::maybeThrow("trace_ingest_read");
        TraceRecord r;
        const bool got =
            format_ == TraceFormat::Native
                ? parseNativeTraceLine(line, lineno_, path_, &r)
                : dramsim_.parse(line, lineno_, path_, &r);
        if (got)
            buffer_.push_back(r);
    }
    if (buffer_.empty())
        exhausted_ = true;
    peakBuffered_ = std::max(peakBuffered_, buffer_.size());
}

bool
StreamingTraceReader::next(TraceRecord &out)
{
    if (pos_ >= buffer_.size()) {
        if (exhausted_)
            return false;
        refill();
        if (buffer_.empty())
            return false;
    }
    out = buffer_[pos_++];
    ++recordsRead_;
    return true;
}

void
StreamingTraceReader::rewind()
{
    open();
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

TraceWindower::TraceWindower(TraceStream &stream,
                             const AddressMapper &mapper,
                             const DramGeometry &geometry,
                             std::uint64_t epoch_every,
                             std::size_t window_records)
    : stream_(stream), mapper_(mapper), geometry_(geometry),
      epochEvery_(epoch_every),
      windowRecords_(window_records ? window_records : 1)
{
}

bool
TraceWindower::next(std::vector<std::vector<RowAddr>> *window)
{
    window->resize(geometry_.totalBanks());
    for (auto &s : *window)
        s.clear();
    TraceRecord r;
    std::size_t taken = 0;
    while (taken < windowRecords_ && stream_.next(r)) {
        const MappedAddr loc = mapper_.map(r.addr);
        const std::uint32_t flat = loc.bankId().flat(geometry_);
        if (flat >= window->size())
            CATSIM_FATAL("trace address 0x", std::hex, r.addr, std::dec,
                         " maps outside the geometry (bank ", flat,
                         " of ", window->size(), ")");
        (*window)[flat].push_back(loc.row);
        ++taken;
        if (epochEvery_ > 0 && ++sinceEpoch_ >= epochEvery_) {
            sinceEpoch_ = 0;
            appendEpochMarkers(*window);
        }
    }
    recordsWindowed_ += taken;
    std::size_t rows = 0;
    for (const auto &s : *window)
        rows += s.size();
    peakWindowRows_ = std::max(peakWindowRows_, rows);
    return taken > 0;
}

} // namespace catsim
