#include "trace.hpp"

#include <iomanip>
#include <sstream>

#include "common/fault_injection.hpp"
#include "common/logging.hpp"

namespace catsim
{

bool
parseTraceAddr(const std::string &token, Addr *out)
{
    // stoull would wrap a signed token ("-5" -> 0xFFF...FB) instead
    // of failing; addresses are unsigned, so no sign is legal.
    if (token.empty() || token[0] == '-' || token[0] == '+')
        return false;
    try {
        std::size_t pos = 0;
        *out = std::stoull(token, &pos, 0);
        return pos == token.size();
    } catch (const std::exception &) {
        return false;
    }
}

std::size_t
writeTraceFile(const std::string &path, TraceStream &stream)
{
    std::ofstream out(path);
    if (!out)
        CATSIM_FATAL("cannot open trace file '", path, "' for writing");
    TraceRecord r;
    std::size_t n = 0;
    while (stream.next(r)) {
        out << r.gap << ' ' << (r.isWrite ? 'W' : 'R') << " 0x"
            << std::hex << r.addr << std::dec << '\n';
        ++n;
    }
    return n;
}

namespace
{

/**
 * Parse one native-format line ("gap R|W hexaddr").  Returns false for
 * blank/comment lines (skip them); malformed lines are fatal, so a
 * file truncated mid-record is rejected loudly.  @p lineno and @p path
 * only feed the error message.
 */
bool
parseNativeTraceLine(const std::string &line, std::size_t lineno,
                     const std::string &path, TraceRecord *out)
{
    if (line.empty() || line[0] == '#')
        return false;
    std::istringstream is(line);
    TraceRecord r;
    char op = 0;
    std::string addr;
    if (!(is >> r.gap >> op >> addr))
        CATSIM_FATAL("bad trace line ", lineno, " in '", path, "'");
    if (op != 'R' && op != 'W')
        CATSIM_FATAL("bad op '", op, "' at line ", lineno);
    r.isWrite = (op == 'W');
    if (!parseTraceAddr(addr, &r.addr))
        CATSIM_FATAL("bad address '", addr, "' at line ", lineno,
                     " in '", path, "'");
    *out = r;
    return true;
}

} // namespace

VectorTrace
readTraceFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        CATSIM_FATAL("cannot open trace file '", path, "'");
    VectorTrace trace;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        fault::maybeThrow("trace_ingest_read");
        TraceRecord r;
        if (parseNativeTraceLine(line, lineno, path, &r))
            trace.push(r);
    }
    return trace;
}

void
appendEpochMarkers(std::vector<std::vector<RowAddr>> &streams)
{
    for (auto &s : streams)
        s.push_back(kEpochMarker);
}

} // namespace catsim
