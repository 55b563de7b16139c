#include "outputs.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench
{

namespace
{

std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

std::string
cellLine(const std::string &key, const catsim::EvalResult &r)
{
    const catsim::SchemeStats &s = r.stats;
    std::ostringstream os;
    os << key << "|cmrpo=" << fmtDouble(r.cmrpo)
       << "|acts=" << s.activations << "|refresh=" << s.refreshEvents
       << "|victims=" << s.victimRowsRefreshed
       << "|sram=" << s.sramAccesses << "|prng=" << s.prngBits
       << "|splits=" << s.splits << "|merges=" << s.merges
       << "|resets=" << s.epochResets
       << "|cdram_r=" << s.counterDramReads
       << "|cdram_w=" << s.counterDramWrites;
    return os.str();
}

std::string
baselineLine(const std::string &key, const catsim::TimingResult &t)
{
    std::ostringstream os;
    os << key << "|cycles=" << t.execCycles << "|epochs=" << t.epochs
       << "|acts=" << t.totalActivations
       << "|reads=" << t.controller.reads
       << "|writes=" << t.controller.writes
       << "|drains=" << t.controller.writeDrains;
    return os.str();
}

std::string
valueLine(const std::string &key, double value)
{
    return key + "|value=" + fmtDouble(value);
}

std::string
lineKey(const std::string &line)
{
    return line.substr(0, line.find('|'));
}

std::uint64_t
digestLines(const std::vector<std::string> &lines)
{
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](unsigned char c) {
        h ^= c;
        h *= 1099511628211ULL;
    };
    for (const std::string &line : lines) {
        for (char c : line)
            mix(static_cast<unsigned char>(c));
        mix('\n');
    }
    return h;
}

std::optional<std::vector<std::string>>
readLines(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        return std::nullopt;
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(is, line))
        lines.push_back(line);
    return lines;
}

bool
writeLines(const std::string &path, const std::vector<std::string> &lines)
{
    std::ofstream os(path);
    for (const std::string &line : lines)
        os << line << '\n';
    return static_cast<bool>(os);
}

std::map<std::pair<std::string, std::uint64_t>, std::uint64_t>
readDigests(const std::string &path)
{
    std::map<std::pair<std::string, std::uint64_t>, std::uint64_t> out;
    const auto lines = readLines(path);
    if (!lines)
        return out;
    for (const std::string &line : *lines) {
        std::istringstream is(line);
        std::string workload;
        std::uint64_t seed = 0;
        std::string hex;
        if (is >> workload >> seed >> hex)
            out[{workload, seed}] = std::stoull(hex, nullptr, 16);
    }
    return out;
}

} // namespace perfbench
