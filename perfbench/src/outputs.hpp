/**
 * @file
 * Canonical text form of the simulated results the benchmark checks,
 * and the committed references they are checked against.
 *
 * Every checked result is one line "<key>|<field>=<value>|...": a sweep
 * cell's CMRPO and full SchemeStats, a baseline's activation and
 * controller totals, or a closed-loop ETO.  Doubles are printed with 17
 * significant digits, so two lines are equal exactly when the simulated
 * values are bit-identical.
 */

#ifndef CATSIM_PERFBENCH_OUTPUTS_HPP
#define CATSIM_PERFBENCH_OUTPUTS_HPP

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/experiment.hpp"

namespace perfbench
{

std::string cellLine(const std::string &key, const catsim::EvalResult &r);
std::string baselineLine(const std::string &key,
                         const catsim::TimingResult &t);
std::string valueLine(const std::string &key, double value);

/** The key part of a line (everything before the first '|'). */
std::string lineKey(const std::string &line);

/** FNV-1a 64 over the lines, each terminated by '\n'. */
std::uint64_t digestLines(const std::vector<std::string> &lines);

/** Reads every line of a file; nullopt when it cannot be opened. */
std::optional<std::vector<std::string>> readLines(const std::string &path);

bool writeLines(const std::string &path,
                const std::vector<std::string> &lines);

/**
 * Committed digests: "<workload> <seed> <hex digest>" per line.
 * Returns (workload, seed) -> digest; empty when the file is missing.
 */
std::map<std::pair<std::string, std::uint64_t>, std::uint64_t>
readDigests(const std::string &path);

} // namespace perfbench

#endif // CATSIM_PERFBENCH_OUTPUTS_HPP
