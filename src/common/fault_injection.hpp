/**
 * @file
 * Deterministic fail-point registry for crash-safety testing.
 *
 * A repo whose subject is probability-of-failure under disturbance
 * should itself be testable under injected faults: torn writes, short
 * reads, ENOSPC, a worker dying mid-cell.  Named fail-point sites are
 * compiled into the I/O and sweep hot paths; they cost one relaxed
 * atomic load when no fail-points are armed, and fire at exact hit
 * counts when armed, so a test can force "the 3rd checkpoint append
 * tears" and get the same failure every run.
 *
 * Arming:  CATSIM_FAILPOINTS=site@nth[,site@nth...]   (nth is 1-based;
 * the same site may be listed several times to arm several hits, and
 * `site@*` arms every hit).  Tests can also call
 * installFailpoints(spec) to swap the registry at runtime - this
 * resets all hit counters.
 *
 * Each site decides what "failing" means locally: saveBaseline's torn
 * site truncates the payload it writes, the checkpoint append site
 * throws after a partial record, the sweep-cell site fails one
 * attempt of one sweep cell (sim/sweep.hpp).  Sites that model a crash
 * throw FaultInjected, which is an ordinary std::runtime_error to
 * everything above.
 */

#ifndef CATSIM_COMMON_FAULT_INJECTION_HPP
#define CATSIM_COMMON_FAULT_INJECTION_HPP

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace catsim
{

/** Exception thrown by fail-point sites that model a crash/abort. */
struct FaultInjected : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

namespace fault
{

namespace detail
{
extern std::atomic<bool> gArmed;
bool shouldFailSlow(const char *site);
} // namespace detail

/** True when any fail-point is armed (one relaxed atomic load). */
inline bool
armed()
{
    return detail::gArmed.load(std::memory_order_relaxed);
}

/**
 * Count one hit of @p site; true when this exact hit is armed.  Free
 * (no counting, no lock) while nothing is armed, so production runs
 * pay nothing for the instrumentation.
 */
inline bool
shouldFail(const char *site)
{
    return armed() && detail::shouldFailSlow(site);
}

/** Throw FaultInjected when this hit of @p site is armed. */
void maybeThrow(const char *site);

/**
 * Replace the registry with @p spec (the CATSIM_FAILPOINTS grammar);
 * "" disarms everything.  Resets every site's hit counter.  Intended
 * for tests; not safe against concurrent shouldFail of the same site.
 */
void installFailpoints(const std::string &spec);

/** Hits counted for @p site since the last install (0 when unarmed). */
std::uint64_t hitCount(const std::string &site);

} // namespace fault

} // namespace catsim

#endif // CATSIM_COMMON_FAULT_INJECTION_HPP
