/**
 * @file
 * The one configuration surface for a simulated system: which machine
 * preset, which workload/attack the cores run, and which mitigation
 * scheme (with eviction policy and counter pooling) defends the
 * banks.
 *
 * Historically three parsers grew independently - the simulate CLI's
 * flag block, per-bench cell builders, and ad-hoc label formatting -
 * each accepting a slightly different key set.  SystemConfig::parse is
 * now the single reader of the key=value surface and
 * SystemConfig::format the single writer: `parse(fromString(format()))`
 * round-trips exactly, so a printed config line IS a reproduction
 * recipe.  The legacy simulate flags (`eviction=`, `bankspool=`,
 * `kernelkind=`) remain as aliases of the canonical keys.
 *
 * Key surface (all optional, shown with canonical names):
 *   system=dual2ch|quad2ch|quad4ch
 *   workload=<profile> seed=<n>
 *   attack=none|heavy|medium|light kernel=<1..12>
 *   kind=gaussian|multibank|manysided|halfdouble
 *                                      (alias: kernelkind=)
 *   scheme=none|sca|pra|prcat|drcat|cc|mg|rfm
 *   counters=<M> levels=<L> threshold=<T>
 *   p=<PRA prob> lfsr=0|1 ways=<CC assoc> schemeseed=<n>
 *   rfmbudget=<ACTs per RFM command>
 *   policy=lru|lfu|random              (alias: eviction=)
 *   pool=<banks per shared pool>       (alias: bankspool=)
 */

#ifndef CATSIM_SIM_SYSTEM_CONFIG_HPP
#define CATSIM_SIM_SYSTEM_CONFIG_HPP

#include <string>

#include "common/config.hpp"
#include "core/factory.hpp"
#include "trace/attack.hpp"
#include "trace/attack_kernel.hpp"

namespace catsim
{

/** System shape presets used in the paper. */
enum class SystemPreset
{
    DualCore2Ch,  //!< Table I default
    QuadCore2Ch,  //!< Section VIII-B
    QuadCore4Ch,  //!< Section VIII-B
};

/** Canonical preset key, e.g. "dual2ch". */
const char *systemPresetName(SystemPreset preset);

/** Parse "dual2ch|quad2ch|quad4ch" (fatal otherwise). */
SystemPreset parseSystemPreset(const std::string &name);

/** What the cores execute. */
struct WorkloadSpec
{
    std::string name;              //!< workload profile name
    bool isAttack = false;
    AttackMode attackMode = AttackMode::Medium;
    std::uint64_t attackKernel = 1; //!< 1..12
    /** Target placement (Gaussian = paper default; MultiBank
     *  synchronizes one target set across all banks). */
    AttackKernelKind attackKernelKind = AttackKernelKind::Gaussian;
    std::uint64_t seed = 42;

    std::string label() const;
};

/**
 * Everything one evaluation cell needs: machine x workload x scheme.
 */
struct SystemConfig
{
    SystemPreset preset = SystemPreset::DualCore2Ch;
    WorkloadSpec workload;
    SchemeConfig scheme;

    /**
     * Read the full key=value surface (canonical keys and legacy
     * aliases) from @p cfg; unknown values are fatal, missing keys
     * keep paper defaults - byte-compatible with the historical
     * simulate CLI parser.
     */
    static SystemConfig parse(const Config &cfg);

    /** Convenience: parse a "key=value ..." string. */
    static SystemConfig parse(const std::string &text)
    {
        return parse(Config::fromString(text));
    }

    /**
     * Canonical key=value line; only non-default keys are emitted, and
     * parse(format()) reproduces this config exactly.  (A programmatic
     * custom split-threshold schedule is the one field with no key; it
     * is never emitted and cannot round-trip.)
     */
    std::string format() const;

    /**
     * Human tag for tables and reports:
     * "<scheme label>@<workload label>/<preset>" - every piece routed
     * through the same single formatter the labels always came from.
     */
    std::string label() const;
};

} // namespace catsim

#endif // CATSIM_SIM_SYSTEM_CONFIG_HPP
