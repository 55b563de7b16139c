#include "system_config.hpp"

#include <sstream>

#include "common/logging.hpp"

namespace catsim
{

const char *
systemPresetName(SystemPreset preset)
{
    switch (preset) {
      case SystemPreset::DualCore2Ch:
        return "dual2ch";
      case SystemPreset::QuadCore2Ch:
        return "quad2ch";
      case SystemPreset::QuadCore4Ch:
        return "quad4ch";
    }
    return "?";
}

SystemPreset
parseSystemPreset(const std::string &name)
{
    const std::string s = asciiLower(name);
    if (s == "dual2ch")
        return SystemPreset::DualCore2Ch;
    if (s == "quad2ch")
        return SystemPreset::QuadCore2Ch;
    if (s == "quad4ch")
        return SystemPreset::QuadCore4Ch;
    CATSIM_FATAL("system must be dual2ch|quad2ch|quad4ch, got '", name,
                 "'");
}

std::string
WorkloadSpec::label() const
{
    if (!isAttack)
        return name;
    std::ostringstream os;
    os << "attack-";
    // The Gaussian default is omitted so pre-existing labels (and the
    // on-disk baseline cache keys derived from them) stay unchanged.
    if (attackKernelKind != AttackKernelKind::Gaussian)
        os << attackKernelKindName(attackKernelKind) << '-';
    os << attackModeName(attackMode) << "-k" << attackKernel
       << "+" << name;
    return os.str();
}

SystemConfig
SystemConfig::parse(const Config &cfg)
{
    SystemConfig sys;
    sys.scheme = SchemeConfig::parse(cfg);
    sys.preset = parseSystemPreset(cfg.getString("system", "dual2ch"));

    WorkloadSpec &w = sys.workload;
    w.name = cfg.getString("workload", "black");
    w.seed = cfg.getUint("seed", 42);
    w.attackKernelKind =
        parseAttackKernelKind(cfg.getString("kind", "gaussian"));
    const std::string attack =
        asciiLower(cfg.getString("attack", "none"));
    if (attack != "none") {
        w.isAttack = true;
        w.attackKernel = cfg.getUint("kernel", 1);
        if (attack == "heavy")
            w.attackMode = AttackMode::Heavy;
        else if (attack == "medium")
            w.attackMode = AttackMode::Medium;
        else if (attack == "light")
            w.attackMode = AttackMode::Light;
        else
            CATSIM_FATAL("attack must be none|heavy|medium|light, got '",
                         attack, "'");
    }
    return sys;
}

std::string
SystemConfig::format() const
{
    const WorkloadSpec defw;
    std::ostringstream os;
    os << "system=" << systemPresetName(preset);
    // "black" is parse()'s default, so omitting it keeps the line
    // minimal while parse(format()) still round-trips; an empty name
    // only exists on never-parsed programmatic specs.
    if (!workload.name.empty() && workload.name != "black")
        os << " workload=" << workload.name;
    if (workload.seed != defw.seed)
        os << " seed=" << workload.seed;
    if (workload.isAttack) {
        os << " attack=" << asciiLower(attackModeName(workload.attackMode));
        if (workload.attackKernel != defw.attackKernel)
            os << " kernel=" << workload.attackKernel;
        if (workload.attackKernelKind != defw.attackKernelKind)
            os << " kind="
               << attackKernelKindName(workload.attackKernelKind);
    }
    os << ' ' << scheme.format();
    return os.str();
}

std::string
SystemConfig::label() const
{
    return scheme.label() + "@" + workload.label() + "/"
           + systemPresetName(preset);
}

} // namespace catsim
