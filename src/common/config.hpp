/**
 * @file
 * Lightweight key=value configuration with typed getters.
 *
 * Used by the example CLIs (simulate, workload_study) and by
 * SystemConfig::parse, so experiments can be re-run with different
 * parameters without recompiling.  Parsing accepts "key=value" tokens,
 * from argv or one whitespace-separated string.
 */

#ifndef CATSIM_COMMON_CONFIG_HPP
#define CATSIM_COMMON_CONFIG_HPP

#include <cstdint>
#include <map>
#include <set>
#include <string>

namespace catsim
{

/**
 * String-keyed configuration dictionary.  The getters record which keys
 * they were asked for (see rejectUnread), so one Config is not for
 * concurrent use.
 */
class Config
{
  public:
    Config() = default;

    /**
     * Parse argv-style "key=value" tokens.  A token without '=' and a
     * key given twice are fatal.
     */
    static Config fromArgs(int argc, const char *const *argv);

    /** Parse a whitespace-separated "key=value ..." string (what
     *  SystemConfig::format emits; completes the round-trip), with
     *  fromArgs' rules. */
    static Config fromString(const std::string &text);

    /** Set @p key, replacing any earlier value. */
    void set(const std::string &key, const std::string &value);

    std::string getString(const std::string &key,
                          const std::string &def) const;
    std::int64_t getInt(const std::string &key, std::int64_t def) const;
    std::uint64_t getUint(const std::string &key, std::uint64_t def) const;
    double getDouble(const std::string &key, double def) const;
    bool getBool(const std::string &key, bool def) const;

    /**
     * Fatal on the first key (in sorted order) that no getter has
     * asked for: a misspelt or retired key would otherwise run the
     * defaults silently.  Call it after the last read.
     */
    void rejectUnread() const;

  private:
    /** Add one parsed "key=value" token; fatal on a repeated key. */
    void setToken(const std::string &token);

    /** Value of @p key, or nullptr; records that @p key was read. */
    const std::string *find(const std::string &key) const;

    std::map<std::string, std::string> values_;
    mutable std::set<std::string> read_;
};

/**
 * Global experiment scale factor from the CATSIM_SCALE environment
 * variable (default 1.0).  Bench binaries multiply their access budgets
 * by this so CI smoke runs and long faithful runs share one code path.
 * A set CATSIM_SCALE that is not wholly a number in (0, 1] is fatal.
 */
double experimentScale();

/** ASCII-lowercased copy, for the case-insensitive name parsers. */
std::string asciiLower(std::string s);

} // namespace catsim

#endif // CATSIM_COMMON_CONFIG_HPP
