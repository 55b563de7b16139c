/**
 * @file
 * Lightweight key=value configuration with typed getters.
 *
 * Used by examples and bench binaries so experiments can be re-run with
 * different parameters without recompiling.  Parsing accepts
 * "key=value" tokens, from argv or one whitespace-separated string.
 */

#ifndef CATSIM_COMMON_CONFIG_HPP
#define CATSIM_COMMON_CONFIG_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace catsim
{

/** String-keyed configuration dictionary. */
class Config
{
  public:
    Config() = default;

    /** Parse argv-style "key=value" tokens; unknown tokens are fatal. */
    static Config fromArgs(int argc, const char *const *argv);

    /** Parse a whitespace-separated "key=value ..." string (what
     *  SystemConfig::format emits; completes the round-trip). */
    static Config fromString(const std::string &text);

    void set(const std::string &key, const std::string &value);
    bool has(const std::string &key) const;

    std::string getString(const std::string &key,
                          const std::string &def) const;
    std::int64_t getInt(const std::string &key, std::int64_t def) const;
    std::uint64_t getUint(const std::string &key, std::uint64_t def) const;
    double getDouble(const std::string &key, double def) const;
    bool getBool(const std::string &key, bool def) const;

    /** All keys, sorted (for reproducibility logging). */
    std::vector<std::string> keys() const;

  private:
    std::map<std::string, std::string> values_;
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
