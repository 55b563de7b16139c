#include "config.hpp"

#include <cctype>
#include <cstdlib>

#include "logging.hpp"

namespace catsim
{

namespace
{

std::pair<std::string, std::string>
splitPair(const std::string &token)
{
    const auto eq = token.find('=');
    if (eq == std::string::npos)
        CATSIM_FATAL("config token '", token, "' is not key=value");
    return {token.substr(0, eq), token.substr(eq + 1)};
}

} // namespace

void
Config::setToken(const std::string &token)
{
    auto [k, v] = splitPair(token);
    // A second token for one key would silently replace the first, so
    // `scheme=pra scheme=cc` would run CC: refuse it instead.
    if (values_.count(k) != 0)
        CATSIM_FATAL("config key '", k, "' is given more than once");
    values_.emplace(std::move(k), std::move(v));
}

Config
Config::fromArgs(int argc, const char *const *argv)
{
    Config cfg;
    for (int i = 1; i < argc; ++i)
        cfg.setToken(argv[i]);
    return cfg;
}

Config
Config::fromString(const std::string &text)
{
    Config cfg;
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t end = text.find_first_of(" \t\r\n", pos);
        const std::string token =
            text.substr(pos, end == std::string::npos ? std::string::npos
                                                      : end - pos);
        pos = end == std::string::npos ? text.size() : end + 1;
        if (!token.empty())
            cfg.setToken(token);
    }
    return cfg;
}

void
Config::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
}

const std::string *
Config::find(const std::string &key) const
{
    read_.insert(key);
    const auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
}

std::string
Config::getString(const std::string &key, const std::string &def) const
{
    const std::string *v = find(key);
    return v ? *v : def;
}

std::int64_t
Config::getInt(const std::string &key, std::int64_t def) const
{
    const std::string *v = find(key);
    if (!v)
        return def;
    try {
        return std::stoll(*v);
    } catch (...) {
        CATSIM_FATAL("config key '", key, "' value '", *v,
                     "' is not an integer");
    }
}

std::uint64_t
Config::getUint(const std::string &key, std::uint64_t def) const
{
    const auto v = getInt(key, static_cast<std::int64_t>(def));
    if (v < 0)
        CATSIM_FATAL("config key '", key, "' must be non-negative");
    return static_cast<std::uint64_t>(v);
}

double
Config::getDouble(const std::string &key, double def) const
{
    const std::string *v = find(key);
    if (!v)
        return def;
    try {
        return std::stod(*v);
    } catch (...) {
        CATSIM_FATAL("config key '", key, "' value '", *v, "' is not a number");
    }
}

bool
Config::getBool(const std::string &key, bool def) const
{
    const std::string *p = find(key);
    if (!p)
        return def;
    const std::string &v = *p;
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    if (v == "0" || v == "false" || v == "no" || v == "off")
        return false;
    CATSIM_FATAL("config key '", key, "' value '", v, "' is not boolean");
}

void
Config::rejectUnread() const
{
    for (const auto &[k, v] : values_) {
        if (read_.count(k) == 0)
            CATSIM_FATAL("config key '", k, "' is unknown or unused here");
    }
}

double
experimentScale()
{
    const char *env = std::getenv("CATSIM_SCALE");
    if (!env)
        return 1.0;
    // The whole string must be the number: "0.05x" or "0,05" would
    // otherwise quietly run a different (or full-length) experiment.
    char *end = nullptr;
    const double s = std::strtod(env, &end);
    if (end == env || *end != '\0'
        || std::isspace(static_cast<unsigned char>(env[0]))
        || !(s > 0.0 && s <= 1.0))
        CATSIM_FATAL("CATSIM_SCALE='", env,
                     "' is not a number in (0, 1]");
    return s;
}

std::string
asciiLower(std::string s)
{
    for (char &c : s)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return s;
}

} // namespace catsim
