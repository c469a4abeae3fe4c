#include "common/config.hh"

#include <algorithm>
#include <cstdlib>
#include <string_view>
#include <vector>

#include "common/logging.hh"

namespace ad {

namespace {

/** Classic two-row Levenshtein distance. */
std::size_t
editDistance(std::string_view a, std::string_view b)
{
    std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        prev[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        cur[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t sub =
                prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
            cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
        }
        std::swap(prev, cur);
    }
    return prev[b.size()];
}

} // namespace

Config
Config::fromArgs(int argc, char** argv)
{
    Config cfg;
    for (int i = 1; i < argc; ++i) {
        std::string_view arg(argv[i]);
        if (!arg.starts_with("--"))
            fatal("unexpected positional argument '", arg,
                  "'; use --key=value");
        arg.remove_prefix(2);
        const auto eq = arg.find('=');
        if (eq != std::string_view::npos) {
            cfg.set(std::string(arg.substr(0, eq)),
                    std::string(arg.substr(eq + 1)));
        } else if (i + 1 < argc &&
                   !std::string_view(argv[i + 1]).starts_with("--")) {
            cfg.set(std::string(arg), argv[i + 1]);
            ++i;
        } else {
            cfg.set(std::string(arg), "true");
        }
    }
    return cfg;
}

void
Config::set(const std::string& key, const std::string& value)
{
    values_[key] = value;
}

const std::string*
Config::lookup(const std::string& key) const
{
    read_.insert(key);
    const auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
}

bool
Config::has(const std::string& key) const
{
    return lookup(key) != nullptr;
}

std::string
Config::getString(const std::string& key, const std::string& def) const
{
    const std::string* v = lookup(key);
    return v ? *v : def;
}

int
Config::getInt(const std::string& key, int def) const
{
    const std::string* s = lookup(key);
    if (!s)
        return def;
    char* end = nullptr;
    const long v = std::strtol(s->c_str(), &end, 10);
    if (end == s->c_str() || *end != '\0')
        fatal("config key '", key, "': '", *s, "' is not an int");
    return static_cast<int>(v);
}

double
Config::getDouble(const std::string& key, double def) const
{
    const std::string* s = lookup(key);
    if (!s)
        return def;
    char* end = nullptr;
    const double v = std::strtod(s->c_str(), &end);
    if (end == s->c_str() || *end != '\0')
        fatal("config key '", key, "': '", *s, "' is not a number");
    return v;
}

int
Config::warnUnreadKeys() const
{
    int unread = 0;
    for (const auto& [key, value] : values_) {
        if (read_.count(key))
            continue;
        ++unread;
        const std::string* best = nullptr;
        std::size_t bestDist = 0;
        for (const auto& candidate : read_) {
            const std::size_t d = editDistance(key, candidate);
            if (!best || d < bestDist) {
                best = &candidate;
                bestDist = d;
            }
        }
        if (best && bestDist <= std::max<std::size_t>(2, key.size() / 3))
            warn("unknown config key '--", key, "'; did you mean '--",
                 *best, "'?");
        else
            warn("unknown config key '--", key, "' (ignored)");
    }
    return unread;
}

bool
Config::getBool(const std::string& key, bool def) const
{
    const std::string* s = lookup(key);
    if (!s)
        return def;
    const std::string& v = *s;
    if (v == "true" || v == "1" || v == "yes" || v == "on")
        return true;
    if (v == "false" || v == "0" || v == "no" || v == "off")
        return false;
    fatal("config key '", key, "': '", v, "' is not a bool");
}

} // namespace ad
