/**
 * @file
 * Minimal key=value configuration store with typed getters and a
 * command-line parser (--key=value / --key value / --flag). Examples and
 * bench harnesses use this for parameter sweeps instead of bespoke
 * argument handling.
 *
 * A key is known because a reader asks for it: every getter and has()
 * records the key it was asked for, and warnUnreadKeys() flags the
 * given keys no reader asked for. There is no separate list of
 * accepted keys to keep in step with the readers.
 *
 * Config is read during single-threaded setup only: the const getters
 * write the recorded key set, so concurrent reads of one Config race.
 */

#ifndef AD_COMMON_CONFIG_HH
#define AD_COMMON_CONFIG_HH

#include <map>
#include <set>
#include <string>

namespace ad {

/** String-keyed configuration with typed, defaulted lookups. */
class Config
{
  public:
    Config() = default;

    /**
     * Parse command-line arguments of the form --key=value, --key value,
     * or bare --flag (stored as "true"). Unrecognized positional
     * arguments cause a fatal() since every tool here is flag-driven.
     */
    static Config fromArgs(int argc, char** argv);

    /** Set (or overwrite) a key. Setting a key does not read it. */
    void set(const std::string& key, const std::string& value);

    bool has(const std::string& key) const;

    /** Typed getters with defaults; fatal() on unconvertible values. */
    std::string getString(const std::string& key,
                          const std::string& def = "") const;
    int getInt(const std::string& key, int def) const;
    double getDouble(const std::string& key, double def) const;
    bool getBool(const std::string& key, bool def) const;

    /** Every key a getter or has() was asked for, set or not. */
    const std::set<std::string>& readKeys() const { return read_; }

    /**
     * Warn (stderr) about every set key no reader has asked for,
     * suggesting the nearest read key by edit distance when one is
     * plausibly a typo (distance <= max(2, len/3)). Catches silently
     * ignored misspellings like --fault.drop-p for --fault.drop_p.
     * Call it once every reader has run, before the long-running
     * work. Returns the number of unread keys.
     */
    int warnUnreadKeys() const;

  private:
    /** The value stored for `key`, or nullptr; records the read. */
    const std::string* lookup(const std::string& key) const;

    std::map<std::string, std::string> values_;
    mutable std::set<std::string> read_;
};

} // namespace ad

#endif // AD_COMMON_CONFIG_HH
