/**
 * @file
 * Minimal JSON reader and writer. The reader validates the
 * observability layer's own emitters: the trace tests and the
 * adtrace_check tool parse the emitted Chrome trace / metrics JSON
 * back and assert structure instead of grepping text. The writer,
 * dump(), is the one serializer of the serving tiers' run reports
 * (ServeReport, FleetReport, MapServeReport::toJson). Supports the
 * full JSON value grammar (objects, arrays, strings with escapes,
 * numbers, booleans, null); not a general-purpose library -- no
 * streaming, whole document in memory, which is exactly right for
 * our own small files.
 */

#ifndef AD_OBS_JSON_HH
#define AD_OBS_JSON_HH

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

namespace ad::obs::json {

class Value;

using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

/** One JSON value (recursive sum type). */
class Value
{
  public:
    Value() : v_(nullptr) {}
    Value(std::nullptr_t) : v_(nullptr) {}
    Value(bool b) : v_(b) {}
    Value(double d) : v_(d) {}
    /** Any integer is stored as a number (exact up to 2^53). */
    template <typename T,
              std::enable_if_t<std::is_integral_v<T> &&
                                   !std::is_same_v<T, bool>,
                               int> = 0>
    Value(T n) : v_(static_cast<double>(n))
    {
    }
    /** A string (not the bool a pointer would convert to). */
    Value(const char* s) : v_(std::string(s)) {}
    Value(std::string s) : v_(std::move(s)) {}
    Value(Array a) : v_(std::move(a)) {}
    Value(Object o) : v_(std::move(o)) {}

    bool isNull() const { return std::holds_alternative<std::nullptr_t>(v_); }
    bool isBool() const { return std::holds_alternative<bool>(v_); }
    bool isNumber() const { return std::holds_alternative<double>(v_); }
    bool isString() const { return std::holds_alternative<std::string>(v_); }
    bool isArray() const { return std::holds_alternative<Array>(v_); }
    bool isObject() const { return std::holds_alternative<Object>(v_); }

    /** Typed accessors; panic() on type mismatch (test/tool usage). */
    bool asBool() const;
    double asNumber() const;
    const std::string& asString() const;
    const Array& asArray() const;
    const Object& asObject() const;

    /** Object member lookup; nullptr when absent or not an object. */
    const Value* find(const std::string& key) const;

  private:
    std::variant<std::nullptr_t, bool, double, std::string, Array,
                 Object>
        v_;
};

/**
 * Parse a complete JSON document. Trailing non-whitespace is an error.
 * @param error receives a message with offset on failure (optional).
 */
std::optional<Value> parse(const std::string& text,
                           std::string* error = nullptr);

/** Parse a JSON file; nullopt (with error message) on I/O failure. */
std::optional<Value> parseFile(const std::string& path,
                               std::string* error = nullptr);

/**
 * Serialize a value as an indented JSON document ending in a
 * newline. Object members come out in key order and numbers in their
 * shortest round-trip form, so parse(dump(v)) reproduces every
 * finite number exactly and equal values dump to equal bytes.
 * Non-finite numbers, which JSON cannot express, are written as null.
 */
std::string dump(const Value& value);

} // namespace ad::obs::json

#endif // AD_OBS_JSON_HH
