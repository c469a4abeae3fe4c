#include "obs/json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "common/logging.hh"

namespace ad::obs::json {

bool
Value::asBool() const
{
    if (!isBool())
        panic("json::Value::asBool on non-bool");
    return std::get<bool>(v_);
}

double
Value::asNumber() const
{
    if (!isNumber())
        panic("json::Value::asNumber on non-number");
    return std::get<double>(v_);
}

const std::string&
Value::asString() const
{
    if (!isString())
        panic("json::Value::asString on non-string");
    return std::get<std::string>(v_);
}

const Array&
Value::asArray() const
{
    if (!isArray())
        panic("json::Value::asArray on non-array");
    return std::get<Array>(v_);
}

const Object&
Value::asObject() const
{
    if (!isObject())
        panic("json::Value::asObject on non-object");
    return std::get<Object>(v_);
}

const Value*
Value::find(const std::string& key) const
{
    if (!isObject())
        return nullptr;
    const auto& obj = std::get<Object>(v_);
    const auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
}

namespace {

/** Recursive-descent parser over an in-memory document. */
class Parser
{
  public:
    explicit Parser(const std::string& text) : text_(text) {}

    std::optional<Value>
    run(std::string* error)
    {
        try {
            skipWs();
            Value v = parseValue();
            skipWs();
            if (pos_ != text_.size())
                fail("trailing content");
            return v;
        } catch (const std::runtime_error& e) {
            if (error)
                *error = e.what();
            return std::nullopt;
        }
    }

  private:
    [[noreturn]] void
    fail(const std::string& what) const
    {
        std::ostringstream os;
        os << "JSON error at offset " << pos_ << ": " << what;
        throw std::runtime_error(os.str());
    }

    char
    peek() const
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    char
    next()
    {
        const char c = peek();
        ++pos_;
        return c;
    }

    void
    expect(char c)
    {
        if (next() != c)
            fail(std::string("expected '") + c + "'");
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    consumeLiteral(const char* lit)
    {
        const std::size_t len = std::string_view(lit).size();
        if (text_.compare(pos_, len, lit) != 0)
            return false;
        pos_ += len;
        return true;
    }

    Value
    parseValue()
    {
        switch (peek()) {
        case '{':
            return parseObject();
        case '[':
            return parseArray();
        case '"':
            return Value(parseString());
        case 't':
            if (!consumeLiteral("true"))
                fail("bad literal");
            return Value(true);
        case 'f':
            if (!consumeLiteral("false"))
                fail("bad literal");
            return Value(false);
        case 'n':
            if (!consumeLiteral("null"))
                fail("bad literal");
            return Value(nullptr);
        default:
            return parseNumber();
        }
    }

    Value
    parseObject()
    {
        expect('{');
        Object obj;
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return Value(std::move(obj));
        }
        for (;;) {
            skipWs();
            std::string key = parseString();
            skipWs();
            expect(':');
            skipWs();
            obj.emplace(std::move(key), parseValue());
            skipWs();
            const char c = next();
            if (c == '}')
                return Value(std::move(obj));
            if (c != ',')
                fail("expected ',' or '}' in object");
        }
    }

    Value
    parseArray()
    {
        expect('[');
        Array arr;
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return Value(std::move(arr));
        }
        for (;;) {
            skipWs();
            arr.push_back(parseValue());
            skipWs();
            const char c = next();
            if (c == ']')
                return Value(std::move(arr));
            if (c != ',')
                fail("expected ',' or ']' in array");
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            const char c = next();
            if (c == '"')
                return out;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            const char esc = next();
            switch (esc) {
            case '"':
            case '\\':
            case '/':
                out.push_back(esc);
                break;
            case 'b':
                out.push_back('\b');
                break;
            case 'f':
                out.push_back('\f');
                break;
            case 'n':
                out.push_back('\n');
                break;
            case 'r':
                out.push_back('\r');
                break;
            case 't':
                out.push_back('\t');
                break;
            case 'u': {
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = next();
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code += h - '0';
                    else if (h >= 'a' && h <= 'f')
                        code += 10 + h - 'a';
                    else if (h >= 'A' && h <= 'F')
                        code += 10 + h - 'A';
                    else
                        fail("bad \\u escape");
                }
                // Validation-oriented reader: non-ASCII escapes are
                // preserved losslessly enough for equality checks.
                if (code < 0x80) {
                    out.push_back(static_cast<char>(code));
                } else {
                    out.push_back(
                        static_cast<char>(0xC0 | (code >> 6)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3F)));
                }
                break;
            }
            default:
                fail("bad escape character");
            }
        }
    }

    Value
    parseNumber()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        const std::string token = text_.substr(start, pos_ - start);
        char* end = nullptr;
        const double v = std::strtod(token.c_str(), &end);
        if (end == token.c_str() || *end != '\0')
            fail("bad number '" + token + "'");
        return Value(v);
    }

    const std::string& text_;
    std::size_t pos_ = 0;
};

} // namespace

std::optional<Value>
parse(const std::string& text, std::string* error)
{
    return Parser(text).run(error);
}

std::optional<Value>
parseFile(const std::string& path, std::string* error)
{
    std::ifstream in(path);
    if (!in) {
        if (error)
            *error = "cannot open '" + path + "'";
        return std::nullopt;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parse(buffer.str(), error);
}

namespace {

void
writeString(std::string& out, const std::string& s)
{
    out += '"';
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char esc[8];
            std::snprintf(esc, sizeof(esc), "\\u%04x",
                          static_cast<unsigned>(c));
            out += esc;
        } else {
            out += c;
        }
    }
    out += '"';
}

void
writeValue(std::string& out, const Value& v, int indent)
{
    if (v.isBool()) {
        out += v.asBool() ? "true" : "false";
        return;
    }
    if (v.isNumber() && std::isfinite(v.asNumber())) {
        char buf[32];
        out.append(buf, std::to_chars(buf, buf + sizeof(buf),
                                      v.asNumber())
                            .ptr);
        return;
    }
    if (v.isString()) {
        writeString(out, v.asString());
        return;
    }
    if (!v.isArray() && !v.isObject()) { // null or non-finite
        out += "null";
        return;
    }
    const bool array = v.isArray();
    const std::string pad(static_cast<std::size_t>(indent) + 2, ' ');
    std::size_t n = 0;
    auto member = [&] {
        out += n++ ? ",\n" : "\n";
        out += pad;
    };
    out += array ? '[' : '{';
    if (array) {
        for (const Value& e : v.asArray()) {
            member();
            writeValue(out, e, indent + 2);
        }
    } else {
        for (const auto& [key, e] : v.asObject()) {
            member();
            writeString(out, key);
            out += ": ";
            writeValue(out, e, indent + 2);
        }
    }
    if (n)
        out += "\n" + std::string(static_cast<std::size_t>(indent), ' ');
    out += array ? ']' : '}';
}

} // namespace

std::string
dump(const Value& value)
{
    std::string out;
    writeValue(out, value, 0);
    out += '\n';
    return out;
}

} // namespace ad::obs::json
