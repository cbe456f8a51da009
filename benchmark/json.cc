#include "json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace socflow_bench {
namespace json {

namespace {

/** Recursive-descent parser over one document. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : s(text) {}

    std::optional<Value>
    document()
    {
        Value v;
        if (!value(v, 0))
            return std::nullopt;
        skipSpace();
        if (pos != s.size())
            return std::nullopt;
        return v;
    }

  private:
    static constexpr int kMaxDepth = 64;

    void
    skipSpace()
    {
        while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\n' ||
                                  s[pos] == '\r' || s[pos] == '\t'))
            ++pos;
    }

    bool
    literal(std::string_view word)
    {
        if (s.substr(pos, word.size()) != word)
            return false;
        pos += word.size();
        return true;
    }

    bool
    value(Value &out, int depth)
    {
        if (depth > kMaxDepth)
            return false;
        skipSpace();
        if (pos >= s.size())
            return false;
        const char c = s[pos];
        if (c == '{')
            return objectValue(out, depth);
        if (c == '[')
            return arrayValue(out, depth);
        if (c == '"') {
            out.kind = Value::Kind::String;
            return stringValue(out.string);
        }
        if (literal("true")) {
            out.kind = Value::Kind::Bool;
            out.boolean = true;
            return true;
        }
        if (literal("false")) {
            out.kind = Value::Kind::Bool;
            return true;
        }
        if (literal("null"))
            return true;
        return numberValue(out);
    }

    bool
    objectValue(Value &out, int depth)
    {
        out.kind = Value::Kind::Object;
        ++pos;
        skipSpace();
        if (pos < s.size() && s[pos] == '}') {
            ++pos;
            return true;
        }
        for (;;) {
            skipSpace();
            std::string key;
            if (pos >= s.size() || s[pos] != '"' || !stringValue(key))
                return false;
            skipSpace();
            if (pos >= s.size() || s[pos] != ':')
                return false;
            ++pos;
            Value v;
            if (!value(v, depth + 1))
                return false;
            out.object.emplace_back(std::move(key), std::move(v));
            skipSpace();
            if (pos < s.size() && s[pos] == ',') {
                ++pos;
                continue;
            }
            if (pos < s.size() && s[pos] == '}') {
                ++pos;
                return true;
            }
            return false;
        }
    }

    bool
    arrayValue(Value &out, int depth)
    {
        out.kind = Value::Kind::Array;
        ++pos;
        skipSpace();
        if (pos < s.size() && s[pos] == ']') {
            ++pos;
            return true;
        }
        for (;;) {
            Value v;
            if (!value(v, depth + 1))
                return false;
            out.array.push_back(std::move(v));
            skipSpace();
            if (pos < s.size() && s[pos] == ',') {
                ++pos;
                continue;
            }
            if (pos < s.size() && s[pos] == ']') {
                ++pos;
                return true;
            }
            return false;
        }
    }

    /** Strings the benchmark writes are ASCII; \u escapes outside
     *  ASCII are rejected rather than transcoded. */
    bool
    stringValue(std::string &out)
    {
        ++pos;
        while (pos < s.size()) {
            const char c = s[pos++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos >= s.size())
                return false;
            const char e = s[pos++];
            switch (e) {
              case '"': case '\\': case '/': out.push_back(e); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'u': {
                if (pos + 4 > s.size())
                    return false;
                const std::string hex(s.substr(pos, 4));
                char *end = nullptr;
                const long code = std::strtol(hex.c_str(), &end, 16);
                if (end != hex.c_str() + 4 || code > 0x7f)
                    return false;
                out.push_back(static_cast<char>(code));
                pos += 4;
                break;
              }
              default:
                return false;
            }
        }
        return false;
    }

    bool
    numberValue(Value &out)
    {
        const std::size_t start = pos;
        while (pos < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[pos])) ||
                s[pos] == '-' || s[pos] == '+' || s[pos] == '.' ||
                s[pos] == 'e' || s[pos] == 'E'))
            ++pos;
        if (pos == start)
            return false;
        const std::string text(s.substr(start, pos - start));
        char *end = nullptr;
        out.number = std::strtod(text.c_str(), &end);
        out.kind = Value::Kind::Number;
        return end == text.c_str() + text.size();
    }

    std::string_view s;
    std::size_t pos = 0;
};

} // namespace

const Value *
Value::find(std::string_view key) const
{
    for (const auto &[k, v] : object)
        if (k == key)
            return &v;
    return nullptr;
}

double
Value::numberOr(double fallback) const
{
    return kind == Kind::Number ? number : fallback;
}

const std::string &
Value::str() const
{
    static const std::string empty;
    return kind == Kind::String ? string : empty;
}

std::optional<Value>
parse(std::string_view text)
{
    return Parser(text).document();
}

std::optional<Value>
parseFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return std::nullopt;
    std::ostringstream buf;
    buf << in.rdbuf();
    return parse(buf.str());
}

std::string
quote(std::string_view s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out.push_back(c);
        }
    }
    out.push_back('"');
    return out;
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace json
} // namespace socflow_bench
