#include "serve/json.hh"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace dcg::serve {

namespace {

/** Immutable shared "absent member" value. */
const JsonValue kNull{};

const std::string kEmpty;

void
appendUtf8(std::string &out, unsigned cp)
{
    if (cp < 0x80) {
        out += static_cast<char>(cp);
    } else if (cp < 0x800) {
        out += static_cast<char>(0xc0 | (cp >> 6));
        out += static_cast<char>(0x80 | (cp & 0x3f));
    } else {
        out += static_cast<char>(0xe0 | (cp >> 12));
        out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
        out += static_cast<char>(0x80 | (cp & 0x3f));
    }
}

/** Recursive-descent parser over a string; records errors, no I/O. */
class Parser
{
  public:
    Parser(const std::string &text, std::string &err)
        : s(text), error(err)
    {
    }

    bool parseDocument(JsonValue &out)
    {
        if (!parseValue(out))
            return false;
        skipWs();
        if (pos != s.size())
            return fail("trailing characters after JSON value");
        return true;
    }

  private:
    bool fail(const std::string &what)
    {
        error = what + " at offset " + std::to_string(pos);
        return false;
    }

    void skipWs()
    {
        while (pos < s.size() &&
               std::isspace(static_cast<unsigned char>(s[pos])))
            ++pos;
    }

    bool literal(const char *word)
    {
        for (const char *p = word; *p; ++p, ++pos) {
            if (pos >= s.size() || s[pos] != *p)
                return fail(std::string("bad literal (expected '") +
                            word + "')");
        }
        return true;
    }

    bool parseValue(JsonValue &out)
    {
        skipWs();
        if (pos >= s.size())
            return fail("unexpected end of input");
        switch (s[pos]) {
          case '{':
          case '[': {
              // Bounded recursion: one request line must never be able
              // to overflow the parsing thread's stack.
              if (depth == JsonValue::kMaxDepth)
                  return fail("nesting deeper than " +
                              std::to_string(JsonValue::kMaxDepth) +
                              " levels");
              ++depth;
              const bool ok = s[pos] == '{' ? parseObject(out)
                                            : parseArray(out);
              --depth;
              return ok;
          }
          case '"': {
              std::string str;
              if (!parseString(str))
                  return false;
              out = JsonValue::string(std::move(str));
              return true;
          }
          case 't':
              out = JsonValue::boolean(true);
              return literal("true");
          case 'f':
              out = JsonValue::boolean(false);
              return literal("false");
          case 'n':
              out = JsonValue::null();
              return literal("null");
          default:
              return parseNumber(out);
        }
    }

    bool parseObject(JsonValue &out)
    {
        out = JsonValue::object();
        ++pos;  // '{'
        skipWs();
        if (pos < s.size() && s[pos] == '}') {
            ++pos;
            return true;
        }
        while (true) {
            skipWs();
            std::string key;
            if (!parseString(key))
                return false;
            skipWs();
            if (pos >= s.size() || s[pos] != ':')
                return fail("expected ':' in object");
            ++pos;
            JsonValue v;
            if (!parseValue(v))
                return false;
            out.members().emplace_back(std::move(key), std::move(v));
            skipWs();
            if (pos >= s.size())
                return fail("unterminated object");
            if (s[pos] == ',') {
                ++pos;
                continue;
            }
            if (s[pos] == '}') {
                ++pos;
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    bool parseArray(JsonValue &out)
    {
        out = JsonValue::array();
        ++pos;  // '['
        skipWs();
        if (pos < s.size() && s[pos] == ']') {
            ++pos;
            return true;
        }
        while (true) {
            JsonValue v;
            if (!parseValue(v))
                return false;
            out.items().push_back(std::move(v));
            skipWs();
            if (pos >= s.size())
                return fail("unterminated array");
            if (s[pos] == ',') {
                ++pos;
                continue;
            }
            if (s[pos] == ']') {
                ++pos;
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    bool hex4(unsigned &out)
    {
        out = 0;
        for (int i = 0; i < 4; ++i) {
            if (pos >= s.size())
                return fail("truncated \\u escape");
            const char c = s[pos++];
            out <<= 4;
            if (c >= '0' && c <= '9')
                out |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                out |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                out |= static_cast<unsigned>(c - 'A' + 10);
            else
                return fail("bad hex digit in \\u escape");
        }
        return true;
    }

    bool parseString(std::string &out)
    {
        if (pos >= s.size() || s[pos] != '"')
            return fail("expected string");
        ++pos;
        out.clear();
        while (true) {
            if (pos >= s.size())
                return fail("unterminated string");
            const char c = s[pos++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= s.size())
                return fail("truncated escape");
            const char e = s[pos++];
            switch (e) {
              case '"':  out += '"'; break;
              case '\\': out += '\\'; break;
              case '/':  out += '/'; break;
              case 'b':  out += '\b'; break;
              case 'f':  out += '\f'; break;
              case 'n':  out += '\n'; break;
              case 'r':  out += '\r'; break;
              case 't':  out += '\t'; break;
              case 'u': {
                  unsigned cp = 0;
                  if (!hex4(cp))
                      return false;
                  if (cp >= 0xd800 && cp <= 0xdfff)
                      return fail("surrogate \\u escapes unsupported");
                  appendUtf8(out, cp);
                  break;
              }
              default:
                  return fail("unsupported escape");
            }
        }
    }

    bool parseNumber(JsonValue &out)
    {
        const std::size_t start = pos;
        if (pos < s.size() && s[pos] == '-')
            ++pos;
        while (pos < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[pos])) ||
                s[pos] == '.' || s[pos] == 'e' || s[pos] == 'E' ||
                s[pos] == '+' || s[pos] == '-'))
            ++pos;
        const std::string tok = s.substr(start, pos - start);
        if (tok.empty())
            return fail("expected a value");
        errno = 0;
        char *end = nullptr;
        const double d = std::strtod(tok.c_str(), &end);
        if (end != tok.c_str() + tok.size())
            return fail("malformed number '" + tok + "'");
        out = JsonValue::number(d);
        out.setRawToken(tok);
        return true;
    }

    const std::string &s;
    std::string &error;
    std::size_t pos = 0;
    unsigned depth = 0;  ///< containers open at pos
};

} // namespace

JsonValue
JsonValue::null()
{
    return JsonValue{};
}

JsonValue
JsonValue::boolean(bool v)
{
    JsonValue j;
    j.k = Kind::Bool;
    j.b = v;
    return j;
}

JsonValue
JsonValue::number(double d)
{
    JsonValue j;
    j.k = Kind::Number;
    j.num = d;
    return j;
}

JsonValue
JsonValue::integer(std::int64_t v)
{
    JsonValue j = number(static_cast<double>(v));
    j.numRaw = std::to_string(v);
    return j;
}

JsonValue
JsonValue::integer(std::uint64_t v)
{
    JsonValue j = number(static_cast<double>(v));
    j.numRaw = std::to_string(v);
    return j;
}

JsonValue
JsonValue::string(std::string s)
{
    JsonValue j;
    j.k = Kind::String;
    j.str = std::move(s);
    return j;
}

JsonValue
JsonValue::array()
{
    JsonValue j;
    j.k = Kind::Array;
    return j;
}

JsonValue
JsonValue::object()
{
    JsonValue j;
    j.k = Kind::Object;
    return j;
}

void
JsonValue::setRawToken(std::string tok)
{
    numRaw = std::move(tok);
}

bool
JsonValue::asBool(bool def) const
{
    return isBool() ? b : def;
}

double
JsonValue::asNumber(double def) const
{
    return isNumber() ? num : def;
}

std::uint64_t
JsonValue::asU64(std::uint64_t def) const
{
    if (!isNumber())
        return def;
    const std::string tok = numRaw.empty() ? dump() : numRaw;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
    if (end == tok.c_str() || *end != '\0' || errno == ERANGE ||
        tok[0] == '-')
        return def;
    return v;
}

std::int64_t
JsonValue::asI64(std::int64_t def) const
{
    if (!isNumber())
        return def;
    const std::string tok = numRaw.empty() ? dump() : numRaw;
    errno = 0;
    char *end = nullptr;
    const long long v = std::strtoll(tok.c_str(), &end, 10);
    if (end == tok.c_str() || *end != '\0' || errno == ERANGE)
        return def;
    return v;
}

const std::string &
JsonValue::asString() const
{
    return isString() ? str : kEmpty;
}

std::vector<JsonValue> &
JsonValue::items()
{
    return arr;
}

const std::vector<JsonValue> &
JsonValue::items() const
{
    return arr;
}

std::vector<JsonValue::Member> &
JsonValue::members()
{
    return obj;
}

const std::vector<JsonValue::Member> &
JsonValue::members() const
{
    return obj;
}

void
JsonValue::push(JsonValue v)
{
    arr.push_back(std::move(v));
}

void
JsonValue::set(const std::string &key, JsonValue v)
{
    for (Member &m : obj) {
        if (m.first == key) {
            m.second = std::move(v);
            return;
        }
    }
    obj.emplace_back(key, std::move(v));
}

bool
JsonValue::has(const std::string &key) const
{
    for (const Member &m : obj)
        if (m.first == key)
            return true;
    return false;
}

const JsonValue &
JsonValue::get(const std::string &key) const
{
    for (const Member &m : obj)
        if (m.first == key)
            return m.second;
    return kNull;
}

std::string
JsonValue::encodeString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        const auto u = static_cast<unsigned char>(c);
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (u < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", u);
                out += buf;
            } else {
                out += c;
            }
            break;
        }
    }
    out += '"';
    return out;
}

void
JsonValue::dumpTo(std::string &out) const
{
    switch (k) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += b ? "true" : "false";
        break;
      case Kind::Number:
        if (!numRaw.empty()) {
            out += numRaw;
        } else {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%.*g",
                          std::numeric_limits<double>::max_digits10, num);
            out += buf;
        }
        break;
      case Kind::String:
        out += encodeString(str);
        break;
      case Kind::Array: {
        out += '[';
        bool first = true;
        for (const JsonValue &v : arr) {
            if (!first)
                out += ", ";
            first = false;
            v.dumpTo(out);
        }
        out += ']';
        break;
      }
      case Kind::Object: {
        out += '{';
        bool first = true;
        for (const Member &m : obj) {
            if (!first)
                out += ", ";
            first = false;
            out += encodeString(m.first);
            out += ": ";
            m.second.dumpTo(out);
        }
        out += '}';
        break;
      }
    }
}

std::string
JsonValue::dump() const
{
    std::string out;
    dumpTo(out);
    return out;
}

bool
JsonValue::parse(const std::string &text, JsonValue &out,
                 std::string &err)
{
    err.clear();
    Parser p(text, err);
    return p.parseDocument(out);
}

} // namespace dcg::serve
