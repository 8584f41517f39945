/**
 * @file
 * The project's one JSON layer: a small value tree with a non-fatal
 * parser and a single-line writer.
 *
 * Everything that reads or writes JSON goes through it: the results
 * files (sim/report.hh maps RunResult onto it), the dcgserved wire
 * protocol, the result store's records, dcglint's JSON/SARIF reports
 * and the benchmark trajectory files. Parsing never terminates, so a
 * server survives a garbage request line and the store survives a
 * truncated record; callers that want a fatal error make one.
 *
 * Numbers remember the exact source token (or the exact token they
 * were built from), and dump() re-emits it verbatim, so forwarding a
 * parsed value never perturbs a double. Numbers built from a double
 * are written with max_digits10 digits, so a write/parse round trip
 * is bit-exact, subnormals included; a token that overflows a double
 * is a parse error.
 *
 * Supported subset: objects, arrays, strings (with \uXXXX for the
 * BMP), numbers, booleans, null. Object member order is preserved.
 * Containers nest at most kMaxDepth deep; deeper input is a parse
 * error, so a hostile line cannot exhaust the stack.
 */

#ifndef DCG_COMMON_JSON_HH
#define DCG_COMMON_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dcg {

class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    /** Deepest container nesting parse() accepts — far above any
     *  protocol document (a multi-node stats response nests 5 deep). */
    static constexpr unsigned kMaxDepth = 64;

    using Member = std::pair<std::string, JsonValue>;

    JsonValue() = default;

    /// @name Construction
    /// @{
    static JsonValue null();
    static JsonValue boolean(bool b);
    static JsonValue number(double d);
    static JsonValue integer(std::int64_t v);
    static JsonValue integer(std::uint64_t v);
    static JsonValue string(std::string s);
    static JsonValue array();
    static JsonValue object();

    /**
     * Remember the exact source/wire token for a number so dump()
     * re-emits it verbatim (value-preserving forwarding).
     */
    void setRawToken(std::string tok);
    /// @}

    Kind kind() const { return k; }
    bool isNull() const { return k == Kind::Null; }
    bool isBool() const { return k == Kind::Bool; }
    bool isNumber() const { return k == Kind::Number; }
    bool isString() const { return k == Kind::String; }
    bool isArray() const { return k == Kind::Array; }
    bool isObject() const { return k == Kind::Object; }

    /// @name Accessors (return the default when the kind mismatches)
    /// @{
    bool asBool(bool def = false) const;
    double asNumber(double def = 0.0) const;
    /** Integer read from the raw token; def on overflow/mismatch. */
    std::uint64_t asU64(std::uint64_t def = 0) const;
    std::int64_t asI64(std::int64_t def = 0) const;
    const std::string &asString() const;  ///< empty for non-strings
    /**
     * Strict form of asU64(): true and @p out set only when this is a
     * number whose token is a non-negative decimal integer that fits
     * uint64_t ("-5", "3.5" and "1e30" all fail).
     */
    bool toU64(std::uint64_t &out) const;
    /// @}

    /// @name Array / object access
    /// @{
    std::vector<JsonValue> &items();            ///< array elements
    const std::vector<JsonValue> &items() const;
    std::vector<Member> &members();             ///< object members
    const std::vector<Member> &members() const;

    void push(JsonValue v);                        ///< append to array
    void set(const std::string &key, JsonValue v); ///< insert/replace
    bool has(const std::string &key) const;
    /** Member lookup; a shared Null value when absent / not object. */
    const JsonValue &get(const std::string &key) const;
    /// @}

    /** Serialise on a single line (newline-free; wire-safe). */
    std::string dump() const;

    /**
     * Parse @p text into @p out. Returns false (and sets @p err to a
     * one-line description) on malformed input; never terminates.
     * Trailing non-whitespace after the value is an error.
     */
    static bool parse(const std::string &text, JsonValue &out,
                      std::string &err);

    /** Escape + quote @p s as a JSON string literal. */
    static std::string encodeString(const std::string &s);

  private:
    Kind k = Kind::Null;
    bool b = false;
    double num = 0.0;
    std::string numRaw;  ///< exact token; empty = format from num
    std::string str;
    std::vector<JsonValue> arr;
    std::vector<Member> obj;

    void dumpTo(std::string &out) const;
};

} // namespace dcg

#endif // DCG_COMMON_JSON_HH
