/**
 * @file
 * Minimal JSON value model for the service protocol and the result
 * store's record headers.
 *
 * Unlike the writer/parser pair in sim/report.hh (which is specialised
 * to RunResult arrays and fatal()s on malformed input), this is a
 * general tree with *non-fatal* parsing: the server must survive a
 * garbage request line and the store must survive a truncated record.
 *
 * Numbers remember the exact source token (or the exact token they
 * were built from), and dump() re-emits it verbatim, so forwarding a
 * parsed value over the wire never perturbs a double that sim/report
 * wrote with max_digits10 — the bit-exact round-trip the `--server`
 * path relies on.
 *
 * Supported subset: objects, arrays, strings (with \uXXXX for the
 * BMP), numbers, booleans, null. Object member order is preserved.
 * Containers nest at most kMaxDepth deep; deeper input is a parse
 * error, so a hostile line cannot exhaust the stack.
 */

#ifndef DCG_SERVE_JSON_HH
#define DCG_SERVE_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dcg::serve {

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

} // namespace dcg::serve

#endif // DCG_SERVE_JSON_HH
