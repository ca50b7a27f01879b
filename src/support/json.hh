#ifndef TTMCAS_SUPPORT_JSON_HH
#define TTMCAS_SUPPORT_JSON_HH

/**
 * @file
 * The one JSON reader and writer of the library.
 *
 * Everything that ttmcas reads or writes as JSON goes through this
 * header: the ttm_serve wire (request lines in, replies out), the
 * dataset, ensemble and chiplet config files, run manifests,
 * checkpoints, metrics snapshots, Chrome trace files and bench JSON.
 * It has two halves and no external dependency:
 *
 *  - JsonWriter: an append-only streaming writer with correct string
 *    escaping and automatic comma management. It cannot emit
 *    malformed structure as long as begin/end calls are balanced.
 *  - JsonValue / parseJson(): a recursive-descent parser for the full
 *    JSON grammar (objects, arrays, strings with escapes, numbers,
 *    booleans, null). Errors throw ModelError with byte offsets;
 *    JsonLimits bounds what untrusted input may cost.
 *
 * This is deliberately not a general-purpose JSON library: numbers are
 * always doubles, object key order is preserved on parse but duplicate
 * keys keep the last value, and the writer emits UTF-8 pass-through
 * (non-ASCII bytes are copied, control characters are \u-escaped).
 *
 * Number contract. The parser scans the longest run of the bytes
 * `0-9 . e E + -` and converts it with std::from_chars, so the value
 * never depends on the process locale. It accepts exactly what
 * C's strtod accepts for such a run in the "C" locale: one leading
 * `+` is allowed (`+5`), `.5` and `5.` are numbers, and a run that
 * strtod would not consume whole (`1e`, `--1`, `1.2.3`) is rejected.
 * Overflow (`1e400`) is rejected, and so is underflow wherever strtod
 * reports ERANGE: a non-zero run that rounds to zero, an inexact
 * subnormal (`1e-310`, `4.9e-324`), or a run just below DBL_MIN that
 * strtod counts as tiny (`2.2250738585072012e-308`). A run whose value
 * is at most DBL_MIN is rare, and strtod itself, in the "C" locale,
 * decides it. Every rejection reads "invalid number '<run>'" at the
 * byte just past the run.
 *
 * Cost. A document parses with one allocation for the parser's stack,
 * one per non-empty object or array (each value is parsed in place on
 * the stack, and a container's members move into a vector of exactly
 * their number when it closes), and one per string or key longer than
 * the standard library's short-string buffer. Numbers, literals and
 * member lookups allocate nothing.
 */

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ttmcas {

/** Escape @p text for embedding inside a JSON string literal. */
std::string jsonEscape(const std::string& text);

/** Render a double the way JSON expects (finite; NaN/Inf become null). */
std::string jsonNumber(double value);

/**
 * Streaming JSON writer with automatic separators.
 *
 * Usage:
 * @code
 *   JsonWriter json;
 *   json.beginObject();
 *   json.field("seed", 2023.0);
 *   json.key("runs");
 *   json.beginArray();
 *   json.value("first");
 *   json.endArray();
 *   json.endObject();
 *   std::string text = json.str();
 * @endcode
 */
class JsonWriter
{
  public:
    JsonWriter() = default;

    /** Open a JSON object ("{"). */
    void beginObject();
    /** Close the innermost object ("}"). */
    void endObject();
    /** Open a JSON array ("["). */
    void beginArray();
    /** Close the innermost array ("]"). */
    void endArray();

    /** Emit an object key; must be followed by exactly one value. */
    void key(std::string_view name);

    /** Emit a string value. */
    void value(std::string_view text);
    /** Emit a string value (a literal, not a boolean). */
    void value(const char* text);
    /** Emit a numeric value (NaN/Inf are emitted as null). */
    void value(double number);
    /** Emit an integral value without float formatting. */
    void value(std::uint64_t number);
    /** Emit a boolean value. */
    void value(bool flag);
    /** Emit a null value. */
    void null();
    /** Emit pre-rendered raw JSON (caller guarantees validity). */
    void raw(std::string_view json);

    /** key() + value() in one call, for each overload. */
    void field(std::string_view name, std::string_view text);
    /** @copydoc field(std::string_view, std::string_view) */
    void field(std::string_view name, const char* text);
    /** @copydoc field(std::string_view, std::string_view) */
    void field(std::string_view name, double number);
    /** @copydoc field(std::string_view, std::string_view) */
    void field(std::string_view name, std::uint64_t number);
    /** @copydoc field(std::string_view, std::string_view) */
    void field(std::string_view name, bool flag);

    /** Reserve room for a document of @p bytes. */
    void reserve(std::size_t bytes) { _out.reserve(bytes); }

    /** The document written so far (a copy). */
    std::string str() const& { return _out; }
    /** The document written so far, moved out of a finished writer. */
    std::string str() && { return std::move(_out); }

  private:
    void separate();
    void open(char bracket);
    void close(char bracket);

    /** Deepest nesting the writer supports (one bit per open level). */
    static constexpr unsigned kMaxDepth = 64;

    std::string _out;
    /** Bit d set: the container open at depth d already holds a value. */
    std::uint64_t _has_item = 0;
    /** Number of open containers. */
    unsigned _depth = 0;
    bool _pending_key = false;
};

namespace detail {
class JsonParser;
} // namespace detail

/** Parsed JSON value (tagged union). */
class JsonValue
{
  public:
    /** The JSON type of this value. */
    enum class Kind : std::uint8_t
    {
        Null,    ///< JSON null
        Boolean, ///< true / false
        Number,  ///< any JSON number (stored as double)
        String,  ///< JSON string
        Array,   ///< JSON array
        Object,  ///< JSON object
    };

    /** A null value. */
    JsonValue() = default;

    /** The value's JSON type. */
    Kind kind() const { return _kind; }

    /** True when the value is JSON null. */
    bool isNull() const { return _kind == Kind::Null; }

    /** The boolean payload; throws ModelError on kind mismatch. */
    bool asBool() const;
    /** The numeric payload; throws ModelError on kind mismatch. */
    double asNumber() const;
    /** The string payload; throws ModelError on kind mismatch. */
    const std::string& asString() const;
    /** The array elements; throws ModelError on kind mismatch. */
    const std::vector<JsonValue>& asArray() const;

    /**
     * The members of an object in document order, each carrying its
     * name in key(); throws ModelError on kind mismatch.
     */
    const std::vector<JsonValue>& members() const;
    /** This value's name inside its parent object ("" elsewhere). */
    const std::string& key() const { return _key; }

    /** True for an object containing @p name. */
    bool has(std::string_view name) const;
    /**
     * Member lookup; throws ModelError when this is not an object or
     * the key is absent.
     */
    const JsonValue& at(std::string_view name) const;

  private:
    friend class detail::JsonParser;

    /** Member lookup: nullptr when absent or when this is no object. */
    const JsonValue* find(std::string_view name) const;

    Kind _kind = Kind::Null;
    bool _bool = false;
    double _number = 0.0;
    std::string _string;
    /** The member name when this value sits in an object. */
    std::string _key;
    /** Array elements, or object members (each with its _key). */
    std::vector<JsonValue> _items;
};

/**
 * Resource limits for parsing untrusted input.
 *
 * The default-constructed limits preserve the parser's historical
 * behavior (unbounded input and strings, 256-level nesting, raw
 * control characters tolerated inside strings) for trusted artifacts
 * the library wrote itself — checkpoints, manifests, metrics. Wire
 * input from clients (the ttm_serve request envelope) must use
 * untrustedWire() instead: a hostile payload then produces a
 * structured ModelError long before it can exhaust memory or the
 * stack.
 */
struct JsonLimits
{
    /** Maximum document size in bytes; 0 = unlimited. */
    std::size_t max_input_bytes = 0;
    /** Maximum decoded string/key length in bytes; 0 = unlimited. */
    std::size_t max_string_bytes = 0;
    /** Maximum object/array nesting depth (>= 1). */
    std::size_t max_depth = 256;
    /**
     * Reject raw (unescaped) control characters inside strings, as
     * RFC 8259 requires; the default tolerates them because older
     * artifacts may carry them through pass-through escapes.
     */
    bool reject_control_chars = false;

    /** Strict limits for client-supplied wire input. */
    static JsonLimits untrustedWire(std::size_t max_input = 1 << 20)
    {
        JsonLimits limits;
        limits.max_input_bytes = max_input;
        limits.max_string_bytes = 1 << 16;
        limits.max_depth = 64;
        limits.reject_control_chars = true;
        return limits;
    }
};

/**
 * Parse a complete JSON document. Trailing non-whitespace and any
 * syntax error throw ModelError with the byte offset of the problem.
 */
JsonValue parseJson(const std::string& text);

/**
 * Parse with explicit resource @p limits (see JsonLimits); every
 * violated limit throws ModelError with the byte offset, exactly like
 * a syntax error.
 */
JsonValue parseJson(const std::string& text, const JsonLimits& limits);

} // namespace ttmcas

#endif // TTMCAS_SUPPORT_JSON_HH
