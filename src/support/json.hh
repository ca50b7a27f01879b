#ifndef TTMCAS_SUPPORT_JSON_HH
#define TTMCAS_SUPPORT_JSON_HH

/**
 * @file
 * Minimal JSON support for the observability layer (ttmcas_obs).
 *
 * The observability artifacts — Chrome trace files, metrics snapshots,
 * run manifests, bench JSON — are written and (for round-trip tests
 * and tooling) read back without any external dependency. This header
 * provides the two halves:
 *
 *  - JsonWriter: an append-only streaming writer with correct string
 *    escaping and automatic comma/indent management. It cannot emit
 *    malformed structure as long as begin/end calls are balanced.
 *  - JsonValue / parseJson(): a small recursive-descent parser for the
 *    full JSON grammar (objects, arrays, strings with escapes, numbers,
 *    booleans, null). Errors throw ModelError with byte offsets.
 *
 * This is deliberately not a general-purpose JSON library: numbers are
 * always doubles, object key order is preserved on parse but duplicate
 * keys keep the last value, and the writer emits UTF-8 pass-through
 * (non-ASCII bytes are copied, control characters are \u-escaped).
 */

#include <cstddef>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
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
    void raw(const std::string& json);

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

    /** The document written so far. */
    std::string str() const { return _out; }

  private:
    void separate();

    std::string _out;
    /** One entry per open container: true = a value was already written. */
    std::vector<bool> _has_item;
    bool _pending_key = false;
};

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

    /** True for an object containing @p name. */
    bool has(const std::string& name) const;
    /**
     * Member lookup; throws ModelError when this is not an object or
     * the key is absent.
     */
    const JsonValue& at(const std::string& name) const;
    /** Object keys in document order; throws on kind mismatch. */
    const std::vector<std::string>& keys() const;

    /** @name Construction helpers (used by the parser) */
    ///@{
    static JsonValue makeNull();
    static JsonValue makeBool(bool flag);
    static JsonValue makeNumber(double number);
    static JsonValue makeString(std::string text);
    static JsonValue makeArray(std::vector<JsonValue> items);
    static JsonValue makeObject(std::vector<std::string> keys,
                                std::vector<JsonValue> values);
    ///@}

  private:
    Kind _kind = Kind::Null;
    bool _bool = false;
    double _number = 0.0;
    std::string _string;
    std::vector<JsonValue> _items;       // array elements / object values
    std::vector<std::string> _keys;      // object keys (document order)
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
