#include "support/json.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <utility>

#include "support/error.hh"

namespace ttmcas {

namespace {

/** True when @p c must be escaped inside a JSON string. */
bool
needsEscape(char c)
{
    return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

/** Append jsonEscape(@p text) to @p out without a temporary string. */
void
appendEscaped(std::string& out, std::string_view text)
{
    // Keys and most values need no escape: append them in one piece.
    if (std::none_of(text.begin(), text.end(), needsEscape)) {
        out += text;
        return;
    }
    for (const char c : text) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

} // namespace

std::string
jsonEscape(const std::string& text)
{
    std::string out;
    out.reserve(text.size() + 2);
    appendEscaped(out, text);
    return out;
}

namespace {

/** Append jsonNumber(@p value) to @p out without a temporary string. */
void
appendNumber(std::string& out, double value)
{
    if (!std::isfinite(value)) {
        out += "null";
        return;
    }
    char buf[32];
    char* end = nullptr;
    // Round-trippable without decorating integers with ".000000".
    // Test the magnitude first: casting a double outside long long's
    // range is undefined behaviour.
    if (std::fabs(value) < 1e15 &&
        value == static_cast<double>(static_cast<long long>(value))) {
        end = std::to_chars(buf, buf + sizeof(buf),
                            static_cast<long long>(value))
                  .ptr;
    } else {
        // The standard defines general/precision 17 as printf's
        // "%.17g" in the C locale, so this is the same text without
        // the printf machinery or its locale dependence.
        end = std::to_chars(buf, buf + sizeof(buf), value,
                            std::chars_format::general, 17)
                  .ptr;
    }
    out.append(buf, end);
}

} // namespace

std::string
jsonNumber(double value)
{
    std::string out;
    appendNumber(out, value);
    return out;
}

void
JsonWriter::separate()
{
    if (_pending_key) {
        _pending_key = false;
        return;
    }
    if (!_has_item.empty()) {
        if (_has_item.back())
            _out += ',';
        _has_item.back() = true;
    }
}

void
JsonWriter::beginObject()
{
    separate();
    _out += '{';
    _has_item.push_back(false);
}

void
JsonWriter::endObject()
{
    TTMCAS_INVARIANT(!_has_item.empty(), "endObject without beginObject");
    _has_item.pop_back();
    _out += '}';
}

void
JsonWriter::beginArray()
{
    separate();
    _out += '[';
    _has_item.push_back(false);
}

void
JsonWriter::endArray()
{
    TTMCAS_INVARIANT(!_has_item.empty(), "endArray without beginArray");
    _has_item.pop_back();
    _out += ']';
}

void
JsonWriter::key(std::string_view name)
{
    separate();
    _out += '"';
    appendEscaped(_out, name);
    _out += "\":";
    _pending_key = true;
}

void
JsonWriter::value(std::string_view text)
{
    separate();
    _out += '"';
    appendEscaped(_out, text);
    _out += '"';
}

void
JsonWriter::value(const char* text)
{
    value(std::string_view(text));
}

void
JsonWriter::value(double number)
{
    separate();
    appendNumber(_out, number);
}

void
JsonWriter::value(std::uint64_t number)
{
    separate();
    char buf[24];
    _out.append(buf, std::to_chars(buf, buf + sizeof(buf), number).ptr);
}

void
JsonWriter::value(bool flag)
{
    separate();
    _out += flag ? "true" : "false";
}

void
JsonWriter::null()
{
    separate();
    _out += "null";
}

void
JsonWriter::raw(const std::string& json)
{
    separate();
    _out += json;
}

void
JsonWriter::field(std::string_view name, std::string_view text)
{
    key(name);
    value(text);
}

void
JsonWriter::field(std::string_view name, const char* text)
{
    key(name);
    value(text);
}

void
JsonWriter::field(std::string_view name, double number)
{
    key(name);
    value(number);
}

void
JsonWriter::field(std::string_view name, std::uint64_t number)
{
    key(name);
    value(number);
}

void
JsonWriter::field(std::string_view name, bool flag)
{
    key(name);
    value(flag);
}

// ---------------------------------------------------------------------
// JsonValue

bool
JsonValue::asBool() const
{
    TTMCAS_REQUIRE(_kind == Kind::Boolean, "JSON value is not a boolean");
    return _bool;
}

double
JsonValue::asNumber() const
{
    TTMCAS_REQUIRE(_kind == Kind::Number, "JSON value is not a number");
    return _number;
}

const std::string&
JsonValue::asString() const
{
    TTMCAS_REQUIRE(_kind == Kind::String, "JSON value is not a string");
    return _string;
}

const std::vector<JsonValue>&
JsonValue::asArray() const
{
    TTMCAS_REQUIRE(_kind == Kind::Array, "JSON value is not an array");
    return _items;
}

bool
JsonValue::has(const std::string& name) const
{
    if (_kind != Kind::Object)
        return false;
    for (const std::string& k : _keys) {
        if (k == name)
            return true;
    }
    return false;
}

const JsonValue&
JsonValue::at(const std::string& name) const
{
    TTMCAS_REQUIRE(_kind == Kind::Object, "JSON value is not an object");
    for (std::size_t i = 0; i < _keys.size(); ++i) {
        if (_keys[i] == name)
            return _items[i];
    }
    throw ModelError("JSON object has no member '" + name + "'");
}

const std::vector<std::string>&
JsonValue::keys() const
{
    TTMCAS_REQUIRE(_kind == Kind::Object, "JSON value is not an object");
    return _keys;
}

JsonValue
JsonValue::makeNull()
{
    return JsonValue{};
}

JsonValue
JsonValue::makeBool(bool flag)
{
    JsonValue v;
    v._kind = Kind::Boolean;
    v._bool = flag;
    return v;
}

JsonValue
JsonValue::makeNumber(double number)
{
    JsonValue v;
    v._kind = Kind::Number;
    v._number = number;
    return v;
}

JsonValue
JsonValue::makeString(std::string text)
{
    JsonValue v;
    v._kind = Kind::String;
    v._string = std::move(text);
    return v;
}

JsonValue
JsonValue::makeArray(std::vector<JsonValue> items)
{
    JsonValue v;
    v._kind = Kind::Array;
    v._items = std::move(items);
    return v;
}

JsonValue
JsonValue::makeObject(std::vector<std::string> keys,
                      std::vector<JsonValue> values)
{
    TTMCAS_INVARIANT(keys.size() == values.size(),
                     "object keys/values size mismatch");
    JsonValue v;
    v._kind = Kind::Object;
    v._keys = std::move(keys);
    v._items = std::move(values);
    return v;
}

// ---------------------------------------------------------------------
// Parser

namespace {

class JsonParser
{
  public:
    JsonParser(const std::string& text, const JsonLimits& limits)
        : _text(text), _limits(limits)
    {}

    JsonValue parse()
    {
        if (_limits.max_input_bytes != 0 &&
            _text.size() > _limits.max_input_bytes) {
            fail("document of " + std::to_string(_text.size()) +
                 " bytes exceeds the " +
                 std::to_string(_limits.max_input_bytes) +
                 "-byte input limit");
        }
        JsonValue value = parseValue();
        skipWhitespace();
        if (_pos != _text.size())
            fail("trailing content after JSON document");
        return value;
    }

  private:
    /** RAII nesting counter: entering an object/array costs one level. */
    class DepthGuard
    {
      public:
        explicit DepthGuard(JsonParser& parser) : _parser(parser)
        {
            if (++_parser._depth > _parser._limits.max_depth)
                _parser.fail(
                    "nesting deeper than " +
                    std::to_string(_parser._limits.max_depth) +
                    " levels");
        }
        ~DepthGuard() { --_parser._depth; }

        DepthGuard(const DepthGuard&) = delete;
        DepthGuard& operator=(const DepthGuard&) = delete;

      private:
        JsonParser& _parser;
    };

    [[noreturn]] void fail(const std::string& what) const
    {
        throw ModelError("JSON parse error at byte " +
                         std::to_string(_pos) + ": " + what);
    }

    void skipWhitespace()
    {
        while (_pos < _text.size()) {
            const char c = _text[_pos];
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
                ++_pos;
            else
                break;
        }
    }

    char peek()
    {
        if (_pos >= _text.size())
            fail("unexpected end of input");
        return _text[_pos];
    }

    void expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++_pos;
    }

    bool consumeLiteral(const char* literal)
    {
        std::size_t len = 0;
        while (literal[len] != '\0')
            ++len;
        if (_text.compare(_pos, len, literal) != 0)
            return false;
        _pos += len;
        return true;
    }

    JsonValue parseValue()
    {
        skipWhitespace();
        const char c = peek();
        switch (c) {
        case '{': {
            const DepthGuard guard(*this);
            return parseObject();
        }
        case '[': {
            const DepthGuard guard(*this);
            return parseArray();
        }
        case '"': return JsonValue::makeString(parseString());
        case 't':
            if (consumeLiteral("true"))
                return JsonValue::makeBool(true);
            fail("invalid literal");
        case 'f':
            if (consumeLiteral("false"))
                return JsonValue::makeBool(false);
            fail("invalid literal");
        case 'n':
            if (consumeLiteral("null"))
                return JsonValue::makeNull();
            fail("invalid literal");
        default: return parseNumber();
        }
    }

    JsonValue parseObject()
    {
        expect('{');
        std::vector<std::string> keys;
        std::vector<JsonValue> values;
        skipWhitespace();
        if (peek() == '}') {
            ++_pos;
            return JsonValue::makeObject(std::move(keys),
                                         std::move(values));
        }
        for (;;) {
            skipWhitespace();
            std::string name = parseString();
            skipWhitespace();
            expect(':');
            JsonValue value = parseValue();
            // Last duplicate wins, mirroring common JSON libraries.
            bool replaced = false;
            for (std::size_t i = 0; i < keys.size(); ++i) {
                if (keys[i] == name) {
                    values[i] = std::move(value);
                    replaced = true;
                    break;
                }
            }
            if (!replaced) {
                keys.push_back(std::move(name));
                values.push_back(std::move(value));
            }
            skipWhitespace();
            const char next = peek();
            if (next == ',') {
                ++_pos;
                continue;
            }
            if (next == '}') {
                ++_pos;
                break;
            }
            fail("expected ',' or '}' in object");
        }
        return JsonValue::makeObject(std::move(keys), std::move(values));
    }

    JsonValue parseArray()
    {
        expect('[');
        std::vector<JsonValue> items;
        skipWhitespace();
        if (peek() == ']') {
            ++_pos;
            return JsonValue::makeArray(std::move(items));
        }
        for (;;) {
            items.push_back(parseValue());
            skipWhitespace();
            const char next = peek();
            if (next == ',') {
                ++_pos;
                continue;
            }
            if (next == ']') {
                ++_pos;
                break;
            }
            fail("expected ',' or ']' in array");
        }
        return JsonValue::makeArray(std::move(items));
    }

    void checkStringLength(const std::string& out)
    {
        if (_limits.max_string_bytes != 0 &&
            out.size() > _limits.max_string_bytes) {
            fail("string longer than " +
                 std::to_string(_limits.max_string_bytes) + " bytes");
        }
    }

    std::string parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (_pos >= _text.size())
                fail("unterminated string");
            const char c = _text[_pos++];
            if (c == '"') {
                checkStringLength(out);
                return out;
            }
            if (c != '\\') {
                if (_limits.reject_control_chars &&
                    static_cast<unsigned char>(c) < 0x20) {
                    --_pos;
                    fail("raw control character in string (must be "
                         "\\u-escaped)");
                }
                out += c;
                checkStringLength(out);
                continue;
            }
            if (_pos >= _text.size())
                fail("unterminated escape");
            const char escape = _text[_pos++];
            switch (escape) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': {
                if (_pos + 4 > _text.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = _text[_pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("invalid \\u escape digit");
                }
                // UTF-8 encode the code point (BMP only; surrogate
                // pairs are passed through as two 3-byte sequences,
                // which is enough for trace/manifest round-trips).
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 |
                                             ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
            }
            default: fail("invalid escape character");
            }
        }
    }

    JsonValue parseNumber()
    {
        const std::size_t start = _pos;
        if (_pos < _text.size() && _text[_pos] == '-')
            ++_pos;
        while (_pos < _text.size()) {
            const char c = _text[_pos];
            if ((c >= '0' && c <= '9') || c == '.' || c == 'e' ||
                c == 'E' || c == '+' || c == '-') {
                ++_pos;
            } else {
                break;
            }
        }
        if (_pos == start)
            fail("invalid value");
        const std::string token = _text.substr(start, _pos - start);
        try {
            std::size_t used = 0;
            const double number = std::stod(token, &used);
            if (used != token.size())
                fail("invalid number '" + token + "'");
            return JsonValue::makeNumber(number);
        } catch (const ModelError&) {
            throw;
        } catch (const std::exception&) {
            fail("invalid number '" + token + "'");
        }
    }

    const std::string& _text;
    const JsonLimits& _limits;
    std::size_t _pos = 0;
    std::size_t _depth = 0;
};

} // namespace

JsonValue
parseJson(const std::string& text)
{
    const JsonLimits limits;
    return JsonParser(text, limits).parse();
}

JsonValue
parseJson(const std::string& text, const JsonLimits& limits)
{
    TTMCAS_REQUIRE(limits.max_depth >= 1,
                   "JsonLimits.max_depth must be >= 1");
    return JsonParser(text, limits).parse();
}

} // namespace ttmcas
