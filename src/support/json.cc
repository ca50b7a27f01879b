#include "support/json.hh"

#include <algorithm>
#include <cerrno>
#include <cfloat>
#include <charconv>
#include <locale.h>
#include <stdlib.h>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
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
    if (_depth != 0) {
        const std::uint64_t bit = std::uint64_t{1} << (_depth - 1);
        if ((_has_item & bit) != 0)
            _out += ',';
        _has_item |= bit;
    }
}

void
JsonWriter::open(char bracket)
{
    TTMCAS_INVARIANT(_depth < kMaxDepth, "JsonWriter nesting too deep");
    separate();
    _out += bracket;
    _has_item &= ~(std::uint64_t{1} << _depth);
    ++_depth;
}

void
JsonWriter::close(char bracket)
{
    TTMCAS_INVARIANT(_depth != 0, "JsonWriter close without an open");
    --_depth;
    _out += bracket;
}

void
JsonWriter::beginObject()
{
    open('{');
}

void
JsonWriter::endObject()
{
    close('}');
}

void
JsonWriter::beginArray()
{
    open('[');
}

void
JsonWriter::endArray()
{
    close(']');
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
JsonWriter::raw(std::string_view json)
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

const std::vector<JsonValue>&
JsonValue::members() const
{
    TTMCAS_REQUIRE(_kind == Kind::Object, "JSON value is not an object");
    return _items;
}

const JsonValue*
JsonValue::find(std::string_view name) const
{
    if (_kind != Kind::Object)
        return nullptr;
    for (const JsonValue& member : _items) {
        if (member._key == name)
            return &member;
    }
    return nullptr;
}

bool
JsonValue::has(std::string_view name) const
{
    return find(name) != nullptr;
}

const JsonValue&
JsonValue::at(std::string_view name) const
{
    TTMCAS_REQUIRE(_kind == Kind::Object, "JSON value is not an object");
    if (const JsonValue* member = find(name))
        return *member;
    throw ModelError("JSON object has no member '" + std::string(name) +
                     "'");
}

// ---------------------------------------------------------------------
// Parser

namespace {

/** The bytes a number run may hold; the converter judges the run. */
bool
isNumberByte(char c)
{
    return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
           c == '+' || c == '-';
}

/**
 * Whether C's strtod, in the "C" locale, consumes all of @p run
 * without ERANGE. Only runs whose value is a non-zero magnitude of at
 * most DBL_MIN get here: there strtod rejects an inexact subnormal,
 * and an input just below DBL_MIN that it counts as tiny even though
 * it rounds up to DBL_MIN; from_chars reports neither.
 */
bool
strtodAcceptsTiny(std::string_view run)
{
    /** The "C" locale, held for the life of the process. */
    struct CLocale
    {
        CLocale() = default;
        CLocale(const CLocale&) = delete;
        CLocale& operator=(const CLocale&) = delete;
        ~CLocale() { freelocale(handle); }

        locale_t handle =
            newlocale(LC_ALL_MASK, "C", static_cast<locale_t>(nullptr));
    };
    static const CLocale c_locale;
    const std::string text(run); // strtod needs a terminated string
    char* end = nullptr;
    const int saved = errno;
    errno = 0;
    (void)strtod_l(text.c_str(), &end, c_locale.handle);
    const bool range_error = errno == ERANGE;
    errno = saved;
    return !range_error && end == text.c_str() + text.size();
}

/**
 * Convert a number run the way strtod does in the "C" locale (see the
 * number contract in json.hh); false when strtod would reject it.
 */
bool
convertNumber(std::string_view run, double& value)
{
    const char* first = run.data();
    const char* const last = run.data() + run.size();
    // strtod takes one leading '+'; from_chars takes none.
    if (first != last && *first == '+') {
        ++first;
        if (first != last && (*first == '+' || *first == '-'))
            return false;
    }
    // result_out_of_range covers overflow and underflow to zero.
    const auto [end, error] = std::from_chars(first, last, value);
    if (error != std::errc() || end != last)
        return false;
    if (value != 0.0 && std::fabs(value) <= DBL_MIN)
        return strtodAcceptsTiny(run);
    return true;
}

} // namespace

namespace detail {

/**
 * The recursive-descent parser. Every value is parsed in place on one
 * stack shared by the whole parse; a container's members sit above it
 * until it closes, then move into a vector of exactly their number.
 * So no vector ever grows, and each value moves once.
 */
class JsonParser
{
  public:
    JsonParser(std::string_view text, const JsonLimits& limits)
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
        _stack.reserve(kStackReserve);
        parseValue(push());
        skipWhitespace();
        if (_pos != _text.size())
            fail("trailing content after JSON document");
        return std::move(_stack.front());
    }

  private:
    /** Stack entries reserved up front: a request line's worth. */
    static constexpr std::size_t kStackReserve = 32;

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

    bool consumeLiteral(std::string_view literal)
    {
        if (_text.substr(_pos, literal.size()) != literal)
            return false;
        _pos += literal.size();
        return true;
    }

    /**
     * Parse a value into stack entry @p slot. Entries are named by
     * index, not reference: a nested container pushes onto the same
     * stack, which may move it.
     */
    void parseValue(std::size_t slot)
    {
        skipWhitespace();
        switch (peek()) {
        case '{': {
            const DepthGuard guard(*this);
            parseObject(slot);
            return;
        }
        case '[': {
            const DepthGuard guard(*this);
            parseArray(slot);
            return;
        }
        case '"':
            _stack[slot]._kind = JsonValue::Kind::String;
            parseString(_stack[slot]._string);
            return;
        case 't':
            if (!consumeLiteral("true"))
                fail("invalid literal");
            _stack[slot]._kind = JsonValue::Kind::Boolean;
            _stack[slot]._bool = true;
            return;
        case 'f':
            if (!consumeLiteral("false"))
                fail("invalid literal");
            _stack[slot]._kind = JsonValue::Kind::Boolean;
            return;
        case 'n':
            if (!consumeLiteral("null"))
                fail("invalid literal");
            return;
        default: parseNumber(_stack[slot]); return;
        }
    }

    /** Push an empty entry; its index. */
    std::size_t push()
    {
        _stack.emplace_back();
        return _stack.size() - 1;
    }

    /** Move the entries above @p base into entry @p slot's items. */
    void collect(std::size_t slot, std::size_t base)
    {
        _stack[slot]._items.assign(
            std::make_move_iterator(_stack.begin() + base),
            std::make_move_iterator(_stack.end()));
        _stack.resize(base);
    }

    void parseObject(std::size_t slot)
    {
        expect('{');
        _stack[slot]._kind = JsonValue::Kind::Object;
        const std::size_t base = _stack.size();
        skipWhitespace();
        if (peek() == '}') {
            ++_pos;
            return;
        }
        for (;;) {
            skipWhitespace();
            const std::size_t member = push();
            parseString(_stack[member]._key);
            skipWhitespace();
            expect(':');
            parseValue(member);
            // Last duplicate wins, in the first one's place, mirroring
            // common JSON libraries.
            const auto end = _stack.begin() + member;
            const auto first =
                std::find_if(_stack.begin() + base, end,
                             [&](const JsonValue& other) {
                                 return other._key == end->_key;
                             });
            if (first != end) {
                *first = std::move(*end);
                _stack.pop_back();
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
        collect(slot, base);
    }

    void parseArray(std::size_t slot)
    {
        expect('[');
        _stack[slot]._kind = JsonValue::Kind::Array;
        const std::size_t base = _stack.size();
        skipWhitespace();
        if (peek() == ']') {
            ++_pos;
            return;
        }
        for (;;) {
            parseValue(push());
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
        collect(slot, base);
    }

    void checkStringLength(const std::string& out)
    {
        if (_limits.max_string_bytes != 0 &&
            out.size() > _limits.max_string_bytes) {
            fail("string longer than " +
                 std::to_string(_limits.max_string_bytes) + " bytes");
        }
    }

    /**
     * Append the run of plain bytes at _pos to @p out in one piece: up
     * to a quote, a backslash, a rejected control character or the end
     * of input. A run that makes @p out too long fails just past its
     * first excess byte, where a byte-by-byte copy would stop.
     */
    void appendPlainRun(std::string& out)
    {
        const std::size_t start = _pos;
        std::size_t end = start;
        while (end < _text.size()) {
            const char c = _text[end];
            if (c == '"' || c == '\\' ||
                (_limits.reject_control_chars &&
                 static_cast<unsigned char>(c) < 0x20))
                break;
            ++end;
        }
        const std::size_t max = _limits.max_string_bytes;
        if (max != 0 && out.size() + (end - start) > max) {
            _pos = start + (max > out.size() ? max - out.size() : 0) + 1;
            fail("string longer than " + std::to_string(max) + " bytes");
        }
        out.append(_text.substr(start, end - start));
        _pos = end;
    }

    void parseString(std::string& out)
    {
        expect('"');
        for (;;) {
            appendPlainRun(out);
            if (_pos >= _text.size())
                fail("unterminated string");
            const char c = _text[_pos++];
            if (c == '"') {
                checkStringLength(out);
                return;
            }
            if (c != '\\') {
                // The plain run stopped at a rejected control byte.
                --_pos;
                fail("raw control character in string (must be "
                     "\\u-escaped)");
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

    void parseNumber(JsonValue& out)
    {
        const std::size_t start = _pos;
        if (_pos < _text.size() && _text[_pos] == '-')
            ++_pos;
        while (_pos < _text.size() && isNumberByte(_text[_pos]))
            ++_pos;
        if (_pos == start)
            fail("invalid value");
        const std::string_view run = _text.substr(start, _pos - start);
        if (!convertNumber(run, out._number))
            fail("invalid number '" + std::string(run) + "'");
        out._kind = JsonValue::Kind::Number;
    }

    std::string_view _text;
    const JsonLimits& _limits;
    std::size_t _pos = 0;
    std::size_t _depth = 0;
    /** Members and elements of every open container, innermost last. */
    std::vector<JsonValue> _stack;
};

} // namespace detail

JsonValue
parseJson(const std::string& text)
{
    const JsonLimits limits;
    return detail::JsonParser(text, limits).parse();
}

JsonValue
parseJson(const std::string& text, const JsonLimits& limits)
{
    TTMCAS_REQUIRE(limits.max_depth >= 1,
                   "JsonLimits.max_depth must be >= 1");
    return detail::JsonParser(text, limits).parse();
}

} // namespace ttmcas
