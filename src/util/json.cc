#include "json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "logging.hh"

namespace rememberr {

bool
JsonValue::asBool() const
{
    if (type_ != Type::Bool)
        REMEMBERR_PANIC("JsonValue: not a bool");
    return bool_;
}

double
JsonValue::asNumber() const
{
    if (type_ != Type::Number)
        REMEMBERR_PANIC("JsonValue: not a number");
    return number_;
}

std::int64_t
JsonValue::asInt() const
{
    return static_cast<std::int64_t>(std::llround(asNumber()));
}

const std::string &
JsonValue::asString() const
{
    if (type_ != Type::String)
        REMEMBERR_PANIC("JsonValue: not a string");
    return string_;
}

const JsonValue::Array &
JsonValue::asArray() const
{
    if (type_ != Type::Array)
        REMEMBERR_PANIC("JsonValue: not an array");
    return array_;
}

JsonValue::Array &
JsonValue::asArray()
{
    if (type_ != Type::Array)
        REMEMBERR_PANIC("JsonValue: not an array");
    return array_;
}

const JsonValue::Object &
JsonValue::asObject() const
{
    if (type_ != Type::Object)
        REMEMBERR_PANIC("JsonValue: not an object");
    return object_;
}

JsonValue::Object &
JsonValue::asObject()
{
    if (type_ != Type::Object)
        REMEMBERR_PANIC("JsonValue: not an object");
    return object_;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    const Object &obj = asObject();
    auto it = obj.find(key);
    if (it == obj.end())
        REMEMBERR_PANIC("JsonValue: missing key '", key, "'");
    return it->second;
}

bool
JsonValue::contains(const std::string &key) const
{
    return type_ == Type::Object && object_.count(key) > 0;
}

JsonValue &
JsonValue::operator[](const std::string &key)
{
    return asObject()[key];
}

void
JsonValue::append(JsonValue value)
{
    asArray().push_back(std::move(value));
}

std::size_t
JsonValue::size() const
{
    if (type_ == Type::Array)
        return array_.size();
    if (type_ == Type::Object)
        return object_.size();
    REMEMBERR_PANIC("JsonValue: size() on scalar");
}

void
appendJsonEscaped(std::string &out, std::string_view text)
{
    out += '"';
    // Copy runs of bytes that need no escape in one append each.
    std::size_t run = 0;
    for (std::size_t i = 0; i < text.size(); ++i) {
        auto byte = static_cast<unsigned char>(text[i]);
        if (byte >= 0x20 && byte != '"' && byte != '\\')
            continue;
        out.append(text.data() + run, i - run);
        run = i + 1;
        switch (byte) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          default: {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", byte);
            out += buf;
          }
        }
    }
    out.append(text.data() + run, text.size() - run);
    out += '"';
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    appendJsonEscaped(out, text);
    return out;
}

namespace {

std::string
formatNumber(double value)
{
    // Integers print without a decimal point for readability.
    if (std::isfinite(value) && value == std::floor(value) &&
        std::fabs(value) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", value);
        return buf;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

} // namespace

void
appendJsonCount(std::string &out, std::size_t value)
{
    // Below 1e15 formatNumber prints the exact integer ("%.0f" of a
    // double that holds it exactly); above, defer to it.
    if (value < 1000000000000000ULL) {
        char buf[24];
        out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
        return;
    }
    out += formatNumber(static_cast<double>(value));
}

void
JsonValue::writeTo(std::string &out, int indent, int depth) const
{
    auto newline = [&](int d) {
        if (indent > 0) {
            out += '\n';
            out.append(static_cast<std::size_t>(indent) * d, ' ');
        }
    };

    switch (type_) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Type::Number:
        out += formatNumber(number_);
        break;
      case Type::String:
        appendJsonEscaped(out, string_);
        break;
      case Type::Array:
        if (array_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (std::size_t i = 0; i < array_.size(); ++i) {
            if (i > 0)
                out += ',';
            newline(depth + 1);
            array_[i].writeTo(out, indent, depth + 1);
        }
        newline(depth);
        out += ']';
        break;
      case Type::Object:
        if (object_.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        {
            bool first = true;
            for (const auto &[key, value] : object_) {
                if (!first)
                    out += ',';
                first = false;
                newline(depth + 1);
                appendJsonEscaped(out, key);
                out += indent > 0 ? ": " : ":";
                value.writeTo(out, indent, depth + 1);
            }
        }
        newline(depth);
        out += '}';
        break;
    }
}

std::string
JsonValue::dump() const
{
    std::string out;
    writeTo(out, 0, 0);
    return out;
}

std::string
JsonValue::dumpPretty() const
{
    std::string out;
    writeTo(out, 2, 0);
    return out;
}

bool
JsonValue::operator==(const JsonValue &other) const
{
    if (type_ != other.type_)
        return false;
    switch (type_) {
      case Type::Null: return true;
      case Type::Bool: return bool_ == other.bool_;
      case Type::Number: return number_ == other.number_;
      case Type::String: return string_ == other.string_;
      case Type::Array: return array_ == other.array_;
      case Type::Object: return object_ == other.object_;
    }
    return false;
}

namespace {

/** Recursive-descent JSON parser with line tracking. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    Expected<JsonValue>
    parse()
    {
        skipWhitespace();
        JsonValue value;
        if (!parseValue(value))
            return makeError(error_, line_);
        skipWhitespace();
        if (pos_ != text_.size())
            return makeError("trailing characters after document",
                             line_);
        return value;
    }

  private:
    bool
    fail(const std::string &message)
    {
        if (error_.empty())
            error_ = message;
        return false;
    }

    void
    skipWhitespace()
    {
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c == '\n')
                ++line_;
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
                ++pos_;
            else
                break;
        }
    }

    bool
    consume(char expected)
    {
        if (pos_ < text_.size() && text_[pos_] == expected) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    parseValue(JsonValue &out)
    {
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        char c = text_[pos_];
        switch (c) {
          case '{': return parseObject(out);
          case '[': return parseArray(out);
          case '"': return parseString(out);
          case 't': return parseLiteral("true", JsonValue(true), out);
          case 'f': return parseLiteral("false", JsonValue(false), out);
          case 'n': return parseLiteral("null", JsonValue(), out);
          default: return parseNumber(out);
        }
    }

    bool
    parseLiteral(const char *word, JsonValue value, JsonValue &out)
    {
        std::size_t len = std::string(word).size();
        if (text_.compare(pos_, len, word) != 0)
            return fail(std::string("invalid literal, expected ") + word);
        pos_ += len;
        out = std::move(value);
        return true;
    }

    bool
    parseNumber(JsonValue &out)
    {
        std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start)
            return fail("invalid value");
        std::string token = text_.substr(start, pos_ - start);
        char *end = nullptr;
        double value = std::strtod(token.c_str(), &end);
        if (end == nullptr || *end != '\0')
            return fail("malformed number '" + token + "'");
        // JSON has no representation for non-finite numbers, so an
        // overflowing literal cannot round-trip; reject it.
        if (!std::isfinite(value))
            return fail("number out of range '" + token + "'");
        out = JsonValue(value);
        return true;
    }

    bool
    parseString(JsonValue &out)
    {
        std::string value;
        if (!parseRawString(value))
            return false;
        out = JsonValue(std::move(value));
        return true;
    }

    /**
     * Read exactly four hex digits after "\u". Strict: only
     * [0-9a-fA-F] counts, so signs and whitespace — which strtol
     * would tolerate — are malformed.
     */
    bool
    parseHexQuad(std::uint32_t &code)
    {
        if (pos_ + 4 > text_.size())
            return fail("truncated \\u escape");
        code = 0;
        for (int i = 0; i < 4; ++i) {
            char c = text_[pos_ + static_cast<std::size_t>(i)];
            std::uint32_t digit;
            if (c >= '0' && c <= '9')
                digit = static_cast<std::uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                digit = static_cast<std::uint32_t>(c - 'a') + 10;
            else if (c >= 'A' && c <= 'F')
                digit = static_cast<std::uint32_t>(c - 'A') + 10;
            else
                return fail("malformed \\u escape");
            code = (code << 4) | digit;
        }
        pos_ += 4;
        return true;
    }

    static void
    appendUtf8(std::string &value, std::uint32_t code)
    {
        if (code < 0x80) {
            value += static_cast<char>(code);
        } else if (code < 0x800) {
            value += static_cast<char>(0xc0 | (code >> 6));
            value += static_cast<char>(0x80 | (code & 0x3f));
        } else if (code < 0x10000) {
            value += static_cast<char>(0xe0 | (code >> 12));
            value += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            value += static_cast<char>(0x80 | (code & 0x3f));
        } else {
            value += static_cast<char>(0xf0 | (code >> 18));
            value += static_cast<char>(0x80 | ((code >> 12) & 0x3f));
            value += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            value += static_cast<char>(0x80 | (code & 0x3f));
        }
    }

    bool
    parseRawString(std::string &value)
    {
        if (!consume('"'))
            return fail("expected '\"'");
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    return fail("unterminated escape");
                char esc = text_[pos_++];
                switch (esc) {
                  case '"': value += '"'; break;
                  case '\\': value += '\\'; break;
                  case '/': value += '/'; break;
                  case 'n': value += '\n'; break;
                  case 'r': value += '\r'; break;
                  case 't': value += '\t'; break;
                  case 'b': value += '\b'; break;
                  case 'f': value += '\f'; break;
                  case 'u': {
                    std::uint32_t code = 0;
                    if (!parseHexQuad(code))
                        return false;
                    // UTF-16 surrogate pair: a high surrogate must
                    // be followed by "\uDC00".."\uDFFF"; the pair
                    // combines into one supplementary code point.
                    if (code >= 0xD800 && code <= 0xDBFF) {
                        if (pos_ + 2 > text_.size() ||
                            text_[pos_] != '\\' ||
                            text_[pos_ + 1] != 'u') {
                            return fail(
                                "lone high surrogate in \\u escape");
                        }
                        pos_ += 2;
                        std::uint32_t low = 0;
                        if (!parseHexQuad(low))
                            return false;
                        if (low < 0xDC00 || low > 0xDFFF)
                            return fail("invalid low surrogate in "
                                        "\\u escape");
                        code = 0x10000 + ((code - 0xD800) << 10) +
                               (low - 0xDC00);
                    } else if (code >= 0xDC00 && code <= 0xDFFF) {
                        return fail(
                            "lone low surrogate in \\u escape");
                    }
                    appendUtf8(value, code);
                    break;
                  }
                  default:
                    return fail("unknown escape");
                }
            } else {
                if (c == '\n')
                    ++line_;
                value += c;
            }
        }
        return fail("unterminated string");
    }

    bool
    parseArray(JsonValue &out)
    {
        consume('[');
        JsonValue::Array items;
        skipWhitespace();
        if (consume(']')) {
            out = JsonValue(std::move(items));
            return true;
        }
        for (;;) {
            skipWhitespace();
            JsonValue item;
            if (!parseValue(item))
                return false;
            items.push_back(std::move(item));
            skipWhitespace();
            if (consume(']'))
                break;
            if (!consume(','))
                return fail("expected ',' or ']' in array");
        }
        out = JsonValue(std::move(items));
        return true;
    }

    bool
    parseObject(JsonValue &out)
    {
        consume('{');
        JsonValue::Object fields;
        skipWhitespace();
        if (consume('}')) {
            out = JsonValue(std::move(fields));
            return true;
        }
        for (;;) {
            skipWhitespace();
            std::string key;
            if (!parseRawString(key))
                return false;
            skipWhitespace();
            if (!consume(':'))
                return fail("expected ':' after object key");
            skipWhitespace();
            JsonValue value;
            if (!parseValue(value))
                return false;
            fields[key] = std::move(value);
            skipWhitespace();
            if (consume('}'))
                break;
            if (!consume(','))
                return fail("expected ',' or '}' in object");
        }
        out = JsonValue(std::move(fields));
        return true;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    int line_ = 1;
    std::string error_;
};

} // namespace

Expected<JsonValue>
parseJson(const std::string &text)
{
    return JsonParser(text).parse();
}

} // namespace rememberr
