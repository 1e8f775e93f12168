/**
 * @file
 * Minimal JSON document model, parser and writer.
 *
 * The RemembERR database serializes to JSON (like the original
 * artifact's pandas/JSON dumps). This is a self-contained
 * implementation of the full JSON grammar; \uXXXX escapes decode to
 * UTF-8 (surrogate pairs combine into supplementary code points,
 * lone surrogates are rejected), and the writer emits raw UTF-8 for
 * non-ASCII text.
 */

#ifndef REMEMBERR_UTIL_JSON_HH
#define REMEMBERR_UTIL_JSON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "expected.hh"

namespace rememberr {

/** A JSON value: null, bool, number, string, array or object. */
class JsonValue
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    using Array = std::vector<JsonValue>;
    // std::map keeps object keys sorted, making output deterministic.
    using Object = std::map<std::string, JsonValue>;

    JsonValue() : type_(Type::Null) {}
    JsonValue(std::nullptr_t) : type_(Type::Null) {}
    JsonValue(bool b) : type_(Type::Bool), bool_(b) {}
    JsonValue(double d) : type_(Type::Number), number_(d) {}
    JsonValue(int i) : type_(Type::Number), number_(i) {}
    JsonValue(std::int64_t i)
        : type_(Type::Number), number_(static_cast<double>(i)) {}
    JsonValue(std::size_t i)
        : type_(Type::Number), number_(static_cast<double>(i)) {}
    JsonValue(const char *s) : type_(Type::String), string_(s) {}
    JsonValue(std::string s)
        : type_(Type::String), string_(std::move(s)) {}
    JsonValue(Array a) : type_(Type::Array), array_(std::move(a)) {}
    JsonValue(Object o) : type_(Type::Object), object_(std::move(o)) {}

    static JsonValue makeArray() { return JsonValue(Array{}); }
    static JsonValue makeObject() { return JsonValue(Object{}); }

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    /** Typed accessors; panic when the type does not match. */
    bool asBool() const;
    double asNumber() const;
    std::int64_t asInt() const;
    const std::string &asString() const;
    const Array &asArray() const;
    Array &asArray();
    const Object &asObject() const;
    Object &asObject();

    /** Object field access; panics when absent or not an object. */
    const JsonValue &at(const std::string &key) const;
    /** True when this is an object containing key. */
    bool contains(const std::string &key) const;
    /** Mutable object field, inserting null when absent. */
    JsonValue &operator[](const std::string &key);

    /** Append to an array; panics when not an array. */
    void append(JsonValue value);

    /** Number of elements (array) or fields (object). */
    std::size_t size() const;

    /** Serialize compactly (no whitespace). */
    std::string dump() const;

    /** Serialize with 2-space indentation. */
    std::string dumpPretty() const;

    bool operator==(const JsonValue &other) const;

  private:
    void writeTo(std::string &out, int indent, int depth) const;

    Type type_;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    Array array_;
    Object object_;
};

/** Parse a complete JSON document. Trailing garbage is an error. */
Expected<JsonValue> parseJson(const std::string &text);

/** Escape a string into its JSON representation including quotes. */
std::string jsonEscape(const std::string &text);

/** Append `jsonEscape(text)` to `out` (the same escaper). */
void appendJsonEscaped(std::string &out, std::string_view text);

/** Append `value` exactly as `JsonValue(value).dump()` renders it. */
void appendJsonCount(std::string &out, std::size_t value);

} // namespace rememberr

#endif // REMEMBERR_UTIL_JSON_HH
