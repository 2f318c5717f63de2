/**
 * @file
 * Minimal JSON value type for the vnoised wire protocol: parse,
 * serialize, and typed accessors. Deliberately small — numbers are
 * doubles (printed with 17 significant digits, the bytes of %.17g, so
 * every IEEE double round-trips bit-exactly), objects preserve
 * insertion order, and the parser enforces a nesting-depth limit so
 * hostile payloads cannot blow the stack.
 *
 * Errors are reported by throwing JsonError; the protocol layer maps
 * them to structured `malformed_frame` / `bad_request` responses.
 */

#ifndef VN_SERVICE_JSON_HH
#define VN_SERVICE_JSON_HH

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace vn::service
{

/** Thrown on malformed JSON text or a type-mismatched accessor. */
class JsonError : public std::runtime_error
{
  public:
    explicit JsonError(const std::string &what_arg)
        : std::runtime_error(what_arg)
    {}
};

/** One JSON value (null, bool, number, string, array, or object). */
class Json
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    /** Maximum nesting depth parse() accepts. */
    static constexpr int kMaxDepth = 32;

    Json() = default;

    static Json boolean(bool v);
    static Json number(double v);
    static Json str(std::string v);
    static Json array();
    static Json object();

    /** Parse a complete JSON document; throws JsonError. */
    static Json parse(std::string_view text);

    /** Compact serialization (no whitespace). */
    std::string dump() const;

    Type type() const { return static_cast<Type>(value_.index()); }
    bool isNull() const { return type() == Type::Null; }
    bool isBool() const { return type() == Type::Bool; }
    bool isNumber() const { return type() == Type::Number; }
    bool isString() const { return type() == Type::String; }
    bool isArray() const { return type() == Type::Array; }
    bool isObject() const { return type() == Type::Object; }

    /** Value accessors; throw JsonError on type mismatch. */
    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;

    /** Array element count / object member count. */
    size_t size() const;

    /** Array element access; throws JsonError when out of range. */
    const Json &at(size_t index) const;

    /** True when this is an object containing `key`. */
    bool has(const std::string &key) const;

    /** Object member access; throws JsonError when missing. */
    const Json &at(const std::string &key) const;

    /** Object member, or `fallback` when absent. */
    double numberOr(const std::string &key, double fallback) const;
    bool boolOr(const std::string &key, bool fallback) const;

    /** Append to an array (must be an array). */
    void push(Json value);

    /** Set/overwrite an object member (must be an object). */
    void set(const std::string &key, Json value);

    const std::vector<Json> &items() const;
    const std::vector<std::pair<std::string, Json>> &members() const;

  private:
    using Items = std::vector<Json>;
    using Members = std::vector<std::pair<std::string, Json>>;

    // The parser's (json.cc) access to an object's member list.
    friend struct JsonMembers;

    // One alternative per Type, in Type's order, so a value is only as
    // large as its largest payload (a string) plus the index.
    std::variant<std::monostate, bool, double, std::string, Items, Members>
        value_;
    static_assert(
        std::is_same_v<std::variant_alternative_t<
                           static_cast<size_t>(Type::Object), decltype(value_)>,
                       Members>,
        "value_ alternatives follow Type");
};

} // namespace vn::service

#endif // VN_SERVICE_JSON_HH
