#include "service/json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>

namespace vn::service
{

Json
Json::boolean(bool v)
{
    Json j;
    j.value_.emplace<bool>(v);
    return j;
}

Json
Json::number(double v)
{
    Json j;
    j.value_.emplace<double>(v);
    return j;
}

Json
Json::str(std::string v)
{
    Json j;
    j.value_.emplace<std::string>(std::move(v));
    return j;
}

Json
Json::array()
{
    Json j;
    j.value_.emplace<Items>();
    return j;
}

Json
Json::object()
{
    Json j;
    j.value_.emplace<Members>();
    return j;
}

bool
Json::asBool() const
{
    if (const bool *v = std::get_if<bool>(&value_))
        return *v;
    throw JsonError("expected a boolean");
}

double
Json::asNumber() const
{
    if (const double *v = std::get_if<double>(&value_))
        return *v;
    throw JsonError("expected a number");
}

const std::string &
Json::asString() const
{
    if (const std::string *v = std::get_if<std::string>(&value_))
        return *v;
    throw JsonError("expected a string");
}

size_t
Json::size() const
{
    if (const Items *items = std::get_if<Items>(&value_))
        return items->size();
    if (const Members *members = std::get_if<Members>(&value_))
        return members->size();
    throw JsonError("expected an array or object");
}

const Json &
Json::at(size_t index) const
{
    const Items &list = items();
    if (index >= list.size())
        throw JsonError("array index out of range");
    return list[index];
}

bool
Json::has(const std::string &key) const
{
    const Members *members = std::get_if<Members>(&value_);
    if (members == nullptr)
        return false;
    for (const auto &[k, v] : *members)
        if (k == key)
            return true;
    return false;
}

const Json &
Json::at(const std::string &key) const
{
    for (const auto &[k, v] : members())
        if (k == key)
            return v;
    throw JsonError("missing member '" + key + "'");
}

double
Json::numberOr(const std::string &key, double fallback) const
{
    return has(key) ? at(key).asNumber() : fallback;
}

bool
Json::boolOr(const std::string &key, bool fallback) const
{
    return has(key) ? at(key).asBool() : fallback;
}

void
Json::push(Json value)
{
    Items *items = std::get_if<Items>(&value_);
    if (items == nullptr)
        throw JsonError("push on a non-array");
    items->push_back(std::move(value));
}

void
Json::set(const std::string &key, Json value)
{
    Members *members = std::get_if<Members>(&value_);
    if (members == nullptr)
        throw JsonError("set on a non-object");
    for (auto &[k, v] : *members) {
        if (k == key) {
            v = std::move(value);
            return;
        }
    }
    members->emplace_back(key, std::move(value));
}

const std::vector<Json> &
Json::items() const
{
    if (const Items *items = std::get_if<Items>(&value_))
        return *items;
    throw JsonError("expected an array");
}

const std::vector<std::pair<std::string, Json>> &
Json::members() const
{
    if (const Members *members = std::get_if<Members>(&value_))
        return *members;
    throw JsonError("expected an object");
}

/** The parser's access to an object's member list. */
struct JsonMembers
{
    static Json::Members &
    of(Json &object)
    {
        return std::get<Json::Members>(object.value_);
    }
};

namespace
{

/** A string byte that cannot appear raw between JSON quotes. */
bool
needsEscape(char c)
{
    return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

/** Recursive-descent parser over a string_view cursor. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    Json
    document()
    {
        Json value = parseValue(1);
        skipSpace();
        if (pos_ != text_.size())
            throw JsonError("trailing characters after document");
        return value;
    }

  private:
    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            throw JsonError("unexpected end of input");
        return text_[pos_];
    }

    char
    take()
    {
        char c = peek();
        ++pos_;
        return c;
    }

    void
    expect(char c)
    {
        if (take() != c)
            throw JsonError(std::string("expected '") + c + "'");
    }

    void
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            throw JsonError("invalid literal");
        pos_ += word.size();
    }

    Json
    parseValue(int depth)
    {
        if (depth > Json::kMaxDepth)
            throw JsonError("nesting too deep");
        skipSpace();
        switch (peek()) {
        case '{':
            return parseObject(depth);
        case '[':
            return parseArray(depth);
        case '"':
            return Json::str(parseString());
        case 't':
            literal("true");
            return Json::boolean(true);
        case 'f':
            literal("false");
            return Json::boolean(false);
        case 'n':
            literal("null");
            return Json();
        default:
            return parseNumber();
        }
    }

    /** Members parsed with set()'s scan before the rest are indexed. */
    static constexpr size_t kScanMembers = 128;

    Json
    parseObject(int depth)
    {
        expect('{');
        Json obj = Json::object();
        skipSpace();
        if (peek() == '}') {
            ++pos_;
            return obj;
        }
        for (size_t parsed = 1;; ++parsed) {
            std::string key = parseKey();
            obj.set(key, parseValue(depth + 1));
            if (objectEnds())
                return obj;
            if (parsed == kScanMembers)
                return parseLongObject(std::move(obj), depth);
        }
    }

    /**
     * The rest of an object that has outgrown set()'s scan of every
     * earlier member, which would make parsing quadratic in the member
     * count. A key index (key -> position) keeps set()'s meaning for a
     * repeated key: the last value, at the first occurrence's
     * position. Kept out of line so short objects, the common case,
     * carry no index.
     */
    [[gnu::noinline]] Json
    parseLongObject(Json obj, int depth)
    {
        auto &members = JsonMembers::of(obj);
        std::unordered_map<std::string, size_t> index;
        for (size_t i = 0; i < members.size(); ++i)
            index.emplace(members[i].first, i);
        while (true) {
            std::string key = parseKey();
            Json value = parseValue(depth + 1);
            auto [at, fresh] = index.try_emplace(key, members.size());
            if (fresh)
                members.emplace_back(std::move(key), std::move(value));
            else
                members[at->second].second = std::move(value);
            if (objectEnds())
                return obj;
        }
    }

    /** An object member's key and the ':' after it. */
    std::string
    parseKey()
    {
        skipSpace();
        std::string key = parseString();
        skipSpace();
        expect(':');
        return key;
    }

    /** After a member: true at the object's '}', false at a ','. */
    bool
    objectEnds()
    {
        skipSpace();
        char c = take();
        if (c == '}')
            return true;
        if (c != ',')
            throw JsonError("expected ',' or '}' in object");
        return false;
    }

    Json
    parseArray(int depth)
    {
        expect('[');
        Json arr = Json::array();
        skipSpace();
        if (peek() == ']') {
            ++pos_;
            return arr;
        }
        while (true) {
            arr.push(parseValue(depth + 1));
            skipSpace();
            char c = take();
            if (c == ']')
                return arr;
            if (c != ',')
                throw JsonError("expected ',' or ']' in array");
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            // Copy the run up to the next quote, escape or control
            // character in one append.
            size_t run = pos_;
            while (pos_ < text_.size() && !needsEscape(text_[pos_]))
                ++pos_;
            out.append(text_.substr(run, pos_ - run));
            char c = take();
            if (c == '"')
                return out;
            if (c != '\\')
                throw JsonError("unescaped control character");
            char esc = take();
            switch (esc) {
            case '"': out.push_back('"'); break;
            case '\\': out.push_back('\\'); break;
            case '/': out.push_back('/'); break;
            case 'b': out.push_back('\b'); break;
            case 'f': out.push_back('\f'); break;
            case 'n': out.push_back('\n'); break;
            case 'r': out.push_back('\r'); break;
            case 't': out.push_back('\t'); break;
            case 'u': appendUnicode(out); break;
            default: throw JsonError("invalid escape");
            }
        }
    }

    unsigned
    hex4()
    {
        unsigned value = 0;
        for (int i = 0; i < 4; ++i) {
            char c = take();
            value <<= 4;
            if (c >= '0' && c <= '9')
                value |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                value |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                value |= static_cast<unsigned>(c - 'A' + 10);
            else
                throw JsonError("invalid \\u escape");
        }
        return value;
    }

    void
    appendUnicode(std::string &out)
    {
        unsigned cp = hex4();
        if (cp >= 0xd800 && cp <= 0xdbff) {
            // High surrogate: a low surrogate must follow.
            if (take() != '\\' || take() != 'u')
                throw JsonError("unpaired surrogate");
            unsigned lo = hex4();
            if (lo < 0xdc00 || lo > 0xdfff)
                throw JsonError("unpaired surrogate");
            cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
        } else if (cp >= 0xdc00 && cp <= 0xdfff) {
            throw JsonError("unpaired surrogate");
        }
        // UTF-8 encode.
        if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
        } else if (cp < 0x10000) {
            out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
        } else {
            out.push_back(static_cast<char>(0xf0 | (cp >> 18)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
        }
    }

    Json
    parseNumber()
    {
        size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               ((text_[pos_] >= '0' && text_[pos_] <= '9') ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            throw JsonError("invalid value");
        std::string_view view = text_.substr(start, pos_ - start);
        const char *last = view.data() + view.size();
        double value = 0.0;
        auto [stop, ec] = std::from_chars(view.data(), last, value);
        if (ec == std::errc{} && stop == last)
            return Json::number(value);
        // from_chars refuses a leading '+' and reports underflow as an
        // error; strtod's verdict keeps both accepted (1e-400 reads 0).
        std::string token(view);
        char *end = nullptr;
        value = std::strtod(token.c_str(), &end);
        if (end == nullptr || *end != '\0' || !std::isfinite(value))
            throw JsonError("invalid number '" + token + "'");
        return Json::number(value);
    }

    std::string_view text_;
    size_t pos_ = 0;
};

void
dumpString(std::string_view s, std::string &out)
{
    out.push_back('"');
    size_t run = 0; // first byte not yet copied
    for (size_t i = 0; i < s.size(); ++i) {
        char c = s[i];
        if (!needsEscape(c))
            continue;
        out.append(s.substr(run, i - run));
        run = i + 1;
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default: {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(c) & 0xff);
            out += buf;
        }
        }
    }
    out.append(s.substr(run));
    out.push_back('"');
}

void
dumpNumber(double v, std::string &out)
{
    // 17 significant digits, the bytes of %.17g: every finite IEEE
    // double round-trips.
    char buf[32];
    char *end =
        std::to_chars(buf, buf + sizeof(buf), v,
                      std::chars_format::general, 17)
            .ptr;
    out.append(buf, end);
}

void
dumpValue(const Json &j, std::string &out)
{
    switch (j.type()) {
    case Json::Type::Null:
        out += "null";
        break;
    case Json::Type::Bool:
        out += j.asBool() ? "true" : "false";
        break;
    case Json::Type::Number:
        dumpNumber(j.asNumber(), out);
        break;
    case Json::Type::String:
        dumpString(j.asString(), out);
        break;
    case Json::Type::Array: {
        out.push_back('[');
        bool first = true;
        for (const Json &item : j.items()) {
            if (!first)
                out.push_back(',');
            first = false;
            dumpValue(item, out);
        }
        out.push_back(']');
        break;
    }
    case Json::Type::Object: {
        out.push_back('{');
        bool first = true;
        for (const auto &[key, value] : j.members()) {
            if (!first)
                out.push_back(',');
            first = false;
            dumpString(key, out);
            out.push_back(':');
            dumpValue(value, out);
        }
        out.push_back('}');
        break;
    }
    }
}

} // namespace

Json
Json::parse(std::string_view text)
{
    return Parser(text).document();
}

std::string
Json::dump() const
{
    std::string out;
    dumpValue(*this, out);
    return out;
}

} // namespace vn::service
