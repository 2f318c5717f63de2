#include "util/kvfile.hh"

#include <cctype>
#include <charconv>
#include <fstream>
#include <sstream>

#include "util/logging.hh"

namespace vn
{

namespace
{

bool
isSpace(char c)
{
    return std::isspace(static_cast<unsigned char>(c)) != 0;
}

std::string_view
trim(std::string_view s)
{
    while (!s.empty() && isSpace(s.front()))
        s.remove_prefix(1);
    while (!s.empty() && isSpace(s.back()))
        s.remove_suffix(1);
    return s;
}

/**
 * The number a value token spells, or nullopt. std::from_chars takes
 * every token it consumes whole; the rest (a leading '+', hex floats,
 * out-of-range exponents) get std::stod's verdict, so the accepted
 * set is stod's, plus subnormals, whose underflow stod reports as
 * out_of_range.
 */
std::optional<double>
parseNumber(std::string_view token)
{
    const char *last = token.data() + token.size();
    double value = 0.0;
    auto [end, ec] = std::from_chars(token.data(), last, value);
    if (ec == std::errc{} && end == last)
        return value;
    try {
        std::string text(token);
        size_t consumed = 0;
        value = std::stod(text, &consumed);
        if (consumed == text.size())
            return value;
    } catch (const std::exception &) {
    }
    return std::nullopt;
}

/**
 * The one parser behind load(), tryLoad() and tryParse(), over text in
 * memory; on failure `error` names `path` and the offending line.
 */
std::optional<KeyValueFile>
parseText(std::string_view text, const std::string &path,
          std::string &error)
{
    KeyValueFile kv;
    int line_no = 0;
    while (!text.empty()) {
        size_t newline = text.find('\n');
        std::string_view line = text.substr(0, newline);
        text.remove_prefix(newline == std::string_view::npos
                               ? text.size()
                               : newline + 1);
        ++line_no;
        line = trim(line.substr(0, line.find('#')));
        if (line.empty())
            continue;
        auto eq = line.find('=');
        if (eq == std::string_view::npos) {
            error = "'" + path + "' line " + std::to_string(line_no) +
                    ": expected 'key = value'";
            return std::nullopt;
        }
        std::string_view key = trim(line.substr(0, eq));
        std::string_view value_text = trim(line.substr(eq + 1));
        if (key.empty() || value_text.empty()) {
            error = "'" + path + "' line " + std::to_string(line_no) +
                    ": empty key or value";
            return std::nullopt;
        }
        std::optional<double> value = parseNumber(value_text);
        if (!value) {
            error = "'" + path + "' line " + std::to_string(line_no) +
                    ": cannot parse number '" + std::string(value_text) +
                    "'";
            return std::nullopt;
        }
        kv.set(std::string(key), *value);
    }
    return kv;
}

std::optional<KeyValueFile>
parseFile(const std::string &path, std::string &error)
{
    std::ifstream ifs(path, std::ios::binary);
    if (!ifs) {
        error = "cannot open '" + path + "'";
        return std::nullopt;
    }
    std::ostringstream text;
    text << ifs.rdbuf();
    return parseText(text.view(), path, error);
}

} // namespace

KeyValueFile
KeyValueFile::load(const std::string &path)
{
    std::string error;
    auto kv = parseFile(path, error);
    if (!kv)
        fatal("KeyValueFile: ", error);
    return std::move(*kv);
}

std::optional<KeyValueFile>
KeyValueFile::tryLoad(const std::string &path)
{
    std::string error;
    return parseFile(path, error);
}

std::optional<KeyValueFile>
KeyValueFile::tryParse(std::string_view text)
{
    std::string error;
    return parseText(text, "<memory>", error);
}

std::string
KeyValueFile::serialize() const
{
    std::string out;
    char number[32];
    for (const auto &[key, value] : values_) {
        // Precision 17, general format: the bytes of printf's %.17g
        // (and of an ostream at precision 17), so every double
        // round-trips and existing entries keep their content.
        char *end = std::to_chars(number, number + sizeof(number), value,
                                  std::chars_format::general, 17)
                        .ptr;
        out.append(key).append(" = ").append(number, end).push_back('\n');
    }
    return out;
}

void
KeyValueFile::save(const std::string &path,
                   const std::string &header) const
{
    std::ofstream ofs(path);
    if (!ofs)
        fatal("KeyValueFile: cannot write '", path, "'");
    if (!header.empty())
        ofs << "# " << header << "\n";
    ofs << serialize();
}

void
KeyValueFile::set(const std::string &key, double value)
{
    // End hint: parsed text and most builders arrive in key order.
    values_.insert_or_assign(values_.end(), key, value);
}

bool
KeyValueFile::has(const std::string &key) const
{
    return values_.count(key) != 0;
}

double
KeyValueFile::get(const std::string &key, double fallback) const
{
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
}

double
KeyValueFile::require(const std::string &key) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        fatal("KeyValueFile: missing required key '", key, "'");
    return it->second;
}

} // namespace vn
