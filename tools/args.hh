/**
 * @file
 * The `--key value` flag parser shared by vnoise_cli, vnoised and
 * vnoise_router. A numeric flag whose value is not wholly a finite
 * number is fatal, so `--jobs 0.5x` stops the tool instead of running
 * with a prefix of it.
 */

#ifndef VN_TOOLS_ARGS_HH
#define VN_TOOLS_ARGS_HH

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/logging.hh"

namespace vn::tools
{

/** `text` as a number when the whole token is a finite one. */
inline std::optional<double>
parseNumber(const std::string &text)
{
    try {
        size_t used = 0;
        double value = std::stod(text, &used);
        if (used == text.size() && std::isfinite(value))
            return value;
    } catch (const std::exception &) {
    }
    return std::nullopt;
}

/** Flags from argv[start..]; messages are prefixed with `program`. */
class Args
{
  public:
    Args(std::string program, int argc, char **argv, int start)
        : program_(std::move(program))
    {
        for (int i = start; i < argc; ++i) {
            std::string key = argv[i];
            if (key.rfind("--", 0) != 0) {
                if (stray_.empty())
                    stray_ = key;
                continue;
            }
            key = key.substr(2);
            // A "-4"-style negative number is a value, not a flag
            // (e.g. `--http-port -1` disables the gateway).
            if (i + 1 < argc &&
                (argv[i + 1][0] != '-' ||
                 (argv[i + 1][1] >= '0' && argv[i + 1][1] <= '9'))) {
                values_[key] = argv[i + 1];
                ++i;
            } else {
                values_[key] = "1";
            }
        }
    }

    bool has(const std::string &key) const { return values_.count(key); }

    /** First positional argument that is not a --flag ("" if none). */
    const std::string &stray() const { return stray_; }

    /**
     * True when no positional argument and no flag outside `allowed`
     * was given; otherwise says which on stderr, then prints `usage`.
     */
    bool
    check(const std::vector<std::string> &allowed,
          void (*usage)(std::FILE *)) const
    {
        std::string unknown;
        for (const auto &[key, value] : values_)
            if (unknown.empty() &&
                std::find(allowed.begin(), allowed.end(), key) ==
                    allowed.end())
                unknown = key;
        if (!stray_.empty())
            std::fprintf(stderr, "%s: unexpected argument '%s'\n",
                         program_.c_str(), stray_.c_str());
        else if (!unknown.empty())
            std::fprintf(stderr, "%s: unknown option '--%s'\n",
                         program_.c_str(), unknown.c_str());
        else
            return true;
        usage(stderr);
        return false;
    }

    std::string
    text(const std::string &key, const std::string &fallback) const
    {
        auto it = values_.find(key);
        return it == values_.end() ? fallback : it->second;
    }

    double
    number(const std::string &key, double fallback) const
    {
        auto it = values_.find(key);
        if (it == values_.end())
            return fallback;
        std::optional<double> value = parseNumber(it->second);
        if (!value)
            fatal(program_, ": --", key, " expects a number, got '",
                  it->second, "'");
        return *value;
    }

  private:
    std::string program_;
    std::map<std::string, std::string> values_;
    std::string stray_;
};

} // namespace vn::tools

#endif // VN_TOOLS_ARGS_HH
