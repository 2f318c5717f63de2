/**
 * @file
 * Minimal key = value configuration file support.
 *
 * Format: one `key = number` pair per line; '#' starts a comment;
 * blank lines ignored. Keys are dotted paths ("pdn.c_l3"). Used to
 * persist chip configurations so experiments are reproducible outside
 * the compiled defaults, and as the payload of result-cache entries.
 *
 * Numbers are written as printf's %.17g would write them and read
 * with std::from_chars, falling back to std::stod's rule for a token
 * from_chars does not consume whole (a leading '+', hex floats). Every
 * double but a NaN, subnormals included, reads back bit for bit; a
 * NaN reads back as a NaN.
 */

#ifndef VN_UTIL_KVFILE_HH
#define VN_UTIL_KVFILE_HH

#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace vn
{

/** An ordered key -> number map with file round-tripping. */
class KeyValueFile
{
  public:
    KeyValueFile() = default;

    /** Parse a file; fatal() on malformed lines or missing file. */
    static KeyValueFile load(const std::string &path);

    /**
     * Parse a file; nullopt when the file is missing or malformed.
     * Used where an unreadable file is an expected condition (e.g. a
     * truncated cache entry) rather than a user error.
     */
    static std::optional<KeyValueFile> tryLoad(const std::string &path);

    /**
     * Parse serialized pairs already in memory; nullopt on malformed
     * text. The in-memory dual of tryLoad() — used by the result cache,
     * which reads and checksum-verifies a framed entry before handing
     * the payload here.
     */
    static std::optional<KeyValueFile> tryParse(std::string_view text);

    /** Write all pairs, sorted by key. */
    void save(const std::string &path,
              const std::string &header = "") const;

    /**
     * The exact text save() would write (minus the header), with
     * full-precision numbers: two KeyValueFiles serialize equal iff
     * they round-trip identically. Used for content fingerprinting.
     */
    std::string serialize() const;

    /** Set/overwrite a value. */
    void set(const std::string &key, double value);

    /** True when the key exists. */
    bool has(const std::string &key) const;

    /** Value for key, or `fallback` when absent. */
    double get(const std::string &key, double fallback) const;

    /** Value for key; fatal() when absent. */
    double require(const std::string &key) const;

    size_t size() const { return values_.size(); }

    const std::map<std::string, double> &values() const
    {
        return values_;
    }

  private:
    std::map<std::string, double> values_;
};

} // namespace vn

#endif // VN_UTIL_KVFILE_HH
