/**
 * @file
 * KeyValueFile text format: the bytes serialize() writes, what the
 * parser accepts, and what it reads back. Result-cache entries and
 * campaign scopes are serialize() output, so a changed byte would
 * orphan every cached result; the accepted set is pinned against a
 * test-local copy of the istream + std::stod reader the format was
 * first defined by.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "util/kvfile.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace
{

using vn::KeyValueFile;
using vn::Rng;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

const double kCorners[] = {
    0.0,
    -0.0,
    kInf,
    -kInf,
    kNan,
    -kNan,
    std::numeric_limits<double>::denorm_min(),
    -std::numeric_limits<double>::denorm_min(),
    1e-310,
    std::numeric_limits<double>::min(),
    std::numeric_limits<double>::max(),
    -std::numeric_limits<double>::max(),
    0.1,
    1.0 / 3.0,
    1.0,
    2.4e6,
    1.0423567891234567,
};

/** Corners plus `count` seeded random bit patterns (any class). */
std::vector<double>
sampleValues(int count)
{
    std::vector<double> values(std::begin(kCorners), std::end(kCorners));
    Rng rng(0x6b7666696c65ull);
    for (int i = 0; i < count; ++i)
        values.push_back(std::bit_cast<double>(rng.next()));
    return values;
}

std::string
keyOf(size_t i)
{
    char key[24];
    std::snprintf(key, sizeof(key), "v.%06zu", i);
    return key;
}

bool
sameValue(double a, double b)
{
    if (std::isnan(a) || std::isnan(b))
        return std::isnan(a) && std::isnan(b);
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// ---------------------------------------------------------------------
// The reference reader: line by line through an istream, std::stod for
// numbers. Kept here, not in the library, as the oracle of the format.
// ---------------------------------------------------------------------

std::string
oracleTrim(const std::string &s)
{
    size_t begin = 0;
    size_t end = s.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(s[begin])))
        ++begin;
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(s[end - 1])))
        --end;
    return s.substr(begin, end - begin);
}

/** std::stod's rule: the whole token, no range error. */
std::optional<double>
oracleNumber(const std::string &token)
{
    try {
        size_t consumed = 0;
        double value = std::stod(token, &consumed);
        if (consumed == token.size())
            return value;
    } catch (const std::exception &) {
    }
    return std::nullopt;
}

std::optional<std::map<std::string, double>>
oracleParse(const std::string &text, const std::string &path,
            std::string &error)
{
    std::map<std::string, double> values;
    std::istringstream in(text);
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = oracleTrim(line);
        if (line.empty())
            continue;
        auto eq = line.find('=');
        if (eq == std::string::npos) {
            error = "'" + path + "' line " + std::to_string(line_no) +
                    ": expected 'key = value'";
            return std::nullopt;
        }
        std::string key = oracleTrim(line.substr(0, eq));
        std::string value_text = oracleTrim(line.substr(eq + 1));
        if (key.empty() || value_text.empty()) {
            error = "'" + path + "' line " + std::to_string(line_no) +
                    ": empty key or value";
            return std::nullopt;
        }
        std::optional<double> value = oracleNumber(value_text);
        if (!value) {
            error = "'" + path + "' line " + std::to_string(line_no) +
                    ": cannot parse number '" + value_text + "'";
            return std::nullopt;
        }
        values[key] = *value;
    }
    return values;
}

std::string
oracleSerialize(const std::map<std::string, double> &values)
{
    std::ostringstream oss;
    oss.precision(17);
    for (const auto &[key, value] : values)
        oss << key << " = " << value << "\n";
    return oss.str();
}

/** A subnormal token: the one class the reference reader refused. */
bool
isSubnormalToken(const std::string &token)
{
    double v = std::strtod(token.c_str(), nullptr);
    return std::fpclassify(v) == FP_SUBNORMAL;
}

// ---------------------------------------------------------------------

TEST(KvFile, SerializeMatchesOstreamAtPrecision17)
{
    std::vector<double> values = sampleValues(20000);
    KeyValueFile kv;
    std::map<std::string, double> reference;
    for (size_t i = 0; i < values.size(); ++i) {
        kv.set(keyOf(i), values[i]);
        reference[keyOf(i)] = values[i];
    }
    std::string text = kv.serialize();
    EXPECT_EQ(text, oracleSerialize(reference));
    EXPECT_NE(text.find(" = -0\n"), std::string::npos);
    EXPECT_NE(text.find(" = -inf\n"), std::string::npos);
    EXPECT_NE(text.find(" = 4.9406564584124654e-324\n"),
              std::string::npos);
}

TEST(KvFile, SerializedTextReadsBackBitIdentically)
{
    std::vector<double> values = sampleValues(20000);
    KeyValueFile kv;
    for (size_t i = 0; i < values.size(); ++i)
        kv.set(keyOf(i), values[i]);
    auto back = KeyValueFile::tryParse(kv.serialize());
    ASSERT_TRUE(back.has_value());
    ASSERT_EQ(back->size(), values.size());
    for (size_t i = 0; i < values.size(); ++i)
        EXPECT_TRUE(sameValue(back->require(keyOf(i)), values[i]))
            << keyOf(i) << ": " << values[i];
    EXPECT_EQ(back->serialize(), kv.serialize());
}

TEST(KvFile, SubnormalsReadBack)
{
    // %.17g writes 1e-310 as 9.9999999999999694e-311; std::stod flags
    // the underflow as out_of_range, so the reference reader refused
    // text this class wrote itself.
    const double subnormals[] = {
        1e-310, std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min()};
    for (double v : subnormals) {
        KeyValueFile kv;
        kv.set("x", v);
        auto back = KeyValueFile::tryParse(kv.serialize());
        ASSERT_TRUE(back.has_value()) << kv.serialize();
        EXPECT_EQ(std::bit_cast<uint64_t>(back->require("x")),
                  std::bit_cast<uint64_t>(v));
    }
}

TEST(KvFile, NumberTokensAcceptWhatStodAccepts)
{
    const char *tokens[] = {
        "0",          "-0",       "1",         "+1",       "-1.5e-3",
        "1.",         ".5",       "01",        "1e5",      "1E+05",
        "0x1p3",      "-0x1.8p1", "0x",        "inf",      "-inf",
        "Infinity",   "nan",      "-nan",      "NaN(123)", "1e400",
        "-1e400",     "1e-400",   "1.5x",      "1e",       "1e+",
        "-",          "+",        ".",         "--1",      "1-2",
        "1 2",        "e5",       "0.1.2",     "1,5",      "1e-310",
        "4.9406564584124654e-324", "2.2250738585072014e-308",
        "1.7976931348623157e308",  "1.7976931348623159e308",
        "123456789012345678901234567890",
    };
    for (const char *token : tokens) {
        std::string text = std::string("x = ") + token + "\n";
        auto got = KeyValueFile::tryParse(text);
        std::optional<double> want = oracleNumber(token);
        if (isSubnormalToken(token)) {
            // The only intended difference: subnormals now read.
            EXPECT_FALSE(want.has_value()) << token;
            ASSERT_TRUE(got.has_value()) << token;
            EXPECT_TRUE(sameValue(
                got->require("x"), std::strtod(token, nullptr)))
                << token;
            continue;
        }
        ASSERT_EQ(got.has_value(), want.has_value()) << token;
        if (want) {
            EXPECT_TRUE(sameValue(got->require("x"), *want)) << token;
        }
    }
}

TEST(KvFile, DocumentsParseAsTheReferenceReader)
{
    const std::string documents[] = {
        "",
        "\n\n",
        "a = 1\nb = 2\n",
        "a = 1\nb = 2", // no final newline
        "# header only\n",
        "# cfg\n\n  a = 1  # trailing comment\n\t b\t=\t2 \n",
        "a = 1\r\nb = 2\r\n",          // CRLF
        "dup = 1\nother = 3\ndup = 2\n", // last wins
        "z = 1\na = 2\nm = 3\n",        // unsorted input
        "key with spaces = 4\n",
        "a.b.c=5\n",
        "x = 1 = 2\n",
        "a = 1\nnot a pair\n",
        "a = 1\n = 2\n",
        "a = \n",
        "a = 1\n\nb = two\n",
        "a = 1\nb = 1e400\n",
        "#x = 1\n=\n",
        "a = 0x1p3\nb = +1\nc = -nan\nd = inf\n",
        std::string("a = 1\0\n", 7),
        "\v a = 1 \f\n",
    };
    bool was_throwing = vn::setThrowOnError(true);
    const std::string path = "kvfile_test_document.cfg";
    for (const std::string &doc : documents) {
        std::string want_error;
        auto want = oracleParse(doc, "<memory>", want_error);
        auto got = KeyValueFile::tryParse(doc);
        ASSERT_EQ(got.has_value(), want.has_value()) << doc;
        if (want) {
            ASSERT_EQ(got->size(), want->size()) << doc;
            for (const auto &[key, value] : *want)
                EXPECT_TRUE(sameValue(got->require(key), value))
                    << doc << " key " << key;
            continue;
        }
        // load() reports the same line and reason as the reference.
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out << doc;
        }
        std::string file_error;
        ASSERT_FALSE(oracleParse(doc, path, file_error).has_value());
        try {
            KeyValueFile::load(path);
            ADD_FAILURE() << "load() accepted " << doc;
        } catch (const vn::FatalError &e) {
            // what() is a C string: it ends at a NUL in the line.
            std::string what = e.what();
            std::string suffix = ("KeyValueFile: " + file_error).c_str();
            ASSERT_GE(what.size(), suffix.size());
            EXPECT_EQ(what.substr(what.size() - suffix.size()), suffix);
        }
        EXPECT_FALSE(KeyValueFile::tryLoad(path).has_value());
    }
    std::filesystem::remove(path);
    try {
        KeyValueFile::load("no_such_kvfile.cfg");
        ADD_FAILURE() << "load() of a missing file returned";
    } catch (const vn::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "cannot open 'no_such_kvfile.cfg'"),
                  std::string::npos);
    }
    EXPECT_FALSE(KeyValueFile::tryLoad("no_such_kvfile.cfg").has_value());
    vn::setThrowOnError(was_throwing);
}

TEST(KvFile, FileRoundTripKeepsTheHeaderOut)
{
    KeyValueFile kv;
    kv.set("pdn.c_l3", 1.25e-6);
    kv.set("a", -0.0);
    const std::string path = "kvfile_test_roundtrip.cfg";
    kv.save(path, "chip configuration");
    auto back = KeyValueFile::tryLoad(path);
    std::filesystem::remove(path);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->serialize(), kv.serialize());
}

/** Text shaped like a cached droop trace: scalars plus s.NNNNNN. */
std::string
traceEntryText(size_t samples)
{
    KeyValueFile kv;
    Rng rng(0x7ace);
    kv.set("t0", 1.2e-6);
    kv.set("dt", 8e-9);
    kv.set("v_min", 1.0123456789012345);
    kv.set("v_max", 1.0876543210987654);
    kv.set("n", static_cast<double>(samples));
    char key[24];
    for (size_t i = 0; i < samples; ++i) {
        std::snprintf(key, sizeof(key), "s.%06zu", i);
        kv.set(key, 1.05 + 0.03 * (rng.uniform() - 0.5));
    }
    return "# vnoise cache entry\n" + kv.serialize();
}

TEST(KvFile, RandomMutationsNeverCrash)
{
    const std::string seed = traceEntryText(48);
    Rng rng(0x6b76f022ull);
    int parsed_ok = 0, rejected = 0;
    for (int i = 0; i < 8000; ++i) {
        std::string bytes = seed;
        for (uint64_t m = 1 + rng.below(8); m > 0 && !bytes.empty();
             --m) {
            size_t at = rng.below(bytes.size());
            switch (rng.below(4)) {
            case 0: // flip to an arbitrary byte (NULs included)
                bytes[at] = static_cast<char>(rng.below(256));
                break;
            case 1: // delete
                bytes.erase(at, 1);
                break;
            case 2: // duplicate-insert
                bytes.insert(at, 1, bytes[at]);
                break;
            default: // truncate
                bytes.resize(at);
                break;
            }
        }
        auto kv = KeyValueFile::tryParse(bytes);
        if (!kv) {
            ++rejected;
            continue;
        }
        ++parsed_ok;
        // What was accepted is a fixed point of serialize/parse.
        auto again = KeyValueFile::tryParse(kv->serialize());
        ASSERT_TRUE(again.has_value()) << "iteration " << i;
        EXPECT_EQ(again->serialize(), kv->serialize())
            << "iteration " << i;
    }
    EXPECT_GT(parsed_ok, 0);
    EXPECT_GT(rejected, 0);
}

} // namespace
