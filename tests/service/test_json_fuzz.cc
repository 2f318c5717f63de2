/**
 * @file
 * Seeded property tests of the wire JSON codec. Three properties the
 * protocol depends on:
 *
 *  1. Every finite IEEE double survives dump() -> parse() with the
 *     exact same bit pattern (%.17g round-trip) — the service promises
 *     bit-identical results over the wire.
 *  2. parse() on arbitrary mutated bytes either succeeds or throws
 *     JsonError; it never crashes, corrupts memory, or throws anything
 *     else. (The daemon feeds attacker-controlled frames into it.)
 *  3. The nesting-depth limit triggers exactly at the documented
 *     boundary: kMaxDepth levels parse, kMaxDepth + 1 throw.
 *  4. The bytes stay those of the original formatter and parser: a
 *     number dumps as printf's %.17g, and a number token parses to
 *     exactly what strtod makes of it (or throws, as it did).
 *  5. An object parses as set() builds it (a repeated key keeps its
 *     last value at its first position), in time linear in its member
 *     count, so a 1 MiB frame of distinct keys cannot pin a thread.
 *
 * Everything draws from vn::Rng with fixed seeds, so a failure
 * reproduces deterministically on every platform.
 */

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "service/json.hh"
#include "util/rng.hh"

namespace
{

using vn::Rng;
using vn::service::Json;
using vn::service::JsonError;

uint64_t
bitsOf(double v)
{
    return std::bit_cast<uint64_t>(v);
}

TEST(JsonFuzz, RandomDoublesRoundTripBitIdentically)
{
    // Hand-picked hazards first: signed zero, extremes of the normal
    // range, the smallest denormal, classic non-representable
    // fractions, and values the service actually ships.
    const double corners[] = {
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.1,
        1.0 / 3.0,
        2.4e6,
        6e-6,
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::epsilon(),
        -std::numeric_limits<double>::max(),
    };
    for (double v : corners) {
        Json parsed = Json::parse(Json::number(v).dump());
        EXPECT_EQ(bitsOf(parsed.asNumber()), bitsOf(v))
            << "corner value " << v;
    }

    // Uniformly random bit patterns cover every exponent, both signs,
    // and the denormal range; non-finite patterns are skipped (JSON
    // has no encoding for them and dump() is never handed one).
    Rng rng(0x5eedf00dull);
    int tested = 0;
    for (int i = 0; i < 20000; ++i) {
        double v = std::bit_cast<double>(rng.next());
        if (!std::isfinite(v))
            continue;
        ++tested;
        Json parsed = Json::parse(Json::number(v).dump());
        EXPECT_EQ(bitsOf(parsed.asNumber()), bitsOf(v))
            << "iteration " << i << ": " << Json::number(v).dump();
    }
    // ~2 in 1024 patterns are Inf/NaN; the sweep must not degenerate.
    EXPECT_GT(tested, 19000);
}

std::string
printf17g(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

TEST(JsonFuzz, NumbersDumpAsPrintf17g)
{
    // The wire bytes of a number are %.17g's, whatever formats them.
    const double corners[] = {
        0.0,
        -0.0,
        0.1,
        1.0 / 3.0,
        2.4e6,
        1e21,
        1e-7,
        123456789012345680.0,
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        1e-310,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
    };
    for (double v : corners)
        EXPECT_EQ(Json::number(v).dump(), printf17g(v)) << v;
    Rng rng(0x17917eull);
    for (int i = 0; i < 20000; ++i) {
        double v = std::bit_cast<double>(rng.next());
        ASSERT_EQ(Json::number(v).dump(), printf17g(v))
            << "iteration " << i;
    }
}

TEST(JsonFuzz, NumberTokensParseAsStrtod)
{
    // Tokens strtod has always decided: a leading '+', an underflow to
    // zero, bare fractions, leading zeros and negative zero.
    const char *tokens[] = {"+1", "1e-400", "-1e-400", ".5", "1.", "01",
                            "-0", "5e-324", "1e-310", "+0.25e+2"};
    for (const char *token : tokens) {
        Json parsed = Json::parse(token);
        EXPECT_EQ(bitsOf(parsed.asNumber()),
                  bitsOf(std::strtod(token, nullptr)))
            << token;
    }
    const char *rejected[] = {"1e400", "-1e400", "--1", "1-2", "1e",
                              "-",     "+",      ".",   "1.2.3"};
    for (const char *token : rejected)
        EXPECT_THROW(Json::parse(token), JsonError) << token;
}

TEST(JsonFuzz, StringsWithLongPlainRunsRoundTrip)
{
    // dump()/parse() copy escape-free runs whole; runs of every length
    // around each escape must come back byte for byte.
    std::string text;
    const char specials[] = {'"', '\\', '\n', '\x01', '\x1f', '/'};
    for (size_t run = 0; run < 40; ++run) {
        text.append(run, static_cast<char>('a' + run % 26));
        text.push_back(specials[run % sizeof(specials)]);
    }
    text.append("\xc3\xa9 tail");
    std::string dumped = Json::str(text).dump();
    EXPECT_EQ(Json::parse(dumped).asString(), text);
    EXPECT_NE(dumped.find("\\u0001"), std::string::npos);
    EXPECT_NE(dumped.find("\\u001f"), std::string::npos);
    EXPECT_THROW(Json::parse("\"abc\ndef\""), JsonError);
    EXPECT_THROW(Json::parse("\"abc"), JsonError);
}

/** A random document of bounded depth, scalars at the leaves. */
Json
randomDocument(Rng &rng, int depth)
{
    uint64_t pick = rng.below(depth >= 5 ? 4 : 6);
    switch (pick) {
    case 0:
        return Json();
    case 1:
        return Json::boolean(rng.below(2) == 0);
    case 2: {
        double v = std::bit_cast<double>(rng.next());
        return Json::number(std::isfinite(v) ? v : rng.uniform());
    }
    case 3: {
        // Printable bytes plus the characters dump() must escape.
        static const char alphabet[] =
            "abcXYZ 0123456789\"\\\n\t/{}[]:,";
        std::string s;
        for (uint64_t i = rng.below(12); i > 0; --i)
            s += alphabet[rng.below(sizeof(alphabet) - 1)];
        return Json::str(std::move(s));
    }
    case 4: {
        Json arr = Json::array();
        for (uint64_t i = rng.below(4); i > 0; --i)
            arr.push(randomDocument(rng, depth + 1));
        return arr;
    }
    default: {
        Json obj = Json::object();
        for (uint64_t i = rng.below(4); i > 0; --i)
            obj.set("k" + std::to_string(i),
                    randomDocument(rng, depth + 1));
        return obj;
    }
    }
}

TEST(JsonFuzz, RandomDocumentsRoundTripThroughDump)
{
    Rng rng(0xd0c5eedull);
    for (int i = 0; i < 500; ++i) {
        Json doc = randomDocument(rng, 0);
        std::string once = doc.dump();
        std::string twice = Json::parse(once).dump();
        EXPECT_EQ(once, twice) << "iteration " << i;
    }
}

TEST(JsonFuzz, RandomMutationsNeverCrash)
{
    // Seeds shaped like real traffic: a request envelope, a stats-ish
    // reply, deep nesting near the limit, and escape-heavy strings.
    const std::string seeds[] = {
        "{\"id\":7,\"verb\":\"sweep\",\"params\":{\"freq_hz\":2.4e6,"
        "\"synchronized\":true},\"deadline_ms\":2000}",
        "{\"ok\":true,\"result\":{\"p2p\":[0.01,0.02,0.03],"
        "\"v_min\":[-0.5,1e308,5e-324],\"failed\":false}}",
        "[[[[[[[[[[{\"a\":[null,true,\"x\"]}]]]]]]]]]]",
        "{\"s\":\"a\\\"b\\\\c\\n\\t\\u0041d\",\"t\":\"\"}",
    };

    Rng rng(0xf0220b17e5ull);
    int parsed_ok = 0, rejected = 0;
    for (int i = 0; i < 8000; ++i) {
        std::string bytes = seeds[rng.below(std::size(seeds))];
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
        try {
            Json value = Json::parse(bytes);
            (void)value.dump(); // the parsed value must be usable
            ++parsed_ok;
        } catch (const JsonError &) {
            ++rejected; // the one and only acceptable failure mode
        }
    }
    // The mutator must actually exercise both outcomes.
    EXPECT_GT(rejected, 0);
    EXPECT_GT(parsed_ok + rejected, 7999);
}

/** `{"k":v,...}` text of the (key, value) pairs, in order. */
std::string
objectText(const std::vector<std::pair<std::string, int>> &members)
{
    std::string text = "{";
    for (const auto &[key, value] : members) {
        if (text.size() > 1)
            text.push_back(',');
        text += "\"" + key + "\":" + std::to_string(value);
    }
    return text + "}";
}

TEST(JsonFuzz, RepeatedKeysKeepLastValueAtFirstPosition)
{
    const std::pair<const char *, const char *> table[] = {
        {"{\"a\":1,\"b\":2,\"a\":3}", "{\"a\":3,\"b\":2}"},
        {"{\"a\":1,\"a\":2,\"a\":3}", "{\"a\":3}"},
        {"{\"b\":1,\"a\":2,\"b\":3,\"c\":4,\"a\":5}",
         "{\"b\":3,\"a\":5,\"c\":4}"},
        {"{\"a\":{\"x\":1},\"a\":{\"y\":2}}", "{\"a\":{\"y\":2}}"},
        {"{\"a\":1,\"\\u0061\":2}", "{\"a\":2}"},
        {"{\"\":1,\"\":[2]}", "{\"\":[2]}"},
    };
    for (const auto &[text, want] : table)
        EXPECT_EQ(Json::parse(text).dump(), want) << text;

    // Objects on both sides of any short-object shortcut, keys drawn
    // from a small alphabet so repeats are common: parse() must build
    // exactly what set() builds from the same members in order.
    Rng rng(0x5e7d0c5ull);
    for (int i = 0; i < 400; ++i) {
        const uint64_t count = rng.below(400);
        const uint64_t distinct = 1 + rng.below(300);
        std::vector<std::pair<std::string, int>> members;
        Json want = Json::object();
        for (uint64_t m = 0; m < count; ++m) {
            std::string key = "k" + std::to_string(rng.below(distinct));
            const int value = static_cast<int>(m);
            want.set(key, Json::number(value));
            members.emplace_back(std::move(key), value);
        }
        EXPECT_EQ(Json::parse(objectText(members)).dump(), want.dump())
            << "object " << i;
    }
}

TEST(JsonFuzz, MegabyteObjectParsesInLinearTime)
{
    // Just under the 1 MiB frame cap: ~96k distinct members. A parser
    // that scans every earlier member per key needs seconds for this.
    std::vector<std::pair<std::string, int>> members;
    size_t bytes = 2;
    while (bytes < (1u << 20) - 16) {
        std::string key = "k" + std::to_string(members.size());
        bytes += key.size() + 5;
        members.emplace_back(std::move(key), 0);
    }
    const std::string text = objectText(members);
    ASSERT_LT(text.size(), 1u << 20);

    const auto t0 = std::chrono::steady_clock::now();
    const Json doc = Json::parse(text);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    ASSERT_EQ(doc.size(), members.size());
    EXPECT_EQ(doc.members().front().first, "k0");
    EXPECT_EQ(doc.members().back().first, members.back().first);
    EXPECT_TRUE(doc.has(members[members.size() / 2].first));
    // ~20 ms in an optimized build and ~0.6 s under TSan (~0.15 s
    // under ASan) on a shared 4-vCPU x86-64 machine, where a parser
    // that scans every earlier member per key took 16-20 s.
    EXPECT_LT(seconds, 1.5) << members.size() << " members";
}

/** `depth` nested arrays, the innermost empty: depth == container
 *  nesting level of the document (a leaf would add one more). */
std::string
nestedArrays(int depth)
{
    return std::string(static_cast<size_t>(depth), '[') +
           std::string(static_cast<size_t>(depth), ']');
}

std::string
nestedObjects(int depth)
{
    std::string text;
    for (int i = 1; i < depth; ++i)
        text += "{\"k\":";
    text += "{}";
    text += std::string(static_cast<size_t>(depth) - 1, '}');
    return text;
}

TEST(JsonFuzz, DepthLimitEnforcedExactlyAtBoundary)
{
    // kMaxDepth levels are legal...
    Json deep_arrays = Json::parse(nestedArrays(Json::kMaxDepth));
    EXPECT_TRUE(deep_arrays.isArray());
    Json deep_objects = Json::parse(nestedObjects(Json::kMaxDepth));
    EXPECT_TRUE(deep_objects.isObject());
    // ...and what parse() accepted, dump() reproduces.
    EXPECT_EQ(Json::parse(deep_arrays.dump()).dump(),
              deep_arrays.dump());

    // ...one more is not, whatever the container type.
    EXPECT_THROW(Json::parse(nestedArrays(Json::kMaxDepth + 1)),
                 JsonError);
    EXPECT_THROW(Json::parse(nestedObjects(Json::kMaxDepth + 1)),
                 JsonError);
    try {
        Json::parse(nestedArrays(Json::kMaxDepth + 1));
        FAIL() << "depth " << Json::kMaxDepth + 1 << " must throw";
    } catch (const JsonError &e) {
        EXPECT_STREQ(e.what(), "nesting too deep");
    }

    // Far past the limit must still be a clean throw, not a stack
    // overflow — this is the hostile-payload case the limit exists for.
    EXPECT_THROW(Json::parse(nestedArrays(100000)), JsonError);
}

} // namespace
