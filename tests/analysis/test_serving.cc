/**
 * @file
 * The droop-trace cache codec: a trace decodes bit for bit from its
 * KeyValueFile entry (directly and through the serialized text the
 * result cache stores), stray keys are ignored, and a missing sample
 * is fatal rather than a silently short trace.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "analysis/serving.hh"
#include "util/kvfile.hh"
#include "util/rng.hh"

namespace
{

using vn::DroopTrace;
using vn::KeyValueFile;

DroopTrace
sampleTrace(size_t n)
{
    vn::Rng rng(0xd200 + n);
    DroopTrace t;
    t.t0 = 1.2e-6;
    t.dt = 8e-9;
    for (size_t i = 0; i < n; ++i)
        t.v.push_back(1.05 + 0.03 * (rng.uniform() - 0.5));
    t.v_min = n == 0 ? 0.0 : 0.9876543210987654;
    t.v_max = n == 0 ? 0.0 : 1.0987654321098765;
    return t;
}

void
expectSameTrace(const DroopTrace &got, const DroopTrace &want)
{
    EXPECT_EQ(std::bit_cast<uint64_t>(got.t0),
              std::bit_cast<uint64_t>(want.t0));
    EXPECT_EQ(std::bit_cast<uint64_t>(got.dt),
              std::bit_cast<uint64_t>(want.dt));
    EXPECT_EQ(std::bit_cast<uint64_t>(got.v_min),
              std::bit_cast<uint64_t>(want.v_min));
    EXPECT_EQ(std::bit_cast<uint64_t>(got.v_max),
              std::bit_cast<uint64_t>(want.v_max));
    ASSERT_EQ(got.v.size(), want.v.size());
    for (size_t i = 0; i < want.v.size(); ++i)
        ASSERT_EQ(std::bit_cast<uint64_t>(got.v[i]),
                  std::bit_cast<uint64_t>(want.v[i]))
            << "sample " << i;
}

TEST(DroopTraceCodec, DecodeOfEncodeIsBitIdentical)
{
    for (size_t n : {size_t{0}, size_t{1}, size_t{60000}}) {
        SCOPED_TRACE(n);
        DroopTrace trace = sampleTrace(n);
        KeyValueFile kv;
        vn::encodeDroopTrace(trace, kv);
        EXPECT_EQ(kv.size(), 5 + n);
        expectSameTrace(vn::decodeDroopTrace(kv), trace);
        auto stored = KeyValueFile::tryParse(kv.serialize());
        ASSERT_TRUE(stored.has_value());
        expectSameTrace(vn::decodeDroopTrace(*stored), trace);
    }
}

TEST(DroopTraceCodec, SampleKeysAreSixDigitIndices)
{
    KeyValueFile kv;
    vn::encodeDroopTrace(sampleTrace(1001), kv);
    EXPECT_TRUE(kv.has("s.000000"));
    EXPECT_TRUE(kv.has("s.000009"));
    EXPECT_TRUE(kv.has("s.000010"));
    EXPECT_TRUE(kv.has("s.000999"));
    EXPECT_TRUE(kv.has("s.001000"));
    EXPECT_FALSE(kv.has("s.001001"));
}

TEST(DroopTraceCodec, StrayKeysAreIgnored)
{
    DroopTrace trace = sampleTrace(12);
    KeyValueFile kv;
    vn::encodeDroopTrace(trace, kv);
    // Keys that sort among, before and after the samples.
    kv.set("s.0000005", 9.0);
    kv.set("s.", 9.0);
    kv.set("s.00001", 9.0);
    kv.set("s.000012", 9.0);
    kv.set("r.000001", 9.0);
    kv.set("zz", 9.0);
    expectSameTrace(vn::decodeDroopTrace(kv), trace);
}

TEST(DroopTraceCodecDeathTest, MissingSampleIsFatal)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    KeyValueFile kv;
    vn::encodeDroopTrace(sampleTrace(3), kv);
    KeyValueFile gap;
    for (const auto &[key, value] : kv.values())
        if (key != "s.000001")
            gap.set(key, value);
    gap.set("s.0000015", 9.0); // a stray key where the sample was
    EXPECT_EXIT(vn::decodeDroopTrace(gap), ::testing::ExitedWithCode(1),
                "missing required key 's.000001'");
}

} // namespace
