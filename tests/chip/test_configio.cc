/**
 * @file
 * KeyValueFile and ChipConfig persistence tests.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "chip/configio.hh"
#include "util/kvfile.hh"
#include "util/logging.hh"

namespace
{

/** Temp file helper removed on scope exit. */
class TempFile
{
  public:
    explicit TempFile(const std::string &name)
        : path_("vnoise_test_" + name)
    {}
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

TEST(KeyValueFileTest, RoundTrip)
{
    TempFile tmp("kv_roundtrip.cfg");
    vn::KeyValueFile kv;
    kv.set("a.b", 1.5);
    kv.set("c", -2e-9);
    kv.save(tmp.path(), "test header");

    auto loaded = vn::KeyValueFile::load(tmp.path());
    EXPECT_EQ(loaded.size(), 2u);
    EXPECT_DOUBLE_EQ(loaded.require("a.b"), 1.5);
    EXPECT_DOUBLE_EQ(loaded.require("c"), -2e-9);
}

TEST(KeyValueFileTest, CommentsAndBlanksIgnored)
{
    TempFile tmp("kv_comments.cfg");
    {
        std::ofstream ofs(tmp.path());
        ofs << "# full comment line\n\n  x = 3 # trailing comment\n";
    }
    auto kv = vn::KeyValueFile::load(tmp.path());
    EXPECT_EQ(kv.size(), 1u);
    EXPECT_DOUBLE_EQ(kv.require("x"), 3.0);
}

TEST(KeyValueFileTest, GetWithFallback)
{
    vn::KeyValueFile kv;
    kv.set("present", 7.0);
    EXPECT_DOUBLE_EQ(kv.get("present", 1.0), 7.0);
    EXPECT_DOUBLE_EQ(kv.get("absent", 1.0), 1.0);
    EXPECT_TRUE(kv.has("present"));
    EXPECT_FALSE(kv.has("absent"));
}

TEST(KeyValueFileTest, MalformedLinesAreFatal)
{
    bool prev = vn::setThrowOnError(true);
    TempFile tmp("kv_bad.cfg");
    {
        std::ofstream ofs(tmp.path());
        ofs << "not a pair\n";
    }
    EXPECT_THROW(vn::KeyValueFile::load(tmp.path()), vn::FatalError);
    {
        std::ofstream ofs(tmp.path());
        ofs << "x = not_a_number\n";
    }
    EXPECT_THROW(vn::KeyValueFile::load(tmp.path()), vn::FatalError);
    EXPECT_THROW(vn::KeyValueFile::load("no_such_file.cfg"),
                 vn::FatalError);
    vn::setThrowOnError(prev);
}

TEST(ConfigIoTest, FullRoundTrip)
{
    TempFile tmp("chip_roundtrip.cfg");
    vn::ChipConfig original;
    original.pdn.c_l3 = 12.5e-6;
    original.power_unit_amps = 17.0;
    original.skitter.gain = 2.75;
    original.critpath.nominal_path_fraction = 0.66;
    original.core.rob_size = 48;
    original.variation.core[2].power_scale = 1.111;

    vn::saveChipConfig(original, tmp.path());
    auto loaded = vn::loadChipConfig(tmp.path());

    EXPECT_DOUBLE_EQ(loaded.pdn.c_l3, 12.5e-6);
    EXPECT_DOUBLE_EQ(loaded.power_unit_amps, 17.0);
    EXPECT_DOUBLE_EQ(loaded.skitter.gain, 2.75);
    EXPECT_DOUBLE_EQ(loaded.critpath.nominal_path_fraction, 0.66);
    EXPECT_EQ(loaded.core.rob_size, 48);
    EXPECT_DOUBLE_EQ(loaded.variation.core[2].power_scale, 1.111);
    // Untouched defaults survive.
    EXPECT_DOUBLE_EQ(loaded.pdn.r_rail, vn::PdnConfig{}.r_rail);
}

TEST(ConfigIoTest, PartialFileOverridesOnlyListedKeys)
{
    TempFile tmp("chip_partial.cfg");
    {
        std::ofstream ofs(tmp.path());
        ofs << "pdn.c_l3 = 4e-6\n";
    }
    auto loaded = vn::loadChipConfig(tmp.path());
    EXPECT_DOUBLE_EQ(loaded.pdn.c_l3, 4e-6);
    EXPECT_DOUBLE_EQ(loaded.pdn.vnom, vn::PdnConfig{}.vnom);
    EXPECT_DOUBLE_EQ(loaded.power_unit_amps,
                     vn::ChipConfig{}.power_unit_amps);
}

TEST(ConfigIoTest, NonFiniteValueIsFatal)
{
    // KeyValueFile parses "nan" and "inf"; no chip field can take them.
    bool prev = vn::setThrowOnError(true);
    for (const char *line : {"pdn.r_mb = nan\n", "chip.dt = inf\n",
                             "variation.core3.decap_scale = -inf\n"}) {
        SCOPED_TRACE(line);
        TempFile tmp("chip_nonfinite.cfg");
        {
            std::ofstream ofs(tmp.path());
            ofs << line;
        }
        EXPECT_THROW(vn::loadChipConfig(tmp.path()), vn::FatalError);
    }
    vn::setThrowOnError(prev);
}

TEST(ConfigIoTest, LoadedConfigBuildsAWorkingChip)
{
    TempFile tmp("chip_usable.cfg");
    vn::ChipConfig original;
    original.bias = 0.02;
    vn::saveChipConfig(original, tmp.path());
    auto loaded = vn::loadChipConfig(tmp.path());
    vn::ChipModel chip(loaded);
    EXPECT_NEAR(chip.supplyVoltage(), 1.05 * 0.98, 1e-9);
    auto r = chip.run({chip.idleActivity(), chip.idleActivity(),
                       chip.idleActivity(), chip.idleActivity(),
                       chip.idleActivity(), chip.idleActivity()},
                      2e-6);
    EXPECT_FALSE(r.failed);
}

} // namespace
