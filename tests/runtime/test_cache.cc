/**
 * @file
 * Tests for the content-addressed result cache.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "runtime/cache.hh"

namespace
{

using namespace vn::runtime;

class CacheTest : public ::testing::Test
{
  protected:
    void SetUp() override { std::filesystem::remove_all(dir_); }
    void TearDown() override { std::filesystem::remove_all(dir_); }
    // One directory per test: ctest -j runs the cases of this fixture
    // as concurrent processes in the same working directory.
    std::string dir_ =
        std::string("result_cache_test_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
};

TEST_F(CacheTest, KeyDependsOnScopeKeyAndVersion)
{
    uint64_t base = ResultCache::keyFor("scope", "job");
    EXPECT_EQ(base, ResultCache::keyFor("scope", "job"));
    EXPECT_NE(base, ResultCache::keyFor("scope2", "job"));
    EXPECT_NE(base, ResultCache::keyFor("scope", "job2"));
    // Moving a character across the scope/key boundary must change
    // the address (the separator prevents concatenation collisions).
    EXPECT_NE(ResultCache::keyFor("ab", "c"),
              ResultCache::keyFor("a", "bc"));
}

TEST_F(CacheTest, StoreThenLoadRoundTrips)
{
    ResultCache cache(dir_);
    vn::KeyValueFile entry;
    entry.set("v_min", 1.0423567891234567);
    entry.set("p2p", 12.75);
    cache.store(42, entry);

    auto loaded = cache.load(42);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->require("v_min"), 1.0423567891234567);
    EXPECT_EQ(loaded->require("p2p"), 12.75);
    EXPECT_EQ(loaded->serialize(), entry.serialize());
}

TEST_F(CacheTest, MissingEntryIsAMiss)
{
    ResultCache cache(dir_);
    EXPECT_FALSE(cache.load(7).has_value());
}

TEST_F(CacheTest, StoreOverwritesAtomically)
{
    ResultCache cache(dir_);
    vn::KeyValueFile a, b;
    a.set("x", 1.0);
    b.set("x", 2.0);
    cache.store(9, a);
    cache.store(9, b);
    auto loaded = cache.load(9);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->require("x"), 2.0);
    // No leftover temporaries.
    size_t files = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir_)) {
        (void)e;
        ++files;
    }
    EXPECT_EQ(files, 1u);
}

TEST_F(CacheTest, CreatesDirectoryTree)
{
    std::string nested = dir_ + "/a/b";
    ResultCache cache(nested);
    vn::KeyValueFile entry;
    entry.set("x", 3.0);
    cache.store(1, entry);
    EXPECT_TRUE(cache.load(1).has_value());
}

} // namespace
