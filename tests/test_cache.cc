/**
 * @file
 * Unit tests for the set-associative cache simulator.
 */

#include <gtest/gtest.h>

#include "sim/cache.hh"

using namespace mprobe;

namespace
{

CacheGeometry
smallGeom()
{
    // 8 sets x 4 ways x 64 B lines = 2 KB.
    return {2048, 4, 64};
}

} // namespace

TEST(CacheGeometry, SetsComputed)
{
    EXPECT_EQ(smallGeom().sets(), 8u);
    CacheGeometry p7{32 * 1024, 8, 128};
    EXPECT_EQ(p7.sets(), 32u);
}

TEST(CacheLevel, MissThenHit)
{
    CacheLevel c(smallGeom());
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000 + 63)); // same line
    EXPECT_FALSE(c.access(0x1000 + 64)); // next line
}

TEST(CacheLevel, ProbeDoesNotFill)
{
    CacheLevel c(smallGeom());
    EXPECT_FALSE(c.probe(0x2000));
    EXPECT_FALSE(c.access(0x2000));
    EXPECT_TRUE(c.probe(0x2000));
}

TEST(CacheLevel, SetIndexExtraction)
{
    CacheLevel c(smallGeom());
    // 64 B lines, 8 sets: set bits are addr[8:6].
    EXPECT_EQ(c.setIndex(0), 0u);
    EXPECT_EQ(c.setIndex(64), 1u);
    EXPECT_EQ(c.setIndex(64 * 8), 0u);
}

TEST(CacheLevel, LruEvictsOldest)
{
    CacheLevel c(smallGeom());
    // 4-way set 0: fill with lines A..D, touch A, insert E ->
    // eviction must hit B (the least recently used).
    uint64_t stride = 64 * 8; // same set
    uint64_t a = 0, b = stride, d3 = 2 * stride, d4 = 3 * stride;
    uint64_t e = 4 * stride;
    c.access(a);
    c.access(b);
    c.access(d3);
    c.access(d4);
    EXPECT_TRUE(c.access(a)); // refresh A
    EXPECT_FALSE(c.access(e)); // evicts B
    EXPECT_TRUE(c.probe(a));
    EXPECT_FALSE(c.probe(b));
    EXPECT_TRUE(c.probe(d3));
    EXPECT_TRUE(c.probe(d4));
    EXPECT_TRUE(c.probe(e));
}

TEST(CacheLevel, MoreLinesThanWaysAlwaysMiss)
{
    CacheLevel c(smallGeom());
    uint64_t stride = 64 * 8;
    // 5 lines in a 4-way set accessed round-robin: steady state
    // is all misses.
    for (int warm = 0; warm < 2; ++warm)
        for (uint64_t i = 0; i < 5; ++i)
            c.access(i * stride);
    for (int it = 0; it < 10; ++it)
        for (uint64_t i = 0; i < 5; ++i)
            EXPECT_FALSE(c.access(i * stride));
}

TEST(CacheLevel, AtMostWaysAlwaysHit)
{
    CacheLevel c(smallGeom());
    uint64_t stride = 64 * 8;
    for (uint64_t i = 0; i < 4; ++i)
        c.access(i * stride);
    for (int it = 0; it < 10; ++it)
        for (uint64_t i = 0; i < 4; ++i)
            EXPECT_TRUE(c.access(i * stride));
}

TEST(CacheLevel, ResetInvalidates)
{
    CacheLevel c(smallGeom());
    c.access(0x40);
    EXPECT_TRUE(c.probe(0x40));
    c.reset();
    EXPECT_FALSE(c.probe(0x40));
}

TEST(CacheLevel, ResetPicksVictimsLikeAFreshLevel)
{
    // A filled-then-reset level must behave like a new one: no
    // stale line hits, an invalid way wins the victim scan over
    // every valid way, and LRU order restarts. 64 lines over the 8
    // sets (8 per 4-way set) evict constantly; comparing the
    // resident set after every access compares every victim.
    uint64_t state = 12345;
    auto next_addr = [&state] {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return (state >> 33) % 64 * 64;
    };
    CacheLevel used(smallGeom());
    for (int i = 0; i < 1000; ++i)
        used.access(next_addr());
    used.reset();
    CacheLevel fresh(smallGeom());
    for (int i = 0; i < 2000; ++i) {
        uint64_t addr = next_addr();
        ASSERT_EQ(used.access(addr), fresh.access(addr)) << "access " << i;
        for (uint64_t line = 0; line < 64; ++line)
            ASSERT_EQ(used.probe(line * 64), fresh.probe(line * 64))
                << "line " << line << " after access " << i;
    }
}

TEST(CacheLevelDeath, BadGeometryFatal)
{
    CacheGeometry g{1000, 3, 64}; // not consistent
    EXPECT_EXIT(CacheLevel c(g), testing::ExitedWithCode(1),
                "inconsistent cache geometry");
}

TEST(CacheHierarchy, P7GeometryShape)
{
    auto g = CacheHierarchy::p7Geometry();
    ASSERT_EQ(g.size(), 3u);
    EXPECT_EQ(g[0].sets(), 32u);
    EXPECT_EQ(g[1].sets(), 256u);
    EXPECT_EQ(g[2].sets(), 4096u);
}

TEST(CacheHierarchy, InclusiveFills)
{
    CacheHierarchy h(CacheHierarchy::p7Geometry(), false);
    EXPECT_EQ(h.access(0x100000), HitLevel::Mem);
    // Now resident everywhere.
    EXPECT_TRUE(h.level(0).probe(0x100000));
    EXPECT_TRUE(h.level(1).probe(0x100000));
    EXPECT_TRUE(h.level(2).probe(0x100000));
    EXPECT_EQ(h.access(0x100000), HitLevel::L1);
}

TEST(CacheHierarchy, ServedByOuterLevelAfterL1Eviction)
{
    CacheHierarchy h(CacheHierarchy::p7Geometry(), false);
    // 9 lines aliasing in one L1 set (32-set L1, 128 B lines:
    // stride 32*128) but distinct L2 sets would need different
    // bits; use the full L2-aliasing stride (256 sets * 128) so
    // both L1 and L2 alias, then expect L3 service.
    uint64_t l1_stride = 32ull * 128;
    for (int r = 0; r < 3; ++r)
        for (uint64_t i = 0; i < 9; ++i)
            h.access(i * 256ull * 128 + 0);
    (void)l1_stride;
    // 9 lines in one L2 set (and one L1 set): L1 and L2 miss,
    // L3 hit in steady state.
    for (uint64_t i = 0; i < 9; ++i)
        EXPECT_EQ(h.access(i * 256ull * 128), HitLevel::L3);
}

TEST(CacheHierarchy, PrefetcherDetectsSequentialStream)
{
    CacheHierarchy h(CacheHierarchy::p7Geometry(), true);
    // Sequential line walk: after two consecutive misses the
    // next-line prefetcher starts filling ahead.
    int mem_hits = 0;
    for (uint64_t i = 0; i < 64; ++i)
        mem_hits += h.access(0x40000000ull + i * 128) ==
                    HitLevel::Mem;
    EXPECT_GT(h.prefetchFills(), 30u);
    EXPECT_LT(mem_hits, 40);
}

TEST(CacheHierarchy, PrefetcherOffMissesEverything)
{
    CacheHierarchy h(CacheHierarchy::p7Geometry(), false);
    int mem_hits = 0;
    for (uint64_t i = 0; i < 64; ++i)
        mem_hits += h.access(0x40000000ull + i * 128) ==
                    HitLevel::Mem;
    EXPECT_EQ(mem_hits, 64);
    EXPECT_EQ(h.prefetchFills(), 0u);
}

TEST(CacheHierarchy, ResetClearsEverything)
{
    CacheHierarchy h(CacheHierarchy::p7Geometry(), true);
    h.access(0x1234500);
    h.reset();
    EXPECT_FALSE(h.level(0).probe(0x1234500));
    EXPECT_FALSE(h.level(2).probe(0x1234500));
    EXPECT_EQ(h.prefetchFills(), 0u);
}

TEST(CacheHierarchyDeath, NeedsThreeLevels)
{
    std::vector<CacheGeometry> g = {smallGeom()};
    EXPECT_EXIT(CacheHierarchy h(g), testing::ExitedWithCode(1),
                "3 levels");
}

// Property sweep: with K lines round-robin in one set of every
// level, steady-state service level is determined by K alone.
class AliasSweep : public testing::TestWithParam<int>
{
};

TEST_P(AliasSweep, SteadyStateLevelByLineCount)
{
    int k = GetParam();
    CacheHierarchy h(CacheHierarchy::p7Geometry(), false);
    // Stride aliasing every level: L3 has 4096 sets * 128 B lines.
    uint64_t stride = 4096ull * 128;
    for (int warm = 0; warm < 3; ++warm)
        for (int i = 0; i < k; ++i)
            h.access(static_cast<uint64_t>(i) * stride);
    HitLevel expect =
        k <= 8 ? HitLevel::L1 : HitLevel::Mem;
    for (int i = 0; i < k; ++i)
        EXPECT_EQ(h.access(static_cast<uint64_t>(i) * stride),
                  expect)
            << "k=" << k << " i=" << i;
}

INSTANTIATE_TEST_SUITE_P(LineCounts, AliasSweep,
                         testing::Values(1, 2, 4, 8, 9, 12, 16));
