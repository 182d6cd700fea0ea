/**
 * @file
 * Unit tests for the set-associative cache simulator, and
 * differential tests that drive the same address traces through it
 * and through the frozen reference hierarchy (reference_cache.hh).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "reference_cache.hh"
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

TEST(CacheHierarchy, StartUpPrefetchFiresOnLineZeroOnly)
{
    // The prefetcher starts with no last line (~0ull), and ~0ull + 1
    // wraps to line 0: a first access to line 0 looks like the
    // second of two consecutive lines and fills line 1. A first
    // access anywhere else fills nothing. A reset restores the same
    // start (docs/MODEL.md, "Known limitations").
    CacheHierarchy zero(CacheHierarchy::p7Geometry(), true);
    CacheHierarchy other(CacheHierarchy::p7Geometry(), true);
    for (const char *start : {"fresh", "reset"}) {
        SCOPED_TRACE(start);
        EXPECT_EQ(zero.access(0), HitLevel::Mem);
        EXPECT_EQ(zero.prefetchFills(), 1u);
        EXPECT_TRUE(zero.level(0).probe(128));
        EXPECT_EQ(other.access(128), HitLevel::Mem);
        EXPECT_EQ(other.prefetchFills(), 0u);
        EXPECT_FALSE(other.level(0).probe(256));
        zero.reset();
        other.reset();
    }
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

// ----------------------------------------------------------------
// Differential tests: the cache model against the reference
// hierarchy, access by access, with resets mid-trace.

namespace
{

/** A named three-level geometry. */
struct DiffGeometry
{
    const char *name;
    std::vector<CacheGeometry> levels;
};

/** P7, a 4-way 64 B-line hierarchy, a direct-mapped one, and an
 * 8-way 1-byte-line one, where line ~0ull is a real line. */
std::vector<DiffGeometry>
diffGeometries()
{
    return {
        {"p7", CacheHierarchy::p7Geometry()},
        {"4-way-64B", {{2048, 4, 64}, {8192, 4, 64}, {65536, 4, 64}}},
        {"direct-mapped", {{1024, 1, 64}, {4096, 1, 64}, {16384, 1, 64}}},
        {"8-way-1B", {{64, 8, 1}, {256, 8, 1}, {1024, 8, 1}}},
    };
}

/** splitmix64: a seeded, platform-independent address source. */
struct TraceRng
{
    uint64_t s;

    uint64_t
    next()
    {
        uint64_t z = (s += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
};

/**
 * Drive @p n accesses through a new model and a reference model of
 * geometry @p g and count the accesses on which they disagree: the
 * served level, the prefetch fill count, or a probe of the accessed
 * address or of a random one on any level. Addresses come from four
 * working sets (half of each level, and four times the L3), random
 * 64-bit addresses and the last lines below ~0ull; with @p streams,
 * the prefetcher is on and runs of consecutive lines start it. Both
 * models are reset about every @p reset_every accesses, sometimes
 * twice in a row.
 */
int
diffTrace(const DiffGeometry &g, bool streams, uint64_t seed, int n,
          int reset_every)
{
    CacheHierarchy got(g.levels, streams);
    reference::CacheHierarchy want(g.levels, streams);
    const uint64_t line = static_cast<uint64_t>(g.levels[0].lineBytes);
    uint64_t region[4];
    for (int i = 0; i < 3; ++i)
        region[i] = g.levels[static_cast<size_t>(i)].sizeBytes / line / 2;
    region[3] = g.levels[2].sizeBytes / line * 4;
    TraceRng rng{seed};
    auto pick = [&]() -> uint64_t {
        uint64_t r = rng.next();
        if (r % 64 == 0)
            return rng.next();
        if (r % 64 == 1)
            return ~0ull - (rng.next() % 4) * line;
        const int set = static_cast<int>(r % 4);
        const uint64_t base = static_cast<uint64_t>(set) << 36;
        return base + (rng.next() % region[set]) * line +
               rng.next() % line;
    };

    int bad = 0;
    auto check = [&](bool ok, const std::string &what, int i) {
        if (ok)
            return;
        if (++bad <= 5)
            ADD_FAILURE() << g.name << " seed " << seed << " access "
                          << i << ": " << what;
    };
    uint64_t stream = 0;
    int stream_left = 0;
    for (int i = 0; i < n; ++i) {
        if (rng.next() % static_cast<uint64_t>(reset_every) == 0) {
            got.reset();
            want.reset();
            if (rng.next() % 2 == 0) {
                got.reset();
                want.reset();
            }
        }
        uint64_t addr;
        if (streams && stream_left == 0 && rng.next() % 8 == 0) {
            stream = pick();
            stream_left = 1 + static_cast<int>(rng.next() % 64);
        }
        if (stream_left > 0) {
            addr = stream;
            stream += line;
            --stream_left;
        } else {
            addr = pick();
        }
        const HitLevel a = got.access(addr);
        const HitLevel b = want.access(addr);
        check(a == b,
              "served " + std::to_string(static_cast<int>(a)) +
                  ", want " + std::to_string(static_cast<int>(b)),
              i);
        check(got.prefetchFills() == want.prefetchFills(),
              "prefetch fills", i);
        const uint64_t other = pick();
        for (int lv = 0; lv < 3; ++lv) {
            check(got.level(lv).probe(addr) == want.level(lv).probe(addr),
                  "probe of the accessed line", i);
            check(got.level(lv).probe(other) ==
                      want.level(lv).probe(other),
                  "probe of another line", i);
        }
    }
    return bad;
}

} // namespace

TEST(CacheDifferential, RandomTracesMatchReference)
{
    for (const DiffGeometry &g : diffGeometries())
        for (uint64_t seed : {1ull, 2ull, 3ull})
            EXPECT_EQ(diffTrace(g, false, seed, 60000, 15000), 0)
                << g.name;
}

TEST(CacheDifferential, SequentialTracesMatchReference)
{
    // Streams of consecutive lines start the next-line prefetcher,
    // whose fills walk all three levels too.
    for (const DiffGeometry &g : diffGeometries())
        for (uint64_t seed : {4ull, 5ull, 6ull})
            EXPECT_EQ(diffTrace(g, true, seed, 60000, 15000), 0)
                << g.name;
}

TEST(CacheDifferential, ResetHeavyTracesMatchReference)
{
    // Resets every few hundred accesses, some back to back: a
    // level that no access touched since its last reset skips the
    // rewrite and must still look freshly invalid.
    for (const DiffGeometry &g : diffGeometries())
        EXPECT_EQ(diffTrace(g, true, 7, 20000, 300), 0) << g.name;
}

TEST(CacheDifferential, TopLineOfOneByteLinesMisses)
{
    // With 1-byte lines, address ~0ull is line ~0ull, the tag every
    // invalid way carries: it must miss until it is filled, on a
    // new level and after a reset, and probe false until then.
    const std::vector<CacheGeometry> geoms = diffGeometries()[3].levels;
    CacheLevel lvl(geoms[0]);
    EXPECT_FALSE(lvl.probe(~0ull));
    EXPECT_FALSE(lvl.access(~0ull));
    EXPECT_TRUE(lvl.probe(~0ull));
    EXPECT_TRUE(lvl.access(~0ull));
    lvl.reset();
    EXPECT_FALSE(lvl.probe(~0ull));
    EXPECT_FALSE(lvl.access(~0ull));

    CacheHierarchy h(geoms, true);
    reference::CacheHierarchy ref(geoms, true);
    for (int round = 0; round < 2; ++round) {
        EXPECT_EQ(h.access(~0ull), HitLevel::Mem);
        EXPECT_EQ(ref.access(~0ull), HitLevel::Mem);
        EXPECT_EQ(h.access(~0ull), HitLevel::L1);
        EXPECT_EQ(ref.access(~0ull), HitLevel::L1);
        h.reset();
        ref.reset();
    }
}
