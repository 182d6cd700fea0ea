/**
 * @file
 * Reference cache hierarchy (tests only).
 *
 * The set-associative hierarchy the core simulator used before its
 * sets learned the invalid-tag sentinel, the 8-way match mask and
 * the reset skip, kept verbatim as the reference model: every way
 * carries {tag, tick}, tick 0 marks an invalid way, a lookup walks
 * the set until it hits, and reset() zeroes every tick.
 * test_cache's differential tests drive the same address traces
 * through it and through src/sim/cache.{hh,cc}, and the reference
 * core loop (reference_core.hh) runs on it, so a cache change that
 * moves one hit level fails test_core_identity too.
 */

#ifndef TESTS_REFERENCE_CACHE_HH
#define TESTS_REFERENCE_CACHE_HH

#include <cstdint>
#include <vector>

#include "sim/cache.hh"
#include "util/logging.hh"

namespace mprobe
{
namespace reference
{

inline int
log2i(uint64_t v)
{
    int s = 0;
    while ((1ull << s) < v)
        ++s;
    if ((1ull << s) != v)
        panic(cat("value ", v, " is not a power of two"));
    return s;
}

/** One level with true-LRU set-associative arrays. */
class CacheLevel
{
  public:
    explicit CacheLevel(const CacheGeometry &g) : geom(g)
    {
        if (geom.sizeBytes == 0 || geom.assoc <= 0 ||
            geom.lineBytes <= 0)
            fatal("cache level with zero geometry");
        numSets = geom.sets();
        if (numSets == 0 ||
            numSets * geom.assoc * geom.lineBytes != geom.sizeBytes)
            fatal(cat("inconsistent cache geometry: size ",
                      geom.sizeBytes, " assoc ", geom.assoc, " line ",
                      geom.lineBytes));
        lineShift = log2i(static_cast<uint64_t>(geom.lineBytes));
        log2i(numSets); // validate power of two
        ways.assign(numSets * geom.assoc, Way{0, 0});
    }

    bool
    probe(uint64_t addr) const
    {
        uint64_t line = addr >> lineShift;
        uint64_t set = line & (numSets - 1);
        size_t base = set * geom.assoc;
        for (int w = 0; w < geom.assoc; ++w)
            if (ways[base + w].tick != 0 && ways[base + w].tag == line)
                return true;
        return false;
    }

    bool
    access(uint64_t addr)
    {
        uint64_t line = addr >> lineShift;
        uint64_t set = line & (numSets - 1);
        size_t base = set * geom.assoc;
        Way *set_ways = ways.data() + base;
        ++tick;
        int victim = 0;
        uint64_t oldest = ~0ull;
        for (int w = 0; w < geom.assoc; ++w) {
            Way &way = set_ways[w];
            if (way.tick != 0 && way.tag == line) {
                way.tick = tick;
                return true;
            }
            // Least recently used way; an invalid way (tick 0) is
            // older than any valid one, and the first of them wins.
            if (way.tick < oldest) {
                oldest = way.tick;
                victim = w;
            }
        }
        set_ways[victim] = Way{line, tick};
        return false;
    }

    void
    reset()
    {
        for (Way &way : ways)
            way.tick = 0;
        tick = 0;
    }

  private:
    /** One way: the resident line and its last-use tick, where tick
     * 0 marks an invalid way (a valid way's tick is at least 1). */
    struct Way
    {
        uint64_t tag;
        uint64_t tick;
    };

    CacheGeometry geom;
    uint64_t numSets;
    int lineShift;
    std::vector<Way> ways; //!< numSets * assoc entries
    uint64_t tick = 0;
};

/** Three-level private hierarchy with an optional L1 prefetcher. */
class CacheHierarchy
{
  public:
    CacheHierarchy(const std::vector<CacheGeometry> &geoms,
                   bool enable_prefetch = true)
        : prefetchEnabled(enable_prefetch)
    {
        if (geoms.size() != 3)
            fatal(cat("CacheHierarchy needs 3 levels, got ",
                      geoms.size()));
        for (const auto &g : geoms)
            levels.emplace_back(g);
        lineBytes = geoms[0].lineBytes;
        for (const auto &g : geoms)
            if (g.lineBytes != lineBytes)
                fatal("all cache levels must share one line size");
    }

    HitLevel
    access(uint64_t addr)
    {
        HitLevel served = HitLevel::Mem;
        // Inclusive: look up and fill every level top-down; the
        // first hitting level serves the access.
        for (size_t i = 0; i < levels.size(); ++i) {
            if (levels[i].access(addr) && served == HitLevel::Mem)
                served = static_cast<HitLevel>(i);
        }

        if (prefetchEnabled) {
            // Next-line stream prefetcher: once two consecutive
            // lines are touched, keep pulling the following line
            // into the whole hierarchy.
            uint64_t line = addr / static_cast<uint64_t>(lineBytes);
            if (lastLine + 1 == line) {
                uint64_t pf = (line + 1) *
                              static_cast<uint64_t>(lineBytes);
                for (auto &lvl : levels)
                    lvl.access(pf);
                ++prefetches;
            }
            lastLine = line;
        }
        return served;
    }

    void
    reset()
    {
        for (auto &lvl : levels)
            lvl.reset();
        lastLine = ~0ull;
        prefetches = 0;
    }

    const CacheLevel &level(int idx) const
    {
        return levels[static_cast<size_t>(idx)];
    }

    uint64_t prefetchFills() const { return prefetches; }

  private:
    std::vector<CacheLevel> levels;
    bool prefetchEnabled;
    uint64_t lastLine = ~0ull;
    uint64_t prefetches = 0;
    int lineBytes;
};

} // namespace reference
} // namespace mprobe

#endif // TESTS_REFERENCE_CACHE_HH
