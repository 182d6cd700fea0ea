/**
 * @file
 * Cache hierarchy implementation.
 */

#include "sim/cache.hh"

#include "util/logging.hh"

namespace mprobe
{

namespace
{

int
log2i(uint64_t v)
{
    int s = 0;
    while ((1ull << s) < v)
        ++s;
    if ((1ull << s) != v)
        panic(cat("value ", v, " is not a power of two"));
    return s;
}

} // namespace

CacheLevel::CacheLevel(const CacheGeometry &g) : geom(g)
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
    ways.assign(numSets * geom.assoc, Way{kInvalidTag, 0});
}

uint64_t
CacheLevel::setIndex(uint64_t addr) const
{
    return (addr >> lineShift) & (numSets - 1);
}

bool
CacheLevel::probe(uint64_t addr) const
{
    uint64_t line = addr >> lineShift;
    uint64_t set = line & (numSets - 1);
    size_t base = set * geom.assoc;
    for (int w = 0; w < geom.assoc; ++w)
        if (ways[base + w].tag == line && ways[base + w].tick != 0)
            return true;
    return false;
}

bool
CacheLevel::access(uint64_t addr)
{
    const uint64_t line = addr >> lineShift;
    Way *set_ways = ways.data() + (line & (numSets - 1)) * geom.assoc;
    ++tick;
    if (geom.assoc == 8 && line != kInvalidTag) {
        // Only a valid way can hold the line, and at most one does:
        // the match mask has at most one bit set.
        unsigned hits = 0;
        for (int w = 0; w < 8; ++w)
            hits |= static_cast<unsigned>(set_ways[w].tag == line) << w;
        if (hits != 0) {
            set_ways[__builtin_ctz(hits)].tick = tick;
            return true;
        }
        // The least recently used way; an invalid way (tick 0) is
        // older than any valid one, and the first of them wins.
        int victim = 0;
        uint64_t oldest = set_ways[0].tick;
        for (int w = 1; w < 8; ++w) {
            const bool older = set_ways[w].tick < oldest;
            oldest = older ? set_ways[w].tick : oldest;
            victim = older ? w : victim;
        }
        set_ways[victim] = Way{line, tick};
        return false;
    }
    // Any other associativity, and line kInvalidTag: one pass that
    // stops at the hit and tracks the victim on the way.
    int victim = 0;
    uint64_t oldest = ~0ull;
    for (int w = 0; w < geom.assoc; ++w) {
        Way &way = set_ways[w];
        if (way.tag == line && way.tick != 0) {
            way.tick = tick;
            return true;
        }
        if (way.tick < oldest) {
            oldest = way.tick;
            victim = w;
        }
    }
    set_ways[victim] = Way{line, tick};
    return false;
}

void
CacheLevel::reset()
{
    // tick counts the accesses since the last reset, so a level at
    // tick 0 holds no valid way. Skipping it saves rewriting a 4 MB
    // level's 512 KB of ways between batched jobs that do not
    // touch memory.
    if (tick == 0)
        return;
    for (Way &way : ways)
        way = Way{kInvalidTag, 0};
    tick = 0;
}

std::vector<CacheGeometry>
CacheHierarchy::p7Geometry()
{
    return {
        {32 * 1024, 8, 128},        // L1D
        {256 * 1024, 8, 128},       // L2
        {4 * 1024 * 1024, 8, 128},  // local L3 slice
    };
}

CacheHierarchy::CacheHierarchy(
    const std::vector<CacheGeometry> &geoms, bool enable_prefetch)
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
CacheHierarchy::access(uint64_t addr)
{
    // Inclusive: look up and fill every level top-down; the first
    // hitting level serves the access.
    CacheLevel *lv = levels.data();
    const bool l1 = lv[0].access(addr);
    const bool l2 = lv[1].access(addr);
    const bool l3 = lv[2].access(addr);
    const HitLevel served = l1   ? HitLevel::L1
                            : l2 ? HitLevel::L2
                            : l3 ? HitLevel::L3
                                 : HitLevel::Mem;

    if (prefetchEnabled) {
        // Next-line stream prefetcher: once two consecutive lines
        // are touched, keep pulling the following line into the
        // whole hierarchy. Tracking all accesses (not only misses)
        // lets an established stream stay ahead of the demand.
        uint64_t line = addr / static_cast<uint64_t>(lineBytes);
        if (lastLine + 1 == line) {
            uint64_t pf = (line + 1) *
                          static_cast<uint64_t>(lineBytes);
            lv[0].access(pf);
            lv[1].access(pf);
            lv[2].access(pf);
            ++prefetches;
        }
        lastLine = line;
    }
    return served;
}

void
CacheHierarchy::reset()
{
    for (auto &lvl : levels)
        lvl.reset();
    lastLine = ~0ull;
    prefetches = 0;
}

const CacheLevel &
CacheHierarchy::level(int idx) const
{
    if (idx < 0 || static_cast<size_t>(idx) >= levels.size())
        panic(cat("bad cache level ", idx));
    return levels[static_cast<size_t>(idx)];
}

CacheLevel &
CacheHierarchy::level(int idx)
{
    if (idx < 0 || static_cast<size_t>(idx) >= levels.size())
        panic(cat("bad cache level ", idx));
    return levels[static_cast<size_t>(idx)];
}

} // namespace mprobe
