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
    ways.assign(numSets * geom.assoc, Way{0, 0});
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
        if (ways[base + w].tick != 0 && ways[base + w].tag == line)
            return true;
    return false;
}

bool
CacheLevel::access(uint64_t addr)
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
CacheLevel::reset()
{
    // Zeroing the ticks is enough: an invalid way's tag is never
    // read, and the fill that revalidates the way overwrites it.
    // Reusing a retained hierarchy this way between batched jobs
    // is an order of magnitude cheaper than reconstruction.
    for (Way &way : ways)
        way.tick = 0;
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
    HitLevel served = HitLevel::Mem;
    // Inclusive: look up and fill every level top-down; the first
    // hitting level serves the access.
    for (size_t i = 0; i < levels.size(); ++i) {
        if (levels[i].access(addr) &&
            served == HitLevel::Mem) {
            served = static_cast<HitLevel>(i);
        }
    }

    if (prefetchEnabled) {
        // Next-line stream prefetcher: once two consecutive lines
        // are touched, keep pulling the following line into the
        // whole hierarchy. Tracking all accesses (not only misses)
        // lets an established stream stay ahead of the demand.
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
