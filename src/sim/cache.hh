/**
 * @file
 * Set-associative cache hierarchy simulator.
 *
 * Models the private per-core slice of the POWER7-like hierarchy: a
 * 32 KB L1, 256 KB L2 and 4 MB local L3, all 8-way with 128 B lines,
 * with true LRU replacement and an optional next-line prefetcher
 * (the paper's analytical model randomizes request order precisely
 * "to minimize the interferences of the hardware pre-fetchers").
 */

#ifndef SIM_CACHE_HH
#define SIM_CACHE_HH

#include <cstdint>
#include <vector>

namespace mprobe
{

/** Where an access was served from. */
enum class HitLevel : int
{
    L1 = 0,
    L2 = 1,
    L3 = 2,
    Mem = 3
};

/** Geometry of one cache level. */
struct CacheGeometry
{
    uint64_t sizeBytes = 0;
    int assoc = 0;
    int lineBytes = 128;

    /** Number of sets. */
    uint64_t
    sets() const
    {
        return sizeBytes /
               (static_cast<uint64_t>(assoc) * lineBytes);
    }
};

/** One level of the hierarchy with true-LRU set-associative arrays. */
class CacheLevel
{
  public:
    explicit CacheLevel(const CacheGeometry &geom);

    /** True when the line containing @p addr is resident (no fill). */
    bool probe(uint64_t addr) const;

    /**
     * Look up the line containing @p addr; fills it on a miss,
     * updating LRU state either way. @return true on hit.
     */
    bool access(uint64_t addr);

    /**
     * Invalidate everything (between benchmark deployments). A
     * level that no access has touched since its last reset is
     * already invalid and is not rewritten.
     */
    void reset();

    /** Set index for an address (exposed for the Figure-3 bench). */
    uint64_t setIndex(uint64_t addr) const;

    const CacheGeometry &geometry() const { return geom; }

  private:
    /**
     * The tag of an invalid way. A line number is an address
     * shifted right by the line size's log2, so no line number
     * equals it unless lines are 1 byte, where address ~0ull is
     * line ~0ull. Lookups of that one line check the tick as well.
     */
    static constexpr uint64_t kInvalidTag = ~0ull;

    /** One way: the resident line and its last-use tick. An invalid
     * way has tag kInvalidTag and tick 0; a valid way's tick is at
     * least 1. */
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
    /**
     * Build with the given geometries (index 0 = L1). Exactly three
     * levels are required.
     */
    explicit CacheHierarchy(const std::vector<CacheGeometry> &geoms,
                            bool enable_prefetch = true);

    /** Default POWER7-like geometry (32K/256K/4M, 8-way, 128 B). */
    static std::vector<CacheGeometry> p7Geometry();

    /**
     * Perform one demand access; fills every level on the way
     * (inclusive hierarchy) and runs the next-line prefetcher.
     * @return the level that served the access.
     */
    HitLevel access(uint64_t addr);

    /** Invalidate all levels and prefetcher state. */
    void reset();

    /** Level object (0..2) for probing in tests and benches. */
    const CacheLevel &level(int idx) const;
    CacheLevel &level(int idx);

    /** Number of prefetch fills issued so far. */
    uint64_t prefetchFills() const { return prefetches; }

  private:
    std::vector<CacheLevel> levels;
    bool prefetchEnabled;
    uint64_t lastLine = ~0ull;
    uint64_t prefetches = 0;
    int lineBytes;
};

} // namespace mprobe

#endif // SIM_CACHE_HH
