/**
 * @file
 * Content-hash-keyed on-disk result cache.
 *
 * Every campaign job is identified by a 64-bit content hash of
 * everything that determines its measurement: the full program
 * content (instructions, dependencies, streams, data patterns,
 * name), the chip configuration, the machine fingerprint and the
 * campaign salt. A completed job stores its Sample under that key;
 * re-runs and resumed campaigns look the key up first and skip the
 * simulation on a hit — the measured point is, by construction, the
 * one the simulation would reproduce.
 *
 * The store is a flat directory of small text files (one per
 * sample, named <key>.sample, written atomically via rename), so it
 * is safe for concurrent writers and survives interrupted runs.
 */

#ifndef CAMPAIGN_CACHE_HH
#define CAMPAIGN_CACHE_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "power/sample.hh"

namespace mprobe
{

/**
 * Cache schema/semantics version, mixed into every job key. Bump it
 * whenever the sample format or anything the simulator computes
 * changes in a way the machine fingerprint cannot observe (e.g. the
 * hidden energy tables in exec_model.cc), so stale caches miss
 * instead of replaying outdated results.
 */
constexpr uint64_t kCacheSchemaVersion = 1;

/** Serialize a sample to the cache's text representation. */
std::string sampleToText(const Sample &s);

/**
 * Parse a serialized sample. Returns false (leaving @p out
 * partially filled) on malformed input — callers treat that as a
 * cache miss rather than an error.
 */
bool sampleFromText(const std::string &text, Sample &out);

/**
 * What a cache entry must say it is: the job's workload (program
 * name), configuration, and resolved operating point. The job key
 * covers all four, so an entry whose parsed fields differ is another
 * job's sample, e.g. a file copied over this key's.
 */
struct SampleIdentity
{
    std::string workload;
    ChipConfig config;
    double freqGhz = 0.0;
    double vdd = 0.0;
};

/** Thread-safe directory-backed sample cache. */
class ResultCache
{
  public:
    /**
     * Open (creating if needed) the cache at @p dir. An empty dir
     * disables the cache: lookups miss, stores are dropped.
     */
    explicit ResultCache(std::string dir);

    bool enabled() const { return !dir.empty(); }

    /**
     * Look up @p key; fills @p out and returns true on a hit: an
     * entry that parses and whose workload, config, frequency and
     * voltage equal @p expect. An entry that exists but fails
     * either test counts in corrupt(), warns and misses, so the
     * caller re-measures the job. Counts toward hits()/misses().
     *
     * A legacy entry without `freq`/`vdd` lines parses with the
     * defaults sampleFromText fills (the nominal clock and the
     * default V/f curve), and those are what it is compared on: on
     * a default-curve machine they equal a nominal job's point, so
     * such entries keep hitting.
     */
    bool lookup(uint64_t key, const SampleIdentity &expect,
                Sample &out);

    /**
     * Key-only lookup: like the above, but the entry's identity is
     * not checked. Only for callers that hold no job description
     * (perfbench's replay); every engine path passes the job's
     * identity.
     */
    bool lookup(uint64_t key, Sample &out);

    /**
     * Whether an entry for @p key exists on disk, without reading
     * or statistics. Used by resume reporting to list the remaining
     * jobs of an interrupted campaign; a corrupt entry counts as
     * present here but still re-measures as a miss at run time.
     */
    bool contains(uint64_t key) const;

    /**
     * Read the entry for @p key without touching hits()/misses():
     * how --merge, serve collection and the service's final export
     * gather results other workers measured. A rejected entry
     * counts in corrupt() and warns, as in lookup().
     */
    bool peek(uint64_t key, const SampleIdentity &expect,
              Sample &out) const;

    /** Key-only peek (see the key-only lookup). */
    bool peek(uint64_t key, Sample &out) const;

    /**
     * Store a completed measurement under @p key. Returns false
     * (after warning) when the entry could not be persisted — the
     * result is still valid in memory, but resumed/sharded runs
     * will re-measure this job.
     */
    bool store(uint64_t key, const Sample &s) const;

    /** @name Statistics (since construction) */
    /**@{*/
    size_t hits() const { return nHits.load(); }
    size_t misses() const { return nMisses.load(); }
    /** Entries that existed on disk but failed to parse or were
     * not the job they were read for (each also a miss). */
    size_t corrupt() const { return nCorrupt.load(); }
    /**@}*/

    /** Path of a key's sample file (tests/debugging). */
    std::string pathOf(uint64_t key) const;

  private:
    std::string dir;
    std::atomic<size_t> nHits{0};
    std::atomic<size_t> nMisses{0};
    mutable std::atomic<size_t> nCorrupt{0};

    /** peek() with an optional identity check. */
    bool read(uint64_t key, const SampleIdentity *expect,
              Sample &out) const;
};

} // namespace mprobe

#endif // CAMPAIGN_CACHE_HH
