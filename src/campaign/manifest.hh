/**
 * @file
 * Campaign job manifest: resume reporting for interrupted runs.
 *
 * A campaign's measurement phase is restartable by construction —
 * every completed job lives in the content-hash result cache — but
 * the cache alone cannot answer "what is left?": it only knows the
 * keys it holds, not the keys the campaign wanted. The manifest
 * closes that gap. Right before measurement starts, the engine
 * persists the full expanded job list (key, workload, source,
 * configuration) next to the cache; after an interrupt, the
 * manifest minus the cache contents is exactly the remaining work,
 * which `mprobe_campaign --resume` lists and completes.
 *
 * The manifest is written atomically (write-then-rename, like cache
 * entries), so a run interrupted mid-write never leaves a torn
 * manifest behind.
 */

#ifndef CAMPAIGN_MANIFEST_HH
#define CAMPAIGN_MANIFEST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/cache.hh"
#include "sim/machine.hh"

namespace mprobe
{

/** One planned measurement of a campaign run. */
struct ManifestEntry
{
    /** Content hash of the job (the cache key). */
    uint64_t key = 0;
    ChipConfig config;
    /** Workload source label ("Random", "SPEC", "adhoc", ...). */
    std::string source;
    /** Program name (may contain spaces; serialized last). */
    std::string workload;
    /**
     * Swept core frequency in GHz; 0 = the machine's nominal
     * operating point. Serialized as a "@freq" suffix on the
     * config token only when non-zero, so pre-DVFS manifests (no
     * suffix anywhere) parse unchanged as nominal-point jobs.
     */
    double freqGhz = 0.0;
    /**
     * Swept supply voltage in volts; 0 = on-curve. Serialized as a
     * V-terminated "@vddV" suffix on the config token only when
     * non-zero ("8-4@2.5@0.92V" for both axes, "8-4@0.92V" for vdd
     * alone), so pre-undervolting manifests parse unchanged as
     * on-curve jobs.
     */
    double vdd = 0.0;
};

/** The persisted job list of one campaign run. */
struct CampaignManifest
{
    /** Human-readable spec summary, for mismatch messages. */
    std::string spec;
    /**
     * Content fingerprint of (spec, machine) — everything that
     * determines the job keys (workload sources and knobs, configs,
     * salt, machine; never threads or cache location). Resume
     * compares this, not the summary string: a different worker
     * count is the same campaign, a different body size is not.
     */
    uint64_t fingerprint = 0;
    std::vector<ManifestEntry> entries;
};

/** Manifest location inside a cache directory. */
std::string manifestPath(const std::string &cacheDir);

/** Serialize a manifest to its text representation. */
std::string manifestToText(const CampaignManifest &m);

/**
 * Parse a serialized manifest. Returns false (leaving @p out
 * partially filled) on malformed input.
 */
bool manifestFromText(const std::string &text, CampaignManifest &out);

/** Atomically write @p m to @p path (warn-and-drop on I/O errors). */
void saveManifest(const std::string &path, const CampaignManifest &m);

/**
 * Save @p m, merging with an existing manifest at @p path when that
 * manifest carries the same fingerprint: existing entries keep
 * their order, entries of @p m with unseen keys are appended. A
 * missing or different-fingerprint manifest is overwritten. This
 * lets the measure() overloads accumulate one manifest across many
 * calls (the model pipeline issues several per run) and lets every
 * shard of one campaign persist the identical full job list.
 * Concurrent same-fingerprint writers with *different* entry sets
 * can lose each other's additions (load-merge-store is not
 * transactional); shards of one campaign write identical content,
 * so the race is harmless there.
 */
void mergeSaveManifest(const std::string &path,
                       const CampaignManifest &m);

/** Load a manifest; returns false if missing or malformed. */
bool loadManifest(const std::string &path, CampaignManifest &out);

/** What collectManifestSamples found in the cache. */
struct ManifestCollection
{
    /** One sample per covered entry, in manifest order. */
    std::vector<Sample> samples;
    /** Entries whose cache files are missing, corrupt or another
     * job's. */
    std::vector<ManifestEntry> missing;
};

/**
 * Resolve every manifest entry against the cache, in manifest
 * order — the merge step of a sharded campaign. When missing comes
 * back empty, samples is the complete campaign: exporting it is
 * bit-identical to the export of an unsharded run, because the
 * manifest preserves job order and cached samples round-trip
 * exactly. Each entry is checked against its job's identity, with
 * the operating point resolved on @p machine (the campaign's), so
 * an entry that is another job's sample counts as missing. Does
 * not touch @p cache's hit/miss statistics.
 */
ManifestCollection
collectManifestSamples(const CampaignManifest &m,
                       const ResultCache &cache,
                       const Machine &machine);

/**
 * Entries of @p m whose results are not yet in @p cache — the jobs
 * an interrupted campaign still has to run. Presence is judged by
 * cache-entry existence; a corrupt entry is re-measured at run time
 * anyway.
 */
std::vector<ManifestEntry>
remainingJobs(const CampaignManifest &m, const ResultCache &cache);

} // namespace mprobe

#endif // CAMPAIGN_MANIFEST_HH
