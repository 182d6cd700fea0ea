/**
 * @file
 * Declarative experiment-campaign specification.
 *
 * A CampaignSpec describes a whole characterization campaign the way
 * the paper describes its methodology: which micro-benchmark sources
 * to generate (Table-2 suite categories, SPEC proxies, DAXPY
 * kernels, extreme cases), which CMP/SMT configurations to deploy
 * them on, and how to execute (worker threads, result cache). The
 * campaign engine expands it into independent (workload, config)
 * jobs.
 *
 * Specs can be built programmatically or parsed from a small
 * line-based file format:
 *
 *     # train.spec — memory + random training corpus
 *     categories  = memory, random
 *     configs     = all
 *     random_count = 40
 *     body_size   = 1024
 *     threads     = 4
 *     cache_dir   = .mprobe-cache
 */

#ifndef CAMPAIGN_SPEC_HH
#define CAMPAIGN_SPEC_HH

#include <string>
#include <vector>

#include "workloads/suite.hh"

namespace mprobe
{

/** What to generate, where to run it, how to execute. */
struct CampaignSpec
{
    /** @name Workload sources */
    /**@{*/
    /** Table-2 categories to generate (empty + suiteEnabled =
     * the whole suite). */
    std::vector<BenchCategory> categories;
    /** Generate Table-2 suite workloads at all. */
    bool suiteEnabled = true;
    /** Append the 28 SPEC CPU2006 proxies. */
    bool specProxies = false;
    /** Append the Section-6 DAXPY kernels. */
    bool daxpy = false;
    /** Append the six extreme-activity cases. */
    bool extremes = false;
    /** Suite generation knobs (counts, body size, budgets). */
    SuiteOptions suite;
    /**@}*/

    /** @name Deployment */
    /**@{*/
    /** Configurations each workload is measured on (default: the
     * paper's 24). */
    std::vector<ChipConfig> configs = ChipConfig::all();
    /**
     * DVFS frequency axis in GHz ("freqs = 2.0,2.5,3.0,3.5"):
     * every (workload, config) pair is measured at every listed
     * operating point (voltage follows the machine's V/f curve).
     * Empty (the default) measures at the machine's nominal clock
     * only, with job keys identical to pre-DVFS campaigns — a
     * sweep that includes the nominal frequency reuses those cache
     * entries too.
     */
    std::vector<double> freqs;
    /**
     * Undervolting axis in volts ("vdds = 0.85,0.90,0.95,1.0"):
     * cross-producted with the frequency axis — every (workload,
     * config, freq) point is measured at every listed supply
     * voltage. A listed voltage that equals the V/f curve's voltage
     * at that frequency collapses to the on-curve job (same key as
     * a freqs-only campaign, so existing cache entries stay hits).
     * Empty (the default) measures on-curve only. Points below the
     * workload's hidden Vmin come back flagged unreliable.
     */
    std::vector<double> vdds;
    /**@}*/

    /** @name Execution */
    /**@{*/
    /** Worker threads measuring jobs: 0 = one per hardware thread
     * (resolved when the engine starts), 1 = serial reference. */
    int threads = 0; // lint: fingerprint-exempt(execution detail)
    /** On-disk result cache directory; empty disables caching. */
    std::string cacheDir; // lint: fingerprint-exempt(cache location, not content)
    /** Extra salt mixed into each job's measurement seed. */
    uint64_t salt = 0;
    /** Bootstrap the architecture before generation (IPC-targeted
     * categories need measured latencies). */
    bool bootstrap = true;
    /**
     * Shard selection ("shard = i/n"): this process measures only
     * its slice of the expanded job list under the deterministic
     * cost-weighted striping of campaign/cost.hh (LPT greedy over
     * estimated per-job cost — a pure function of the job list, so
     * every shard computes the identical partition independently).
     * The union over all shards is exactly the unsharded campaign;
     * the manifest always lists the full job list, so any shard's
     * cache directory can answer --resume and --merge for the
     * whole campaign. Only run() takes a slice: measure() refuses
     * a sharded spec, since its callers need every sample.
     * Execution detail: never part of job keys or the campaign
     * fingerprint.
     */
    int shardIndex = 0;  // lint: fingerprint-exempt(slice selection only)
    int shardCount = 1;  // lint: fingerprint-exempt(slice selection only)
    /** Seconds between "k of n jobs done" progress lines while
     * measuring (0 disables). */
    double progressSeconds = 10.0; // lint: fingerprint-exempt(reporting cadence)
    /**
     * Claim-based service execution ("serve = 1", `--serve`): this
     * worker pulls jobs from the campaign's shared pool through
     * per-job claim files in the cache directory instead of
     * measuring a statically-assigned slice. Any number of --serve
     * workers drain one pool: each claims the next unfinished job
     * (cost order), jobs of a dead worker are stolen once their
     * claim outlives claimTtlSeconds, and every worker finishes
     * with the complete sample set (all results are in the shared
     * cache when the pool drains). Campaign::measure() honours it
     * too, which is how benches and the model pipeline run on a
     * fleet. Mutually exclusive with sharding; --merge semantics
     * are unchanged.
     */
    bool serve = false; // lint: fingerprint-exempt(execution mode, same job set)
    /** Stale-claim TTL in seconds ("claim_ttl_seconds",
     * `--claim-ttl`): a claim not heartbeaten for longer than this
     * marks its worker dead and the job stealable. */
    double claimTtlSeconds = 60.0; // lint: fingerprint-exempt(liveness tuning)
    /** Seconds a serve worker sleeps between pool scans while
     * peers hold every remaining job (`--claim-poll`). */
    double claimPollSeconds = 0.5; // lint: fingerprint-exempt(liveness tuning)
    /** Claim-file identity of this worker; empty resolves to
     * "host:pid" (`--worker-id`, mostly for tests/logs). */
    std::string workerId; // lint: fingerprint-exempt(worker identity, not results)
    /**
     * Directory the job manifest is written to/read from; empty
     * (the default) keeps it next to the cache. The drop-directory
     * service sets this per campaign: many concurrent campaigns
     * share one cache directory (sample files are content-keyed,
     * so they never clash) but need separate manifests (one
     * manifest file per cache dir would thrash between
     * fingerprints). Execution detail: never part of job keys or
     * the campaign fingerprint.
     */
    std::string manifestDir; // lint: fingerprint-exempt(manifest location, not content)
    /**@}*/

    /** Whether this spec selects a strict subset of the jobs. */
    bool sharded() const { return shardCount > 1; }
    /** Directory of the campaign's manifest: manifestDir, else the
     * cache directory. The engine writes the manifest there, and
     * --resume and --merge read it from there. */
    const std::string &manifestDirectory() const
    {
        return manifestDir.empty() ? cacheDir : manifestDir;
    }

    /** Human-readable one-line summary for banners/logs. */
    std::string summary() const;

    /**
     * Summary of what the campaign measures (sources x configs),
     * without execution detail (threads, cache). The manifest
     * stores this one: resuming with a different worker count is
     * the same campaign; resuming with different sources is not.
     */
    std::string contentSummary() const;
};

/**
 * Apply one `key = value` setting of the file format above to
 * @p spec. parseCampaignSpecText calls it for each line and
 * mprobe_campaign for each override flag, so a flag accepts exactly
 * its key's values. @p key is lower case. Unknown keys and bad
 * values are fatal() with @p context (a file:line, or the flag).
 * A number is never clamped or narrowed: `seed` and `salt` take
 * any 64-bit value (parseUint64), counts, sizes, `threads` and
 * both `shard` numbers must fit an int, and a fractional value
 * must be finite (parseDouble).
 */
void applySpecSetting(CampaignSpec &spec, const std::string &key,
                      const std::string &value,
                      const std::string &context);

/**
 * Parse a spec from the file format above. Unknown keys, bad
 * values and malformed configs are fatal() with file:line context.
 */
CampaignSpec parseCampaignSpecText(const std::string &text,
                                   const std::string &origin);

/** The text of spec file @p path; fatal when it cannot be opened. */
std::string readCampaignSpecText(const std::string &path);

/** Load and parse a spec file. */
CampaignSpec loadCampaignSpec(const std::string &path);

/** Whether spec-file @p text sets any key. A text of blank and
 * comment lines parses to the full default campaign. */
bool specHasSettings(const std::string &text);

/** Parse "all" or a comma-separated "cores-smt" list; a
 * configuration outside ChipConfig::all() is fatal. */
std::vector<ChipConfig> parseConfigList(const std::string &s,
                                        const std::string &context);

/** Parse one "cores-smt" configuration; one outside
 * ChipConfig::all() is fatal. */
ChipConfig parseConfig(const std::string &s, const std::string &context);

/** Parse a loop body size as the `body_size` key takes it: 2 (the
 * skeleton's loop needs two slots) to INT_MAX; anything else is
 * fatal. */
size_t parseBodySize(const std::string &s, const std::string &context);

} // namespace mprobe

#endif // CAMPAIGN_SPEC_HH
