/**
 * @file
 * Parallel experiment-campaign engine.
 *
 * The paper's methodology is a campaign: generate a micro-benchmark
 * corpus, deploy every benchmark on every CMP/SMT configuration,
 * collect (activity rates, power) samples, feed them to the models.
 * This module runs that campaign as a unit of its own: a
 * CampaignSpec expands into independent (workload, configuration)
 * jobs which execute on a work-queue thread pool, with every
 * completed measurement stored in a content-hash-keyed on-disk
 * cache so re-runs and resumed campaigns skip already-measured
 * points.
 *
 * Determinism: each job derives its measurement salt from its own
 * content hash, never from execution order, so a campaign produces
 * bit-identical samples at any worker count — and a cached sample
 * is exactly what re-simulation would yield.
 */

#ifndef CAMPAIGN_CAMPAIGN_HH
#define CAMPAIGN_CAMPAIGN_HH

#include <string>
#include <vector>

#include "campaign/cache.hh"
#include "campaign/cost.hh"
#include "campaign/spec.hh"
#include "microprobe/arch.hh"
#include "power/sample.hh"

namespace mprobe
{

/** One expanded measurement point. */
struct CampaignJob
{
    /** Index into the campaign's workload list. */
    size_t workload = 0;
    ChipConfig config;
    /** Content hash: program + config + operating point + machine
     * + salt. */
    uint64_t key = 0;
    /** Estimated relative cost (JobCostModel), for cost-striped
     * sharding and longest-first pool draining. Execution detail:
     * never part of the key or the manifest. */
    double cost = 0.0;
    /**
     * Swept core frequency in GHz; 0 selects the machine's nominal
     * operating point *and* the legacy (frequency-free) job key, so
     * campaigns without a `freqs` axis — and sweep points that
     * coincide with the nominal clock — replay pre-DVFS cache
     * entries.
     */
    double freqGhz = 0.0;
    /**
     * Swept supply voltage in volts; 0 selects the on-curve voltage
     * at the job's frequency *and* the vdd-free job key, so
     * campaigns without a `vdds` axis — and sweep voltages that
     * coincide with the V/f curve — replay pre-undervolting cache
     * entries.
     */
    double vdd = 0.0;
};

/** A generated workload with its provenance. */
struct CampaignWorkload
{
    Program program;
    /** Source label: a Table-2 category name, "SPEC", "DAXPY" or
     * "Extreme". */
    std::string source;
    /** Sub-group within the source (e.g. "L1L2a"), if any. */
    std::string group;
};

/** Everything a campaign run produces. */
struct CampaignResult
{
    /** One sample per executed job, in job order (workload-major).
     * Under a shard spec this covers only this shard's slice. */
    std::vector<Sample> samples;
    /** The generated corpus the samples cover. */
    std::vector<CampaignWorkload> workloads;
    /** Executed jobs (parallel to samples; the shard slice when
     * sharded). */
    std::vector<CampaignJob> jobs;
    /** Full campaign job count before shard slicing (equals
     * jobs.size() for an unsharded run). */
    size_t totalJobs = 0;
    /** Cache statistics of this run. */
    size_t cacheHits = 0;
    size_t cacheMisses = 0;
    /** Cache entries that existed but failed to parse (each also a
     * miss) — the post-hoc fleet-incident signal --metrics-json
     * reports. */
    size_t cacheCorrupt = 0;
    /** Claim-pool statistics of this run (zero outside --serve). */
    size_t claimsAcquired = 0;
    size_t claimsStolen = 0;
    /** Measured wall seconds per executed job (parallel to jobs;
     * near-zero for cache hits) and whether each was a hit — the
     * raw material `mprobe_campaign --calibrate` refits the
     * JobCostModel from. */
    std::vector<double> jobSeconds;
    std::vector<char> jobCached;
    /** @name Phase wall times (perf trajectory tracking) */
    /**@{*/
    double generationSeconds = 0.0;
    double measureSeconds = 0.0;
    /**@}*/
};

/**
 * Content hash of one measurement point. Covers every Program field
 * the simulator reads plus the configuration, the machine
 * fingerprint and the campaign salt. @p freq_ghz joins the hash
 * only when positive (a swept non-nominal operating point): the
 * nominal point keeps the exact pre-DVFS key, so existing cache
 * directories upgrade miss-free. @p vdd_volts likewise joins only
 * when positive (an off-curve voltage), under a domain-separation
 * tag so a vdd-only sweep can never collide with a freq-only one.
 */
uint64_t campaignJobKey(const Program &prog, const ChipConfig &cfg,
                        uint64_t machine_fingerprint,
                        uint64_t salt, double freq_ghz = 0.0,
                        double vdd_volts = 0.0);

/** What a job key covers besides the program: one (config, freq,
 * vdd) point, with campaignJobKey's meaning of 0. */
struct JobKeyPoint
{
    ChipConfig config;
    double freqGhz = 0.0;
    double vdd = 0.0;
};

/**
 * campaignJobKey of @p prog at every point of @p points, in point
 * order, in one pass: each key is an FNV-1a head over its point's
 * fields continued over the program's bytes, and the program's
 * bytes are built once and fed to all heads as interleaved lanes
 * (LaneHasher). campaignJobKey is the one-point case, so the two
 * always agree.
 */
std::vector<uint64_t>
campaignJobKeys(const Program &prog,
                const std::vector<JobKeyPoint> &points,
                uint64_t machine_fingerprint, uint64_t salt);

/**
 * The operating point @p job measures at: the machine's curve point
 * at the job's frequency, with the voltage overridden when the job
 * sweeps an off-curve vdd. Every executor builds its points here,
 * so a vdds sweep measures (and caches) the same point on every
 * path.
 */
OperatingPoint jobPoint(const Machine &machine, const CampaignJob &job);

/**
 * What @p job's cache entry must say it is (ResultCache::lookup):
 * @p workload (the job's program name), the job's configuration
 * and its jobPoint. Every reader of the cache checks entries
 * against it, so a file copied over another job's key is
 * re-measured instead of exported.
 */
SampleIdentity jobIdentity(const Machine &machine,
                           const CampaignJob &job,
                           const std::string &workload);

/**
 * Fingerprint of everything in (@p spec, machine) that determines a
 * campaign's job keys: workload sources and generation knobs,
 * configurations, salt and the machine fingerprint — but not
 * execution detail (threads, cache directory). The manifest stores
 * it so --resume can tell "same campaign, different worker count"
 * from "stale manifest of a different campaign".
 */
uint64_t campaignFingerprint(const CampaignSpec &spec,
                             uint64_t machine_fingerprint);

/**
 * The engine's shard partition: deterministic cost-weighted
 * striping (LPT greedy over job.cost, see campaign/cost.hh) of the
 * expanded job list. It is a pure function of the (ordered) job
 * list — never of scheduling or cache state — so every shard of
 * one campaign computes the identical partition on its own, the
 * union over all shards is exactly the unsharded job list, and
 * --merge exports stay byte-identical to an unsharded run. The
 * summed estimated cost per shard is near-balanced even when the
 * config mix is skewed (an 8-4 job costs ~32x a 1-1 job).
 */
std::vector<size_t>
costAwareShardIndices(const std::vector<CampaignJob> &jobs,
                      int index, int count);

/** A campaign expanded but not yet measured: what the service's
 * ingest step produces and its shared pool consumes. */
struct CampaignExpansion
{
    std::vector<CampaignWorkload> workloads;
    std::vector<CampaignJob> jobs;
};

/** The engine: expansion, scheduling, caching, collection. */
class Campaign
{
  public:
    /**
     * Bind the engine to a machine and a spec. The machine must
     * outlive the campaign; its simOptions() must not be mutated
     * while run()/measure() execute (worker threads read them).
     */
    Campaign(const Machine &machine, CampaignSpec spec);

    /**
     * Run the full campaign: generate the spec's workloads (suite
     * generation bootstraps @p arch first when the spec says so),
     * expand jobs, measure them on the pool, export-ready samples
     * out. Generation is serial and deterministic; only the
     * embarrassingly parallel measurement phase fans out.
     *
     * Under a shard spec, the full job list is still expanded and
     * persisted to the manifest, but only this shard's slice is
     * measured and returned (result.totalJobs keeps the full
     * count); once every shard has run against the shared cache
     * directory, `mprobe_campaign --merge` assembles the complete
     * export from the manifest and the cache.
     */
    CampaignResult run(Architecture &arch);

    /**
     * Generation + expansion only: produce the campaign's
     * workloads and full job list and persist the manifest, without
     * measuring anything. The drop-directory service ingests new
     * campaigns through this entry and feeds the jobs into its
     * shared claim pool; run() is exactly expand() + the
     * measurement phase.
     */
    CampaignExpansion expand(Architecture &arch);

    /**
     * Lower-level entry: measure an explicit workload list across
     * @p configs with the engine's pool and cache, in deterministic
     * (workload-major) order. Figure/table benches and the model
     * pipeline route all of their measurement through here.
     */
    std::vector<Sample>
    measure(const std::vector<Program> &programs,
            const std::vector<ChipConfig> &configs);

    /**
     * Like measure() but with one config list per program
     * (configs_per[i] deploys programs[i]): the shape of the model
     * pipeline's corpus, where micro-benchmarks and random/SPEC
     * workloads are measured on different configuration subsets.
     * Samples come back program-major, each program's configs in
     * the order listed.
     *
     * Both overloads persist (merge-accumulate) their expanded job
     * list into the cache directory's manifest, so --resume and
     * --merge cover bench/pipeline measurements too, and always
     * return every sample measured. A sharded spec is refused
     * (fatal): a slice is not the corpus the caller asked for.
     * Under `spec.serve` the jobs drain through the claim pool of
     * the shared cache directory, exactly as run() does, so every
     * process measuring the same corpus into one cache splits the
     * work and each returns the complete sample vector.
     */
    std::vector<Sample>
    measure(const std::vector<Program> &programs,
            const std::vector<std::vector<ChipConfig>> &configs_per);

    /** Cache statistics accumulated across run()/measure() calls. */
    size_t cacheHits() const { return cache.hits(); }
    size_t cacheMisses() const { return cache.misses(); }
    size_t cacheCorrupt() const { return cache.corrupt(); }

    const CampaignSpec &specRef() const { return spec; }

  private:
    const Machine &machine;
    CampaignSpec spec;
    ResultCache cache;
    uint64_t machineFp;
    /** Relative-cost estimator behind cost-striped sharding and
     * longest-first local ordering. */
    JobCostModel costModel;

    /** Expand spec workloads (generation phase). */
    std::vector<CampaignWorkload> expandWorkloads(Architecture &arch);

    /** Build one job per (workload, config) pair, workload-major. */
    std::vector<CampaignJob>
    expandJobs(const std::vector<CampaignWorkload> &workloads,
               const std::vector<std::vector<ChipConfig>> &configs_per)
        const;

    /** What one runJobs call produced (samples plus the per-job
     * timing/caching record --calibrate consumes). */
    struct JobRunOutcome
    {
        std::vector<Sample> samples;
        std::vector<double> seconds;
        std::vector<char> cached;
        /** Claim-pool statistics (runClaimed only). */
        size_t claimsAcquired = 0;
        size_t claimsStolen = 0;
    };

    /**
     * Execute pre-expanded jobs on the pool; the parallel phase.
     * @p campaign_total is the full campaign's job count (the
     * progress-line denominator context when @p jobs is a shard
     * slice of it).
     */
    JobRunOutcome
    runJobs(const std::vector<CampaignWorkload> &workloads,
            const std::vector<CampaignJob> &jobs,
            size_t campaign_total);

    /**
     * Claim-based execution (--serve): this worker's threads pull
     * jobs from the full campaign pool through per-job claim files
     * in the shared cache directory, stealing from dead peers once
     * their claims pass the TTL. Returns only when every job of
     * the campaign is in the cache — the outcome covers all @p
     * jobs (peer-measured ones loaded from the cache), so a serve
     * worker's export is byte-identical to an unsharded run's.
     */
    JobRunOutcome
    runClaimed(const std::vector<CampaignWorkload> &workloads,
               const std::vector<CampaignJob> &jobs);

    /** Persist the job manifest next to the cache (resume). */
    void
    writeManifest(const std::vector<CampaignWorkload> &workloads,
                  const std::vector<CampaignJob> &jobs) const;
};

/**
 * A measurement-only spec (no suite generation, no bootstrap) with
 * the given execution knobs — what figure benches and the model
 * pipeline construct internally before calling Campaign::measure.
 */
CampaignSpec measurementSpec(int threads = 0,
                             std::string cache_dir = "",
                             uint64_t salt = 0);

} // namespace mprobe

#endif // CAMPAIGN_CAMPAIGN_HH
