/**
 * @file
 * Long-lived campaign service: async spec ingestion, each campaign
 * measured through the campaign engine's claim pool.
 *
 * The fleet shape the north star names — N clients submitting
 * characterization sweeps against one warm worker fleet — needs
 * more than one-shot `mprobe_campaign` invocations: campaigns must
 * be *submitted* while others run, and share one worker fleet and
 * one result cache. This subsystem provides that as a
 * drop-directory service:
 *
 *   - clients submit a campaign by dropping a `<name>.spec` file
 *     (the campaign/spec.hh format) into the watched drop
 *     directory; a spec is read once two consecutive scans see the
 *     same size and modification time, and one that sets no key is
 *     refused;
 *   - the watcher thread ingests each new spec while campaigns are
 *     measured: Campaign::expand() generates the workloads, expands
 *     the job list and persists a per-campaign manifest under
 *     `<results>/<name>/`;
 *   - one runner thread measures the ingested campaigns one after
 *     another, in ingest order, each through
 *     Campaign::measureJobs() as a `--serve` worker: its threads
 *     take the campaign's jobs in cost order through per-job claim
 *     files in the shared cache directory (campaign/claims.hh), so
 *     any number of service processes (and plain `mprobe_campaign
 *     --serve` workers on the same spec) cooperate, steal from dead
 *     peers, and never duplicate results;
 *   - results stream incrementally: every poll pass each
 *     active campaign gets a fresh `status.json` plus partial
 *     CSV/JSON exports of the samples measured so far, and once
 *     measured the final `samples.csv`/`samples.json` — byte
 *     identical to the export of a standalone run of the same
 *     spec, because both export the engine's job-ordered samples.
 */

#ifndef SERVICE_SERVICE_HH
#define SERVICE_SERVICE_HH

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/claims.hh"
#include "obs/telemetry.hh"
#include "util/thread_annotations.hh"

namespace mprobe
{

/** Service configuration (the mprobe_service CLI mirrors this). */
struct ServiceOptions
{
    /** Directory watched for dropped `<name>.spec` files. */
    std::string dropDir;
    /** Shared sample cache + claim directory (the fleet's pool). */
    std::string cacheDir;
    /** Per-campaign output root: `<resultsDir>/<name>/` holds the
     * manifest, status.json and the sample exports. */
    std::string resultsDir;
    /** Threads measuring each campaign, as its --serve worker
     * threads (0 = one per hardware thread). */
    int threads = 0;
    /** Seconds between drop-directory scans (each also refreshes
     * status.json and the partial exports); also each campaign's
     * claim poll (a measuring thread's sleep when live peers hold
     * every remaining job) and the runner's wait for the next
     * ingested campaign. */
    double pollSeconds = 1.0;
    /** Stale-claim TTL (campaign/claims.hh semantics). */
    double claimTtlSeconds = kDefaultClaimTtlSeconds;
    /** Claim-file worker identity; empty = "host:pid". */
    std::string workerId;
    /** Architecture the campaigns run on. */
    std::string archName = "POWER7";
    /**
     * Exit once every ingested campaign is complete and a
     * drop-directory scan finds nothing new and no spec still
     * waiting to settle (CI/tests). False runs until
     * requestStop().
     */
    bool exitWhenIdle = false;
};

/** One ingested campaign's public progress snapshot. */
struct ServiceCampaignStatus
{
    std::string name;
    size_t totalJobs = 0;
    size_t doneJobs = 0;
    bool complete = false;
};

/** The drop-directory campaign service. */
class CampaignService
{
  public:
    explicit CampaignService(ServiceOptions opts);
    /** Stops and joins the runner thread, which holds `this`. */
    ~CampaignService();
    CampaignService(const CampaignService &) = delete;
    CampaignService &operator=(const CampaignService &) = delete;

    /**
     * Run the service: start the runner, then loop scanning the
     * drop directory, ingesting new specs and streaming
     * per-campaign status/partial results, until idle
     * (opts.exitWhenIdle) or requestStop(). Returns the number of
     * campaigns that reached completion.
     */
    size_t run();

    /** Ask a running run() to wind down (thread-safe; returns
     * immediately). run() returns once the campaign being measured
     * has finished; it starts no further campaign. */
    void requestStop() { stopRequested.store(true); }

    /** Snapshot of every ingested campaign's progress. */
    std::vector<ServiceCampaignStatus> statuses() const;

  private:
    /** One ingested campaign: its own architecture/machine (the
     * bootstrap mutates the arch), its engine and expansion, and
     * its progress. */
    struct ActiveCampaign
    {
        std::string name;
        Architecture arch;
        Machine machine;
        /** The ingested spec's engine: serve mode over the service's
         * cache, with a per-campaign manifest directory. */
        Campaign campaign;
        /** expand()'s workloads and jobs; the runner's measurement
         * fills in the samples. */
        CampaignResult result;
        /** Per-job completion observed in the cache (watcher). */
        std::vector<char> done;
        size_t doneCount = 0;
        /** samples.csv/samples.json are written (runner). */
        bool complete = false;
        /** status.json says complete (the watcher's last write). */
        bool reported = false;
        /** Done count at the last partial export (skip rewriting
         * identical partials). */
        size_t exportedDone = static_cast<size_t>(-1);

        ActiveCampaign(std::string name_, CampaignSpec spec,
                       Architecture arch_);
    };

    ServiceOptions opts;
    /** The watcher's view of the fleet's cache and claims: progress
     * counts and partial exports. */
    ResultCache cache;
    ClaimDir claims;
    /** Guards campaigns: the watcher thread appends and reports
     * progress while the runner picks and completes campaigns.
     * ActiveCampaign's progress fields count as guarded too. Its
     * workloads and jobs never change once ingested, and only the
     * runner touches its engine and measured fields. */
    mutable Mutex mutex;
    std::vector<std::unique_ptr<ActiveCampaign>> campaigns
        GUARDED_BY(mutex);
    /** Touched only by the run() watcher thread (ingestScan);
     * needs no lock. */
    std::set<std::string> ingestedFiles;
    /** A spec file's size and modification time at one scan. */
    using SpecStamp =
        std::pair<std::uintmax_t, std::filesystem::file_time_type>;
    /** New specs the last scan saw, not yet ingested because they
     * changed since the scan before (watcher thread only). */
    std::map<std::string, SpecStamp> pendingSpecs;
    std::atomic<bool> stopRequested{false};
    std::thread runner;

    /** Scan the drop directory; ingest every new spec. Returns the
     * number of campaigns ingested this scan. */
    size_t ingestScan();
    /** Ingest one dropped spec file; false (with a warning) when
     * it cannot be parsed or expanded. */
    bool ingestSpec(const std::string &path);
    /** Refresh done counts from the cache, write status.json and
     * partial exports for campaigns that progressed. */
    void updateStatus();
    /** Runner-thread body: measure each ingested campaign in
     * ingest order and write its final exports, until stop. */
    void measureLoop();
    /** Directory of one campaign's outputs. */
    std::string campaignDir(const std::string &name) const;
    /** Write one campaign's status.json; @p fleet is the worker
     * telemetry read from the shared cache directory (one read per
     * updateStatus pass, shared by every campaign's file). */
    void writeStatusJson(
        const ActiveCampaign &c, size_t claimed,
        const std::vector<obs::WorkerTelemetry> &fleet) const
        REQUIRES(mutex);
};

} // namespace mprobe

#endif // SERVICE_SERVICE_HH
