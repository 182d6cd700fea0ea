/**
 * @file
 * Drop-directory campaign service implementation.
 */

#include "service/service.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <sstream>

#include "campaign/export.hh"
#include "campaign/queue.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/fileio.hh"
#include "util/logging.hh"

namespace mprobe
{

namespace fs = std::filesystem;

CampaignService::ActiveCampaign::ActiveCampaign(std::string name_,
                                                CampaignSpec spec,
                                                Architecture arch_)
    : name(std::move(name_)), arch(std::move(arch_)),
      machine(arch.machine()), campaign(machine, std::move(spec))
{
}

namespace
{

/** @p o, once it names every directory and a positive poll period
 * (checked before the claim directory is bound to the cache). */
ServiceOptions
checkedOptions(ServiceOptions o)
{
    if (o.dropDir.empty() || o.cacheDir.empty() || o.resultsDir.empty())
        fatal("service: --drop-dir, --cache-dir and --results-dir "
              "are all required (specs arrive in the first, the "
              "fleet's pool lives in the second, per-campaign "
              "results stream into the third)");
    if (o.pollSeconds <= 0.0)
        fatal("service: the poll period must be > 0 seconds");
    return o;
}

/** @p samples as `<base>.csv` and `<base>.json`, each written
 * atomically so a client polling the results never reads a torn
 * file. */
void
writeExports(const std::string &base, const std::vector<Sample> &samples)
{
    std::ostringstream csv, json;
    exportSamplesCsv(csv, samples);
    exportSamplesJson(json, samples);
    atomicWriteFile(base + ".csv", csv.str(), "service export");
    atomicWriteFile(base + ".json", json.str(), "service export");
}

} // namespace

CampaignService::CampaignService(ServiceOptions o)
    : opts(checkedOptions(std::move(o))), cache(opts.cacheDir),
      claims(opts.cacheDir, opts.workerId, opts.claimTtlSeconds)
{
    std::error_code ec;
    fs::create_directories(opts.dropDir, ec);
    if (ec)
        fatal(cat("service: cannot create drop directory '",
                  opts.dropDir, "': ", ec.message()));
    fs::create_directories(opts.resultsDir, ec);
    if (ec)
        fatal(cat("service: cannot create results directory '",
                  opts.resultsDir, "': ", ec.message()));
}

CampaignService::~CampaignService()
{
    stopRequested.store(true);
    if (runner.joinable())
        runner.join();
}

std::string
CampaignService::campaignDir(const std::string &name) const
{
    return opts.resultsDir + "/" + name;
}

bool
CampaignService::ingestSpec(const std::string &path)
{
    std::string name = fs::path(path).stem().string();
    // The guard turns the parser's / expander's fatal() calls into
    // exceptions: one malformed dropped spec must not take down a
    // fleet serving other campaigns.
    try {
        ScopedFatalThrows guard;
        obs::TraceSpan span("service.ingest");
        const std::string text = readCampaignSpecText(path);
        // An empty spec is the full default Table-2 campaign, never
        // what a client that drops a file means to submit.
        if (!specHasSettings(text))
            fatal("the spec sets no key");
        CampaignSpec spec = parseCampaignSpecText(text, path);
        if (spec.sharded())
            warn(cat("service: campaign '", name,
                     "': the shard key is meaningless under the "
                     "service (the pool is dynamic) and was "
                     "ignored"));
        // The service owns execution: every campaign is a --serve
        // worker on the service's cache, threads, claim TTL, poll
        // and worker id, with a per-campaign manifest directory and
        // serial generation (the guard above is thread-local, so
        // fatal() on a generation worker thread would still exit).
        spec.cacheDir = opts.cacheDir;
        spec.manifestDir = campaignDir(name);
        spec.serve = true;
        spec.shardIndex = 0;
        spec.shardCount = 1;
        spec.threads = opts.threads;
        spec.claimTtlSeconds = opts.claimTtlSeconds;
        spec.claimPollSeconds = opts.pollSeconds;
        spec.workerId = claims.workerId();
        spec.suite.threads = 1;

        auto c = std::make_unique<ActiveCampaign>(
            name, std::move(spec),
            Architecture::get(opts.archName));
        inform(cat("service: ingesting campaign '", name, "' (",
                   c->campaign.specRef().contentSummary(), ")"));
        c->result = c->campaign.expand(c->arch);
        c->done.assign(c->result.jobs.size(), 0);
        const size_t jobs = c->result.jobs.size();
        {
            MutexLock lock(mutex);
            campaigns.push_back(std::move(c));
        }
        obs::counter("specs_ingested").add();
        inform(cat("service: campaign '", name, "' queued (", jobs,
                   " jobs)"));
        return true;
    } catch (const FatalError &e) {
        warn(cat("service: dropped spec '", path,
                 "' rejected: ", e.what()));
        return false;
    }
}

size_t
CampaignService::ingestScan()
{
    // A new spec is ingested once two consecutive scans see the
    // same size and modification time: a client still writing the
    // file in place changes one of them between scans.
    std::map<std::string, SpecStamp> unsettled;
    std::vector<std::string> fresh;
    std::error_code ec;
    for (const auto &entry :
         fs::directory_iterator(opts.dropDir, ec)) {
        if (ec)
            break;
        if (!entry.is_regular_file())
            continue;
        std::string p = entry.path().string();
        if (entry.path().extension() != ".spec")
            continue;
        if (ingestedFiles.count(p))
            continue;
        std::error_code size_ec, time_ec;
        SpecStamp stamp{fs::file_size(entry.path(), size_ec),
                        fs::last_write_time(entry.path(), time_ec)};
        if (size_ec || time_ec)
            continue;
        auto seen = pendingSpecs.find(p);
        if (seen != pendingSpecs.end() && seen->second == stamp)
            fresh.push_back(p);
        else
            unsettled.emplace(p, stamp);
    }
    pendingSpecs = std::move(unsettled);
    // Deterministic ingest order when several specs land between
    // scans (directory iteration order is unspecified).
    std::sort(fresh.begin(), fresh.end());
    size_t ingested = 0;
    for (const std::string &p : fresh) {
        // Rejected specs are remembered too: re-parsing the same
        // broken file every scan would spam the log. Clients
        // resubmit under a new name.
        ingestedFiles.insert(p);
        if (ingestSpec(p))
            ++ingested;
    }
    return ingested;
}

void
CampaignService::writeStatusJson(
    const ActiveCampaign &c, size_t claimed,
    const std::vector<obs::WorkerTelemetry> &fleet) const
{
    std::ostringstream os;
    os << "{\n"
       << "  \"schema_version\": 2,\n"
       << "  \"campaign\": \"" << jsonEscape(c.name) << "\",\n"
       << "  \"spec\": \""
       << jsonEscape(c.campaign.specRef().contentSummary()) << "\",\n"
       << "  \"state\": \""
       << (c.complete ? "complete" : "running") << "\",\n"
       << "  \"total_jobs\": " << c.result.jobs.size() << ",\n"
       << "  \"done_jobs\": " << c.doneCount << ",\n"
       << "  \"claimed_jobs\": " << claimed << ",\n"
       << "  \"metrics\": ";
    obs::metricsWriteJson(os, "  ");
    os << ",\n  \"workers\": [";
    bool first = true;
    for (const obs::WorkerTelemetry &w : fleet) {
        os << (first ? "\n" : ",\n") << "    {\"worker\": \""
           << jsonEscape(w.worker) << "\", \"jobs\": " << w.jobs
           << ", \"hits\": " << w.hits
           << ", \"acquired\": " << w.acquired
           << ", \"stolen\": " << w.stolen
           << ", \"seconds\": " << w.seconds
           << ", \"jobs_per_second\": " << w.jobsPerSecond
           << ", \"hit_rate\": " << w.hitRate
           << ", \"age_seconds\": " << w.ageSeconds << "}";
        first = false;
    }
    os << (first ? "" : "\n  ") << "]\n"
       << "}\n";
    atomicWriteFile(campaignDir(c.name) + "/status.json",
                    os.str(), "service status");
}

void
CampaignService::updateStatus()
{
    // One directory read serves every campaign's workers table
    // this pass (the table is fleet-wide, not per-campaign).
    std::vector<obs::WorkerTelemetry> fleet =
        obs::readFleetTelemetry(opts.cacheDir);
    MutexLock lock(mutex);
    for (auto &cp : campaigns) {
        ActiveCampaign &c = *cp;
        if (c.reported)
            continue;
        if (c.complete) {
            // The runner has written the final exports.
            writeStatusJson(c, 0, fleet);
            c.reported = true;
            continue;
        }
        // Progress is what the shared cache holds, whoever measured
        // it.
        const std::vector<CampaignJob> &jobs = c.result.jobs;
        size_t claimed = 0;
        for (size_t j = 0; j < jobs.size(); ++j) {
            if (!c.done[j]) {
                if (cache.contains(jobs[j].key)) {
                    c.done[j] = 1;
                    ++c.doneCount;
                } else if (claims.live(jobs[j].key)) {
                    ++claimed;
                }
            }
        }
        if (c.doneCount != c.exportedDone) {
            // Incremental results: the samples measured so far, in
            // manifest order with open jobs skipped — consumers
            // can start model fitting before the campaign ends.
            std::vector<Sample> partial;
            partial.reserve(c.doneCount);
            for (size_t j = 0; j < jobs.size(); ++j) {
                if (!c.done[j])
                    continue;
                const CampaignJob &job = jobs[j];
                const Program &prog =
                    c.result.workloads[job.workload].program;
                auto id = jobIdentity(c.machine, job, prog.name);
                Sample s;
                if (cache.peek(job.key, id, s))
                    partial.push_back(std::move(s));
            }
            writeExports(campaignDir(c.name) + "/partial", partial);
            c.exportedDone = c.doneCount;
        }
        writeStatusJson(c, claimed, fleet);
    }
}

void
CampaignService::measureLoop()
{
    while (!stopRequested.load()) {
        ActiveCampaign *next = nullptr;
        {
            MutexLock lock(mutex);
            for (const auto &cp : campaigns)
                if (!cp->complete) {
                    next = cp.get();
                    break;
                }
        }
        if (!next) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(opts.pollSeconds));
            continue;
        }
        // The campaign's own --serve worker: it returns once every
        // job is in the cache, with every sample in job order
        // (peer-measured ones collected, vanished ones re-measured).
        ActiveCampaign &c = *next;
        c.campaign.measureJobs(c.result);
        writeExports(campaignDir(c.name) + "/samples", c.result.samples);
        // The exports hold the samples now; a long-lived service
        // keeps only each campaign's expansion.
        c.result.samples = {};
        const size_t jobs = c.result.jobs.size();
        {
            MutexLock lock(mutex);
            c.doneCount = jobs;
            c.complete = true;
        }
        inform(cat("service: campaign '", c.name, "' complete (", jobs,
                   " samples exported)"));
    }
}

std::vector<ServiceCampaignStatus>
CampaignService::statuses() const
{
    MutexLock lock(mutex);
    std::vector<ServiceCampaignStatus> out;
    out.reserve(campaigns.size());
    for (const auto &cp : campaigns)
        out.push_back({cp->name, cp->result.jobs.size(), cp->doneCount,
                       cp->complete});
    return out;
}

size_t
CampaignService::run()
{
    int threads = resolveThreads(opts.threads, "service");
    inform(cat("service: watching ", opts.dropDir, " (pool ",
               opts.cacheDir, ", results ", opts.resultsDir,
               ") as worker ", claims.workerId(), " with ",
               threads, threads == 1 ? " thread" : " threads"));
    runner = std::thread([this]() { measureLoop(); });

    while (!stopRequested.load()) {
        size_t ingested = ingestScan();
        updateStatus();
        bool idle;
        {
            MutexLock lock(mutex);
            idle = std::all_of(campaigns.begin(), campaigns.end(),
                               [](const auto &c) {
                                   return c->complete;
                               });
        }
        if (opts.exitWhenIdle && idle && ingested == 0 &&
            pendingSpecs.empty())
            break;
        std::this_thread::sleep_for(
            std::chrono::duration<double>(opts.pollSeconds));
    }

    stopRequested.store(true);
    runner.join();
    // A final pass so a campaign the runner finished during the
    // wind-down reports complete in status.json.
    updateStatus();

    MutexLock lock(mutex);
    size_t completed = 0;
    for (const auto &c : campaigns)
        if (c->complete)
            ++completed;
    inform(cat("service: exiting; ", completed, " of ",
               campaigns.size(), " ingested campaigns complete"));
    return completed;
}

} // namespace mprobe
