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
#include "util/hash.hh"
#include "util/logging.hh"

namespace mprobe
{

namespace fs = std::filesystem;

CampaignService::ActiveCampaign::ActiveCampaign(std::string name_,
                                                CampaignSpec spec_,
                                                Architecture arch_)
    : name(std::move(name_)), spec(std::move(spec_)),
      arch(std::move(arch_)),
      machine(arch.isa(), arch.uarch().cacheGeometries(),
              arch.uarch().clockGhz())
{
}

CampaignService::CampaignService(ServiceOptions o)
    : opts(std::move(o)), cache(opts.cacheDir),
      claims(opts.cacheDir, opts.workerId, opts.claimTtlSeconds),
      queue(cache, claims)
{
    if (opts.dropDir.empty() || opts.cacheDir.empty() ||
        opts.resultsDir.empty())
        fatal("service: --drop-dir, --cache-dir and --results-dir "
              "are all required (specs arrive in the first, the "
              "fleet's pool lives in the second, per-campaign "
              "results stream into the third)");
    if (opts.pollSeconds <= 0.0 || opts.statusSeconds <= 0.0)
        fatal("service: poll/status periods must be > 0 seconds");
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
    for (auto &w : workers)
        if (w.joinable())
            w.join();
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
        CampaignSpec spec = loadCampaignSpec(path);
        if (spec.sharded() || spec.serve)
            warn(cat("service: campaign '", name,
                     "': shard/serve keys are meaningless under "
                     "the service (the pool is dynamic) and were "
                     "ignored"));
        // The service owns execution: one shared cache + claim
        // pool, a per-campaign manifest directory, and serial
        // generation (the guard above is thread-local, so fatal()
        // on a generation worker thread would still exit).
        spec.cacheDir = opts.cacheDir;
        spec.manifestDir = campaignDir(name);
        spec.serve = false;
        spec.shardIndex = 0;
        spec.shardCount = 1;
        spec.threads = 1;
        spec.suite.threads = 1;

        auto c = std::make_unique<ActiveCampaign>(
            name, std::move(spec),
            Architecture::get(opts.archName));
        inform(cat("service: ingesting campaign '", name, "' (",
                   c->spec.contentSummary(), ")"));
        Campaign campaign(c->machine, c->spec);
        CampaignExpansion ex = campaign.expand(c->arch);
        c->workloads = std::move(ex.workloads);
        c->jobs = std::move(ex.jobs);
        c->done.assign(c->jobs.size(), 0);

        std::vector<PoolJob> pjobs;
        pjobs.reserve(c->jobs.size());
        {
            MutexLock lock(mutex);
            for (size_t j = 0; j < c->jobs.size(); ++j) {
                pjobs.push_back({c->jobs[j].key, pool.size(),
                                 c->jobs[j].cost});
                pool.push_back({c.get(), j});
            }
            campaigns.push_back(std::move(c));
        }
        queue.push(pjobs);
        obs::counter("specs_ingested").add();
        inform(cat("service: campaign '", name, "' queued (",
                   pjobs.size(), " jobs in the shared pool)"));
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
        fresh.push_back(p);
    }
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
       << "  \"spec\": \"" << jsonEscape(c.spec.contentSummary())
       << "\",\n"
       << "  \"state\": \""
       << (c.complete ? "complete" : "running") << "\",\n"
       << "  \"total_jobs\": " << c.jobs.size() << ",\n"
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
        if (c.complete)
            continue;
        // Fold in peer progress: jobs this process never ran but
        // whose results appeared in the shared cache.
        size_t claimed = 0;
        for (size_t j = 0; j < c.jobs.size(); ++j) {
            if (!c.done[j]) {
                if (cache.contains(c.jobs[j].key)) {
                    c.done[j] = 1;
                    ++c.doneCount;
                } else {
                    ClaimInfo info;
                    if (claims.info(c.jobs[j].key, info) &&
                        info.ageSeconds <= claims.ttlSeconds())
                        ++claimed;
                }
            }
        }
        bool finished = c.doneCount == c.jobs.size();
        if (finished) {
            // Final export: every job, manifest (= job) order —
            // byte-identical to a standalone run of the spec. A
            // cached entry gone corrupt since the drain is
            // re-measured here rather than exported as a hole.
            std::vector<Sample> samples(c.jobs.size());
            for (size_t j = 0; j < c.jobs.size(); ++j) {
                const CampaignJob &job = c.jobs[j];
                const Program &prog =
                    c.workloads[job.workload].program;
                auto id = jobIdentity(c.machine, job, prog.name);
                if (cache.peek(job.key, id, samples[j]))
                    continue;
                warn(cat("service: campaign '", c.name, "': job ",
                         j, " vanished from the cache or was "
                         "rejected; re-measuring"));
                uint64_t salt = hashCombine(job.key, 0x5a17ull);
                samples[j] = makeSample(
                    prog.name, c.machine.run(prog, job.config,
                                             jobPoint(c.machine, job),
                                             salt));
                cache.store(job.key, samples[j]);
            }
            std::ostringstream csv, json;
            exportSamplesCsv(csv, samples);
            exportSamplesJson(json, samples);
            atomicWriteFile(campaignDir(c.name) + "/samples.csv",
                            csv.str(), "service export");
            atomicWriteFile(campaignDir(c.name) + "/samples.json",
                            json.str(), "service export");
            c.complete = true;
            writeStatusJson(c, 0, fleet);
            inform(cat("service: campaign '", c.name,
                       "' complete (", c.jobs.size(),
                       " samples exported)"));
            continue;
        }
        if (c.doneCount != c.exportedDone) {
            // Incremental results: the samples measured so far, in
            // manifest order with open jobs skipped — consumers
            // can start model fitting before the campaign ends.
            std::vector<Sample> partial;
            partial.reserve(c.doneCount);
            for (size_t j = 0; j < c.jobs.size(); ++j) {
                if (!c.done[j])
                    continue;
                const CampaignJob &job = c.jobs[j];
                const Program &prog =
                    c.workloads[job.workload].program;
                auto id = jobIdentity(c.machine, job, prog.name);
                Sample s;
                if (cache.peek(job.key, id, s))
                    partial.push_back(std::move(s));
            }
            std::ostringstream csv, json;
            exportSamplesCsv(csv, partial);
            exportSamplesJson(json, partial);
            atomicWriteFile(campaignDir(c.name) + "/partial.csv",
                            csv.str(), "service export");
            atomicWriteFile(campaignDir(c.name) + "/partial.json",
                            json.str(), "service export");
            c.exportedDone = c.doneCount;
        }
        writeStatusJson(c, claimed, fleet);
    }
}

void
CampaignService::drainLoop()
{
    while (!stopRequested.load()) {
        size_t gi = 0;
        ClaimedQueue::Pull pull = queue.next(gi);
        if (pull != ClaimedQueue::Pull::Job) {
            // Wait: live peers hold everything open. Drained: the
            // pool is momentarily empty, but the watcher may
            // ingest more work — only stopRequested ends a
            // worker.
            std::this_thread::sleep_for(
                std::chrono::duration<double>(opts.pollSeconds));
            continue;
        }
        PoolRef ref;
        {
            MutexLock lock(mutex);
            ref = pool[gi];
        }
        ActiveCampaign &c = *ref.campaign;
        const CampaignJob &job = c.jobs[ref.job];
        {
            obs::TraceSpan jspan("service.job");
            const Program &prog = c.workloads[job.workload].program;
            auto id = jobIdentity(c.machine, job, prog.name);
            Sample s;
            if (cache.lookup(job.key, id, s)) {
                obs::counter("cache_hits").add();
                jspan.note("cached", 1);
            } else {
                obs::counter("cache_misses").add();
                jspan.note("cached", 0);
                uint64_t salt = hashCombine(job.key, 0x5a17ull);
                s = makeSample(
                    prog.name, c.machine.run(prog, job.config,
                                             jobPoint(c.machine, job),
                                             salt));
                cache.store(job.key, s);
            }
            jspan.note("cost_est", job.cost);
        }
        jobsRun.fetch_add(1);
        queue.complete(gi);
        {
            MutexLock lock(mutex);
            if (!c.done[ref.job]) {
                c.done[ref.job] = 1;
                ++c.doneCount;
            }
        }
    }
}

std::vector<ServiceCampaignStatus>
CampaignService::statuses() const
{
    MutexLock lock(mutex);
    std::vector<ServiceCampaignStatus> out;
    out.reserve(campaigns.size());
    for (const auto &cp : campaigns)
        out.push_back({cp->name, cp->jobs.size(), cp->doneCount, 0,
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
    workers.reserve(static_cast<size_t>(threads));
    for (int t = 0; t < threads; ++t)
        workers.emplace_back([this]() { drainLoop(); });

    // lint: wallclock-ok(worker-telemetry heartbeat only)
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    // This worker's fleet-telemetry heartbeat: published every
    // watcher pass, read back (with every peer's) by updateStatus
    // into the status.json workers table.
    auto publishTelemetry = [&]() {
        obs::WorkerTelemetry t;
        t.worker = claims.workerId();
        t.jobs = jobsRun.load();
        t.hits = cache.hits();
        t.acquired = claims.acquired();
        t.stolen = claims.stolen();
        t.seconds =
            std::chrono::duration<double>(clock::now() - t0)
                .count();
        t.jobsPerSecond =
            t.seconds > 0.0
                ? static_cast<double>(t.jobs) / t.seconds
                : 0.0;
        size_t looked = cache.hits() + cache.misses();
        t.hitRate = looked > 0
                        ? static_cast<double>(cache.hits()) /
                              static_cast<double>(looked)
                        : 0.0;
        obs::writeWorkerTelemetry(opts.cacheDir, t);
    };

    while (!stopRequested.load()) {
        size_t ingested = ingestScan();
        // One live thread refreshing every held claim keeps
        // single-worker fleets from stealing their own long jobs.
        claims.heartbeatHeld();
        publishTelemetry();
        updateStatus();
        bool idle;
        {
            MutexLock lock(mutex);
            idle = std::all_of(campaigns.begin(), campaigns.end(),
                               [](const auto &c) {
                                   return c->complete;
                               });
        }
        if (opts.exitWhenIdle && idle && ingested == 0)
            break;
        std::this_thread::sleep_for(
            std::chrono::duration<double>(opts.pollSeconds));
    }

    stopRequested.store(true);
    for (auto &w : workers)
        w.join();
    workers.clear();
    // A final fold so completions that raced the loop exit still
    // land in status.json / samples.csv — with this worker's last
    // telemetry snapshot folded into the workers table first.
    publishTelemetry();
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
