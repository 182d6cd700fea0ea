/**
 * @file
 * Campaign engine implementation.
 */

#include "campaign/campaign.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <thread>

#include "campaign/claims.hh"
#include "campaign/manifest.hh"
#include "campaign/queue.hh"
#include "microprobe/bootstrap.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/hash.hh"
#include "util/logging.hh"
#include "workloads/daxpy.hh"
#include "workloads/extremes.hh"
#include "workloads/spec_proxies.hh"

namespace mprobe
{

uint64_t
campaignJobKey(const Program &prog, const ChipConfig &cfg,
               uint64_t machine_fingerprint, uint64_t salt,
               double freq_ghz, double vdd_volts)
{
    return campaignJobKeys(prog, {{cfg, freq_ghz, vdd_volts}},
                           machine_fingerprint, salt)
        .front();
}

std::vector<uint64_t>
campaignJobKeys(const Program &prog,
                const std::vector<JobKeyPoint> &points,
                uint64_t machine_fingerprint, uint64_t salt)
{
    // A key is one byte sequence: the point's head, then the
    // program's bytes. Each head is hashed on its own...
    std::vector<uint64_t> heads;
    heads.reserve(points.size());
    for (const JobKeyPoint &pt : points) {
        Hasher h;
        h.add(kCacheSchemaVersion);
        h.add(machine_fingerprint).add(salt);
        h.add(pt.config.cores).add(pt.config.smt);
        // The nominal operating point (freqGhz == 0) hashes exactly
        // like a pre-DVFS job, so old cache entries keep hitting.
        if (pt.freqGhz > 0.0)
            h.add(pt.freqGhz);
        // An on-curve voltage (vdd == 0) hashes exactly like a
        // pre-undervolting job. The tag domain-separates the axes:
        // without it, (freq X, on-curve) and (nominal, vdd X)
        // would collide.
        if (pt.vdd > 0.0) {
            h.add(static_cast<uint64_t>(0x7dd0));
            h.add(pt.vdd);
        }
        heads.push_back(h.digest());
    }
    // ...and the program's bytes, the same for every point,
    // continue all heads together. The sensor-noise seed hashes the
    // program name, so the name is result-relevant and must be part
    // of the key.
    LaneHasher lanes(std::move(heads));
    lanes.add(prog.name);
    lanes.add(prog.body.size());
    for (const auto &pi : prog.body) {
        lanes.add(pi.op).add(pi.depDist).add(pi.stream);
        lanes.add(static_cast<double>(pi.toggle));
        lanes.add(static_cast<double>(pi.takenRate));
    }
    lanes.add(prog.streams.size());
    for (const auto &st : prog.streams) {
        lanes.add(st.lines.size());
        for (uint64_t line : st.lines)
            lanes.add(line);
    }
    return lanes.digests();
}

uint64_t
campaignFingerprint(const CampaignSpec &spec,
                    uint64_t machine_fingerprint)
{
    Hasher h;
    h.add(machine_fingerprint).add(spec.salt);
    h.add(spec.configs.size());
    for (const auto &cfg : spec.configs)
        h.add(cfg.cores).add(cfg.smt);
    // The frequency axis joins the fingerprint only when present:
    // axis-free campaigns keep the exact pre-DVFS fingerprint, so
    // their existing manifests stay resumable.
    if (!spec.freqs.empty()) {
        h.add(spec.freqs.size());
        for (double f : spec.freqs)
            h.add(f);
    }
    // Same for the voltage axis, tagged so a vdds-only spec cannot
    // collide with a freqs-only one.
    if (!spec.vdds.empty()) {
        h.add(static_cast<uint64_t>(0x7dd5));
        h.add(spec.vdds.size());
        for (double v : spec.vdds)
            h.add(v);
    }
    h.add(spec.suiteEnabled).add(spec.specProxies);
    h.add(spec.daxpy).add(spec.extremes);
    // Effective category restriction: the Campaign constructor
    // syncs spec.categories into suite.categories, so hash the one
    // that wins regardless of whether the sync ran yet.
    const auto &cats = spec.categories.empty()
                           ? spec.suite.categories
                           : spec.categories;
    h.add(cats.size());
    for (BenchCategory c : cats)
        h.add(static_cast<int>(c));
    const SuiteOptions &so = spec.suite;
    h.add(so.bodySize).add(so.perMemoryGroup).add(so.memoryCount);
    h.add(so.randomCount).add(so.ipcSearchBudget);
    h.add(so.gaPopulation).add(so.gaGenerations);
    h.add(so.extendUnitMix).add(so.seed);
    h.add(spec.bootstrap);
    // The slot a measure() corpus tag used to fill: hashing its zero
    // keeps existing manifests resumable.
    h.add(static_cast<uint64_t>(0));
    return h.digest();
}

namespace
{

/** The operating point @p job measures at (and every cache reader
 * checks): the machine's curve point at the job's frequency, with
 * the voltage overridden when the job sweeps an off-curve vdd. */
OperatingPoint
jobPoint(const Machine &machine, const CampaignJob &job)
{
    OperatingPoint op = machine.operatingPoint(job.freqGhz);
    if (job.vdd > 0.0)
        op.voltage = job.vdd;
    return op;
}

/**
 * Time-throttled election among worker threads: true for exactly
 * one caller once @p elapsed_ms reaches the deadline in @p next,
 * which that caller moves on to @p elapsed_ms + @p period_ms.
 */
bool
electDue(std::atomic<int64_t> &next, int64_t elapsed_ms, int64_t period_ms)
{
    int64_t deadline = next.load();
    return elapsed_ms >= deadline &&
           next.compare_exchange_strong(deadline, elapsed_ms + period_ms);
}

} // namespace

SampleIdentity
jobIdentity(const Machine &machine, const CampaignJob &job,
            const std::string &workload)
{
    OperatingPoint op = jobPoint(machine, job);
    return {workload, job.config, op.freqGhz, op.voltage};
}

JobExecutor::JobExecutor(const Machine &m, ResultCache &c)
    : machine(m), cache(c)
{
}

bool
JobExecutor::run(const CampaignJob &job, const Program &prog, Sample &out,
                 double *seconds, std::unique_ptr<Machine::Batch> *batch) const
{
    // Registered once (the registry lookup locks). Buckets span
    // cache hits (µs) through heavy cold simulations.
    static obs::Histogram &hist = obs::histogram(
        "job_seconds", {0.0001, 0.001, 0.01, 0.1, 1.0, 10.0});
    // lint: wallclock-ok(per-job seconds: span, histogram, --metrics-json)
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    obs::TraceSpan span("campaign.job");
    auto id = jobIdentity(machine, job, prog.name);
    bool cached = cache.lookup(job.key, id, out);
    if (cached) {
        static obs::Counter &hits = obs::counter("cache_hits");
        hits.add();
    } else {
        static obs::Counter &misses = obs::counter("cache_misses");
        misses.add();
        if (batch && !*batch)
            batch->reset(new Machine::Batch(machine, prog));
        out = measure(job, prog, batch ? batch->get() : nullptr);
    }
    double dt = std::chrono::duration<double>(clock::now() - t0).count();
    hist.observe(dt);
    span.note("cached", cached);
    span.note("cost_est", job.cost);
    span.note("seconds", dt);
    if (seconds)
        *seconds = dt;
    return cached;
}

bool
JobExecutor::collect(const CampaignJob &job, const Program &prog,
                     Sample &out) const
{
    if (cache.peek(job.key, jobIdentity(machine, job, prog.name), out))
        return false;
    out = measure(job, prog, nullptr);
    return true;
}

Sample
JobExecutor::measure(const CampaignJob &job, const Program &prog,
                     Machine::Batch *batch) const
{
    // The measurement salt derives from the job's content hash,
    // never from scheduling, so repeated sensor noise matches the
    // serial reference run and the cache exactly.
    uint64_t salt = hashCombine(job.key, 0x5a17ull);
    OperatingPoint op = jobPoint(machine, job);
    RunResult r = batch ? batch->run(job.config, op, salt)
                        : machine.run(prog, job.config, op, salt);
    Sample s = makeSample(prog.name, r);
    cache.store(job.key, s);
    return s;
}

Campaign::Campaign(const Machine &m, CampaignSpec s)
    : machine(m), spec(std::move(s)), cache(spec.cacheDir),
      machineFp(m.fingerprint())
{
    spec.threads = resolveThreads(spec.threads, "campaign");
    if (spec.configs.empty())
        fatal("campaign: no configurations to deploy on");
    if (spec.shardCount < 1 || spec.shardIndex < 0 ||
        spec.shardIndex >= spec.shardCount)
        fatal(cat("campaign: bad shard ", spec.shardIndex, "/",
                  spec.shardCount,
                  " (want 0 <= index < count)"));
    if (spec.sharded() && !cache.enabled())
        fatal("campaign: sharded execution needs a cache "
              "directory shared by all shards (results live "
              "there; --merge assembles them)");
    if (spec.serve && spec.sharded())
        fatal("campaign: --serve replaces --shard (claim-based "
              "workers partition the pool dynamically); use one "
              "or the other");
    if (spec.serve && !cache.enabled())
        fatal("campaign: --serve needs a cache directory shared "
              "by the worker fleet (claims and results live "
              "there)");
    if (spec.serve && spec.claimTtlSeconds <= 0.0)
        fatal("campaign: claim TTL must be > 0 seconds");
    if (spec.serve && spec.claimPollSeconds <= 0.0)
        fatal("campaign: claim poll interval must be > 0 seconds");
    // A restriction set on spec.categories reaches the suite
    // generator without the caller having to mirror it into
    // suite.categories; one set directly on SuiteOptions is left
    // alone.
    if (!spec.categories.empty())
        spec.suite.categories = spec.categories;
}

std::vector<CampaignWorkload>
Campaign::expandWorkloads(Architecture &arch)
{
    obs::TraceSpan span("campaign.generate");
    std::vector<CampaignWorkload> out;

    if (spec.suiteEnabled) {
        if (spec.bootstrap) {
            inform("campaign: bootstrapping the architecture");
            BootstrapOptions bo;
            bo.bodySize = spec.suite.bodySize;
            bo.seed = spec.suite.seed ^ 0xb007ull;
            bo.threads = spec.suite.threads;
            bootstrapArchitecture(arch, machine, bo);
        }
        inform("campaign: generating suite workloads");
        for (auto &gb : generateTable2Suite(arch, machine,
                                            spec.suite)) {
            CampaignWorkload w;
            w.source = benchCategoryName(gb.category);
            w.group = gb.group;
            w.program = std::move(gb.program);
            out.push_back(std::move(w));
        }
    }
    if (spec.specProxies) {
        inform("campaign: generating SPEC proxies");
        for (auto &p : generateSpecProxies(arch, spec.suite.bodySize,
                                           spec.suite.seed)) {
            CampaignWorkload w;
            w.source = "SPEC";
            w.program = std::move(p);
            out.push_back(std::move(w));
        }
    }
    if (spec.daxpy) {
        inform("campaign: generating DAXPY kernels");
        for (auto &p : generateDaxpySet(arch, spec.suite.bodySize)) {
            CampaignWorkload w;
            w.source = "DAXPY";
            w.program = std::move(p);
            out.push_back(std::move(w));
        }
    }
    if (spec.extremes) {
        inform("campaign: generating extreme cases");
        for (auto &e : generateExtremeCases(arch,
                                            spec.suite.bodySize,
                                            spec.suite.seed)) {
            CampaignWorkload w;
            w.source = "Extreme";
            w.group = e.name;
            w.program = std::move(e.program);
            out.push_back(std::move(w));
        }
    }
    if (out.empty())
        fatal("campaign: spec expanded to no workloads");
    span.note("workloads", static_cast<double>(out.size()));
    return out;
}

std::vector<CampaignJob>
Campaign::expandJobs(
    const std::vector<CampaignWorkload> &workloads,
    const std::vector<std::vector<ChipConfig>> &configs_per) const
{
    obs::TraceSpan span("campaign.expand");
    if (configs_per.size() != workloads.size())
        fatal("campaign: one config list per workload required");
    // The frequency axis, normalized to job form: an empty axis is
    // the nominal point alone, and a swept frequency equal to the
    // machine's nominal clock collapses to the legacy
    // frequency-free key (0) so it shares pre-DVFS cache entries.
    std::vector<double> freq_axis;
    if (spec.freqs.empty()) {
        freq_axis.push_back(0.0);
    } else {
        for (double f : spec.freqs)
            freq_axis.push_back(f == machine.clockGhz() ? 0.0 : f);
    }
    // The voltage axis cross-products with the frequency axis. A
    // swept voltage equal to the curve's voltage at the job's
    // effective frequency collapses to the on-curve vdd-free key
    // (0) so it shares pre-undervolting cache entries.
    std::vector<double> vdd_axis;
    if (spec.vdds.empty())
        vdd_axis.push_back(0.0);
    else
        vdd_axis = spec.vdds;
    std::vector<CampaignJob> jobs;
    std::vector<JobKeyPoint> points;
    for (size_t w = 0; w < workloads.size(); ++w) {
        const Program &prog = workloads[w].program;
        if (configs_per[w].empty())
            fatal(cat("campaign: workload '", prog.name,
                      "' has no configurations to deploy on"));
        points.clear();
        for (const auto &cfg : configs_per[w])
            for (double f : freq_axis)
                for (double v : vdd_axis) {
                    double f_eff =
                        f > 0.0 ? f : machine.clockGhz();
                    double v_eff =
                        v > 0.0 &&
                                v != machine.voltageAt(f_eff)
                            ? v
                            : 0.0;
                    points.push_back({cfg, f, v_eff});
                }
        // Every key of one workload in one pass over its program.
        std::vector<uint64_t> keys =
            campaignJobKeys(prog, points, machineFp, spec.salt);
        for (size_t k = 0; k < points.size(); ++k)
            jobs.push_back(
                {w, points[k].config, keys[k],
                 JobCostModel().estimate(points[k].config,
                                         prog.body.size()),
                 points[k].freqGhz, points[k].vdd});
    }
    span.note("jobs", static_cast<double>(jobs.size()));
    return jobs;
}

void
Campaign::writeManifest(const CampaignResult &res) const
{
    const std::string &mdir = spec.manifestDirectory();
    if (mdir.empty())
        return;
    CampaignManifest m;
    m.spec = spec.contentSummary();
    m.fingerprint = campaignFingerprint(spec, machineFp);
    // What operatingPoint() resolves jobs from, so --merge needs no
    // --arch to check them.
    const GroundTruthParams &gt = machine.groundTruth();
    m.curve = {machine.clockGhz(), gt.vddNominal, gt.vddSlopePerGhz,
               gt.vddFloor};
    m.entries.reserve(res.jobs.size());
    for (const auto &job : res.jobs) {
        const CampaignWorkload &w = res.workloads[job.workload];
        m.entries.push_back({job.key, job.config, w.source,
                             w.program.name, job.freqGhz, job.vdd});
    }
    // Every shard of one campaign persists the identical full job
    // list, so a manifest of the same campaign is merged, not
    // rewritten. The service points manifestDir at a per-campaign
    // directory so many concurrent campaigns can share one cache.
    std::error_code ec;
    std::filesystem::create_directories(mdir, ec);
    mergeSaveManifest(manifestPath(mdir), m);
}

void
Campaign::runJobs(CampaignResult &res)
{
    const std::vector<CampaignWorkload> &workloads = res.workloads;
    const std::vector<CampaignJob> &jobs = res.jobs;
    std::string shard_tag =
        spec.sharded() ? cat(" [shard ", spec.shardIndex, "/",
                             spec.shardCount, " of ",
                             res.totalJobs, " campaign jobs]")
                       : std::string();
    inform(cat("campaign: measuring ", jobs.size(), " jobs (",
               workloads.size(), " workloads) on ", spec.threads,
               spec.threads == 1 ? " thread" : " threads",
               shard_tag));

    // Progress reporting: an atomic completion counter plus a
    // time-throttled reporter election (electDue, so exactly one
    // worker prints each line). The denominator is this call's job
    // count; under a shard the campaign-wide total gives context.
    // lint: wallclock-ok(progress/ETA and claim heartbeats only)
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    const int64_t every_ms =
        spec.progressSeconds > 0
            ? static_cast<int64_t>(spec.progressSeconds * 1000.0)
            : 0;
    std::atomic<size_t> done{0};
    std::atomic<size_t> cached{0};
    std::atomic<int64_t> next_report_ms{every_ms};
    // Cost-weighted ETA: cold estimated cost retired over elapsed
    // time gives the observed cost/sec; remaining cost divided by
    // it is the estimate. Cache hits retire their cost in
    // microseconds, so they are tracked separately — counting them
    // as work done would inflate the rate and report "~0s left"
    // on a half-warm resume. Accumulated in milli-cost units
    // because C++17 std::atomic<double> has no fetch_add.
    double total_cost = 0.0;
    for (const auto &job : jobs)
        total_cost += job.cost;
    std::atomic<int64_t> cold_cost_milli{0};
    std::atomic<int64_t> cached_cost_milli{0};

    // Batched execution: jobs sharing a workload and SMT mode form
    // one group served by a decode-once Machine::Batch. Its core
    // simulations come from the machine's memo, which every path
    // and group shares (the core-level simulation depends only on
    // the program, the SMT mode and the effective memory latency;
    // core count enters through counter scaling and the contention
    // latency). So groups exist for the one decode per group and
    // for the per-group batch counters, which perfbench's replay
    // mirrors.
    std::map<std::pair<size_t, int>, size_t> group_of;
    std::vector<std::vector<size_t>> groups;
    for (size_t i = 0; i < jobs.size(); ++i) {
        auto key =
            std::make_pair(jobs[i].workload, jobs[i].config.smt);
        auto it = group_of.find(key);
        if (it == group_of.end()) {
            group_of.emplace(key, groups.size());
            groups.push_back({i});
        } else {
            groups[it->second].push_back(i);
        }
    }

    // Longest-first draining at both levels: the costliest groups
    // start first so the pool drains without a long-tail straggler
    // holding the last worker, and each group retires its own
    // costliest members first. Only the *execution* order changes
    // — each job still writes its own slot, so samples stay in job
    // order and results are identical to a serial in-order run.
    std::vector<double> group_cost(groups.size(), 0.0);
    for (size_t g = 0; g < groups.size(); ++g) {
        for (size_t i : groups[g])
            group_cost[g] += jobs[i].cost;
        std::stable_sort(groups[g].begin(), groups[g].end(),
                         [&](size_t a, size_t b) {
                             return jobs[a].cost > jobs[b].cost;
                         });
    }
    std::vector<size_t> exec_order(groups.size());
    std::iota(exec_order.begin(), exec_order.end(), 0);
    std::stable_sort(exec_order.begin(), exec_order.end(),
                     [&](size_t a, size_t b) {
                         return group_cost[a] > group_cost[b];
                     });

    // Each job writes only its own slot: no result synchronization,
    // and sample order is scheduling-independent by construction.
    JobExecutor exec(machine, cache);
    parallelFor(spec.threads, groups.size(), [&](size_t q) {
        // One decode per group, deferred until a member misses the
        // cache: an all-hit group never decodes or simulates.
        std::unique_ptr<Machine::Batch> batch;
        for (size_t i : groups[exec_order[q]]) {
            const CampaignJob &job = jobs[i];
            res.jobCached[i] = exec.run(job, workloads[job.workload].program,
                                        res.samples[i], &res.jobSeconds[i],
                                        &batch);
            if (res.jobCached[i])
                ++cached;
            (res.jobCached[i] ? cached_cost_milli : cold_cost_milli)
                .fetch_add(static_cast<int64_t>(
                    std::llround(job.cost * 1000.0)));
            size_t k = ++done;
            if (every_ms <= 0 || k == jobs.size())
                continue;
            int64_t elapsed =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    clock::now() - t0)
                    .count();
            if (electDue(next_report_ms, elapsed, every_ms)) {
                // ETA from the cold cost actually retired so far, not
                // from job counts: with mixed configs the heavy jobs
                // run first, so count-based estimates would overshoot
                // (and cache hits would make everything look free).
                double cold_cost = static_cast<double>(
                                       cold_cost_milli.load()) /
                                   1000.0;
                double remaining =
                    total_cost - cold_cost -
                    static_cast<double>(cached_cost_milli.load()) /
                        1000.0;
                // A degenerate observed rate — an all-cached or
                // instant-job prefix has retired no cold cost yet, or
                // the clock has not advanced — cannot support an
                // estimate; say so instead of printing a nonsense
                // number (a 0-cost rate would divide to inf; a
                // negative remainder would print "-3s left").
                std::string eta = ", warming up";
                if (cold_cost > 0.0 && elapsed > 0) {
                    double rate =
                        cold_cost /
                        (static_cast<double>(elapsed) / 1000.0);
                    if (rate > 0.0 && std::isfinite(rate))
                        eta = cat(", ~",
                                  std::lround(
                                      std::max(0.0, remaining) /
                                      rate),
                                  "s left");
                }
                inform(cat("campaign: ", k, " of ", jobs.size(),
                           " jobs done, ", cached.load(), " cached",
                           eta, shard_tag));
            }
        }
    }, "campaign measure");
}

void
Campaign::runClaimed(CampaignResult &res)
{
    const std::vector<CampaignWorkload> &workloads = res.workloads;
    const std::vector<CampaignJob> &jobs = res.jobs;
    ClaimDir claimdir(spec.cacheDir, spec.workerId,
                      spec.claimTtlSeconds);
    std::vector<PoolJob> pool;
    pool.reserve(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i)
        pool.push_back({jobs[i].key, i, jobs[i].cost});
    ClaimedQueue queue(cache, claimdir, std::move(pool));

    inform(cat("campaign: serving ", jobs.size(),
               " pool jobs as worker ", claimdir.workerId(),
               " (claim TTL ", spec.claimTtlSeconds, "s) on ",
               spec.threads,
               spec.threads == 1 ? " thread" : " threads"));

    // lint: wallclock-ok(progress lines and telemetry cadence only)
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    const int64_t every_ms =
        spec.progressSeconds > 0
            ? static_cast<int64_t>(spec.progressSeconds * 1000.0)
            : 0;
    const int64_t poll_ms = std::max<int64_t>(
        1, static_cast<int64_t>(spec.claimPollSeconds * 1000.0));
    std::atomic<size_t> ran{0};
    std::atomic<int64_t> next_report_ms{every_ms};
    std::atomic<int64_t> next_publish_ms{0};

    JobExecutor exec(machine, cache);
    // Every worker thread loops pull -> run -> complete until the
    // pool is drained; parallelFor's index is just a worker id.
    // Unlike runJobs there is no per-index slot discipline — a
    // thread may run any job — but each pulled index is handed to
    // exactly one thread process-wide (ClaimedQueue::running) and
    // fleet-wide (the claim file), so slot writes never race.
    auto drain = [&](size_t) {
        for (;;) {
            size_t i = 0;
            ClaimedQueue::Pull pull = queue.next(i);
            if (pull == ClaimedQueue::Pull::Drained)
                return;
            if (pull == ClaimedQueue::Pull::Wait) {
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(
                        spec.claimPollSeconds));
                continue;
            }
            // The executor re-checks the cache: a peer may have
            // cached the job between our queue scan and the claim.
            const CampaignJob &job = jobs[i];
            res.jobCached[i] = exec.run(job, workloads[job.workload].program,
                                        res.samples[i], &res.jobSeconds[i]);
            // Store first, release second: once the claim is gone
            // the job must already be skippable via the cache.
            queue.complete(i);
            size_t k = ++ran;
            int64_t elapsed =
                std::chrono::duration_cast<
                    std::chrono::milliseconds>(clock::now() - t0)
                    .count();
            // The telemetry heartbeat does not wait for progress
            // lines: the first completed job publishes, then one
            // elected thread per claim-poll interval (never once
            // per job; atomicWriteFile keeps readers tear-free).
            if (electDue(next_publish_ms, elapsed, poll_ms))
                claimdir.publishTelemetry(
                    cache, k, static_cast<double>(elapsed) / 1000.0);
            if (every_ms > 0 && electDue(next_report_ms, elapsed, every_ms))
                inform(cat("campaign: serve: ", k,
                           " jobs run by this worker, ",
                           queue.completedByPeers(),
                           " taken by peers, ", queue.pending(),
                           " of ", jobs.size(), " pool jobs open ",
                           "(", claimdir.stolen(), " stolen)"));
        }
    };
    parallelFor(spec.threads,
                static_cast<size_t>(spec.threads), drain,
                "campaign serve");

    // The pool is drained: every job of the campaign is in the
    // cache. Load the peer-measured slots so this worker returns
    // the complete sample set in job order — its export is
    // byte-identical to an unsharded run's.
    size_t holes = 0;
    for (size_t i = 0; i < jobs.size(); ++i) {
        if (!res.samples[i].rates.empty())
            continue;
        // A cached result that vanished, went corrupt or is not
        // this job's between drain and collection is re-measured
        // locally rather than exported as a hole.
        const CampaignJob &job = jobs[i];
        if (exec.collect(job, workloads[job.workload].program, res.samples[i]))
            ++holes;
        else
            res.jobCached[i] = 1;
    }
    if (holes > 0)
        warn(cat("campaign: serve: ", holes,
                 " cached results vanished or were rejected before "
                 "collection and were re-measured"));
    inform(cat("campaign: serve: pool drained; this worker ran ",
               ran.load(), " of ", jobs.size(), " jobs (",
               claimdir.stolen(), " stolen from expired claims, ",
               queue.completedByPeers(), " measured by peers)"));
    // Final telemetry snapshot: the worker's last word stays on
    // disk (age tells observers it has finished or died).
    claimdir.publishTelemetry(
        cache, ran.load(),
        std::chrono::duration<double>(clock::now() - t0).count());
    res.claimsAcquired = claimdir.acquired();
    res.claimsStolen = claimdir.stolen();
}

CampaignResult
Campaign::expand(Architecture &arch)
{
    // lint: wallclock-ok(generation phase wall time for --metrics-json)
    using clock = std::chrono::steady_clock;
    CampaignResult res;
    const auto t0 = clock::now();
    res.workloads = expandWorkloads(arch);
    res.generationSeconds =
        std::chrono::duration<double>(clock::now() - t0).count();
    obs::gauge("generation_seconds").set(res.generationSeconds);
    res.jobs = expandJobs(res.workloads,
                          std::vector<std::vector<ChipConfig>>(
                              res.workloads.size(), spec.configs));
    res.totalJobs = res.jobs.size();
    // The manifest is persisted before any measurement — always the
    // *full* job list, so interrupted, sharded and served runs can
    // report what is left and --merge sees every job.
    writeManifest(res);
    return res;
}

CampaignResult
Campaign::run(Architecture &arch)
{
    CampaignResult res = expand(arch);
    if (spec.sharded()) {
        std::vector<double> costs;
        costs.reserve(res.jobs.size());
        for (const CampaignJob &job : res.jobs)
            costs.push_back(job.cost);
        // Named: a range-for over costStripedPartition(...)[i]
        // would walk a destroyed temporary.
        const std::vector<std::vector<size_t>> shards =
            costStripedPartition(costs, spec.shardCount);
        const std::vector<size_t> &mine =
            shards[static_cast<size_t>(spec.shardIndex)];
        std::vector<CampaignJob> slice;
        slice.reserve(mine.size());
        for (size_t i : mine)
            slice.push_back(res.jobs[i]);
        res.jobs = std::move(slice);
    }
    measureJobs(res);
    return res;
}

void
Campaign::measureJobs(CampaignResult &res)
{
    // lint: wallclock-ok(measurement phase wall time for --metrics-json)
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    const size_t hits0 = cache.hits(), misses0 = cache.misses();
    const size_t corrupt0 = cache.corrupt();
    res.samples.resize(res.jobs.size());
    res.jobSeconds.assign(res.jobs.size(), 0.0);
    res.jobCached.assign(res.jobs.size(), 0);
    {
        obs::TraceSpan span("campaign.measure");
        if (spec.serve)
            runClaimed(res);
        else
            runJobs(res);
        span.note("jobs", static_cast<double>(res.jobs.size()));
    }
    res.cacheHits = cache.hits() - hits0;
    res.cacheMisses = cache.misses() - misses0;
    res.cacheCorrupt = cache.corrupt() - corrupt0;
    // The cache cannot count corrupt entries into the registry
    // itself (cache.cc is inside the obs-isolation boundary), so
    // the engine syncs the delta here.
    if (res.cacheCorrupt > 0)
        obs::counter("cache_corrupt").add(res.cacheCorrupt);
    res.measureSeconds =
        std::chrono::duration<double>(clock::now() - t0).count();
    obs::gauge("measure_seconds").set(res.measureSeconds);
    inform(cat("campaign: done; cache ", res.cacheHits, " hits / ",
               res.cacheMisses, " misses"));
}

namespace
{

std::vector<CampaignWorkload>
adhocWorkloads(const std::vector<Program> &programs)
{
    std::vector<CampaignWorkload> workloads;
    workloads.reserve(programs.size());
    for (const auto &p : programs) {
        CampaignWorkload w;
        w.program = p;
        w.source = "adhoc";
        workloads.push_back(std::move(w));
    }
    return workloads;
}

} // namespace

std::vector<Sample>
Campaign::measure(const std::vector<Program> &programs,
                  const std::vector<ChipConfig> &configs)
{
    if (configs.empty())
        fatal("campaign: no configurations to deploy on");
    return measure(programs,
                   std::vector<std::vector<ChipConfig>>(
                       programs.size(), configs));
}

std::vector<Sample>
Campaign::measure(
    const std::vector<Program> &programs,
    const std::vector<std::vector<ChipConfig>> &configs_per)
{
    // A shard slice is not the corpus the caller asked for, and no
    // sample of it may stand in for a measurement.
    if (spec.sharded())
        fatal("campaign: measure() returns every sample and cannot "
              "run a shard slice; use serve (MPROBE_SERVE=1) to "
              "spread a bench or pipeline over a fleet");
    CampaignResult res;
    res.workloads = adhocWorkloads(programs);
    res.jobs = expandJobs(res.workloads, configs_per);
    res.totalJobs = res.jobs.size();
    measureJobs(res);
    return std::move(res.samples);
}

CampaignSpec
measurementSpec(int threads, std::string cache_dir, uint64_t salt)
{
    CampaignSpec spec;
    spec.suiteEnabled = false;
    spec.bootstrap = false;
    spec.threads = threads;
    spec.cacheDir = std::move(cache_dir);
    spec.salt = salt;
    return spec;
}

} // namespace mprobe
