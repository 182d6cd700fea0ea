/**
 * @file
 * perfbench_replay: the traced half of the repository benchmark.
 *
 * Replays one campaign spec through the public functions of each
 * layer — generation, job expansion, decode, core simulation, batch
 * memo, power composition, result cache, claims and export — and
 * times every call from here, so the program under test needs no
 * instrumentation of its own. The replay follows the executor of
 * mprobe_campaign step for step (plain: one Machine::Batch per
 * (workload, SMT) group, longest group first; --serve: per-job
 * Machine::run pulled through a ClaimedQueue), so its CSV export is
 * byte-identical to the program's and its work counts equal the
 * program's own counters. perfbench/run.py checks both.
 *
 *   perfbench_replay --spec table2.spec --threads 2 \
 *       --cache-dir work/c --csv replay.csv [--serve] > layers.json
 *
 * Prints one JSON object of raw per-layer totals on stdout. Times are
 * busy seconds summed over worker threads.
 */

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <thread>

#include "campaign/campaign.hh"
#include "campaign/claims.hh"
#include "campaign/export.hh"
#include "campaign/manifest.hh"
#include "campaign/queue.hh"
#include "microprobe/bootstrap.hh"
#include "obs/metrics.hh"
#include "util/args.hh"
#include "util/hash.hh"
#include "util/logging.hh"

using namespace mprobe;

namespace
{

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Per-layer work counts and busy seconds. One instance per worker
 * slot, summed once the workers have joined. */
struct Layers
{
    size_t decodeCalls = 0;
    double decodeS = 0.0;
    size_t coreSims = 0;
    double coreInstrs = 0.0;
    double coreS = 0.0;
    size_t powerCalls = 0;
    double powerS = 0.0;
    size_t unbatchedRuns = 0;
    double unbatchedS = 0.0;
    size_t lookups = 0;
    size_t hits = 0;
    double lookupS = 0.0;
    size_t stores = 0;
    double storeS = 0.0;
    double claimsS = 0.0;

    void
    operator+=(const Layers &o)
    {
        decodeCalls += o.decodeCalls;
        decodeS += o.decodeS;
        coreSims += o.coreSims;
        coreInstrs += o.coreInstrs;
        coreS += o.coreS;
        powerCalls += o.powerCalls;
        powerS += o.powerS;
        unbatchedRuns += o.unbatchedRuns;
        unbatchedS += o.unbatchedS;
        lookups += o.lookups;
        hits += o.hits;
        lookupS += o.lookupS;
        stores += o.stores;
        storeS += o.storeS;
        claimsS += o.claimsS;
    }
};

/** What the replay needs to run one job. */
struct Replay
{
    const Machine &machine;
    const std::vector<CampaignWorkload> &workloads;
    const std::vector<CampaignJob> &jobs;
    ResultCache &cache;
    std::vector<Sample> &samples;

    /** The job's operating point (on-curve: vdds specs are not
     * replayed). */
    OperatingPoint
    point(const CampaignJob &job) const
    {
        return machine.operatingPoint(job.freqGhz);
    }

    /** Timed cache lookup; fills the job's slot on a hit. */
    bool
    lookup(size_t i, Layers &acc)
    {
        auto t0 = Clock::now();
        Sample s;
        bool hit = cache.lookup(jobs[i].key, s);
        acc.lookupS += since(t0);
        ++acc.lookups;
        if (hit) {
            ++acc.hits;
            samples[i] = std::move(s);
        }
        return hit;
    }

    void
    store(size_t i, Layers &acc)
    {
        auto t0 = Clock::now();
        cache.store(jobs[i].key, samples[i]);
        acc.storeS += since(t0);
        ++acc.stores;
    }

    /** One batched job: a Batch::run that grew the memo is core
     * simulation, one that did not is power composition. */
    void
    runBatched(size_t i, std::unique_ptr<Machine::Batch> &batch,
               Layers &acc)
    {
        const CampaignJob &job = jobs[i];
        const Program &prog = workloads[job.workload].program;
        if (!batch) {
            auto t0 = Clock::now();
            batch.reset(new Machine::Batch(machine, prog));
            acc.decodeS += since(t0);
            ++acc.decodeCalls;
        }
        size_t sims0 = batch->simCount();
        auto t0 = Clock::now();
        RunResult r = batch->run(job.config, point(job),
                                 hashCombine(job.key, 0x5a17ull));
        double dt = since(t0);
        size_t grown = batch->simCount() - sims0;
        if (grown > 0) {
            const CoreSimOptions &o = machine.simOptions();
            acc.coreSims += grown;
            acc.coreInstrs += static_cast<double>(grown) *
                              (o.warmupIters + o.measureIters) *
                              static_cast<double>(prog.size()) *
                              job.config.smt;
            acc.coreS += dt;
        } else {
            ++acc.powerCalls;
            acc.powerS += dt;
        }
        samples[i] = makeSample(prog.name, r);
    }

    /** One unbatched job (the --serve executor): decode, simulation
     * and power inside one Machine::run the replay cannot split. */
    void
    runUnbatched(size_t i, Layers &acc)
    {
        const CampaignJob &job = jobs[i];
        const Program &prog = workloads[job.workload].program;
        auto t0 = Clock::now();
        RunResult r = machine.run(prog, job.config, point(job),
                                  hashCombine(job.key, 0x5a17ull));
        acc.unbatchedS += since(t0);
        ++acc.unbatchedRuns;
        ++acc.decodeCalls;
        samples[i] = makeSample(prog.name, r);
    }
};

/** The plain executor: (workload, SMT) groups through one Batch
 * each, costliest group first, costliest member first. */
Layers
measurePlain(Replay &rp, int threads)
{
    const auto &jobs = rp.jobs;
    std::map<std::pair<size_t, int>, size_t> group_of;
    std::vector<std::vector<size_t>> groups;
    for (size_t i = 0; i < jobs.size(); ++i) {
        auto key = std::make_pair(jobs[i].workload, jobs[i].config.smt);
        auto it = group_of.find(key);
        if (it == group_of.end()) {
            group_of.emplace(key, groups.size());
            groups.push_back({i});
        } else {
            groups[it->second].push_back(i);
        }
    }
    std::vector<double> group_cost(groups.size(), 0.0);
    for (size_t g = 0; g < groups.size(); ++g) {
        for (size_t i : groups[g])
            group_cost[g] += jobs[i].cost;
        std::stable_sort(groups[g].begin(), groups[g].end(),
                         [&](size_t a, size_t b) {
                             return jobs[a].cost > jobs[b].cost;
                         });
    }
    std::vector<size_t> order(groups.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) {
                         return group_cost[a] > group_cost[b];
                     });

    // One accumulator per group: each is written by the one worker
    // that runs the group, so the sum needs no locking.
    std::vector<Layers> per_group(groups.size());
    parallelFor(threads, groups.size(), [&](size_t q) {
        Layers &acc = per_group[q];
        std::unique_ptr<Machine::Batch> batch;
        for (size_t i : groups[order[q]]) {
            if (rp.lookup(i, acc))
                continue;
            rp.runBatched(i, batch, acc);
            rp.store(i, acc);
        }
    });
    Layers total;
    for (const Layers &l : per_group)
        total += l;
    return total;
}

/** The --serve executor: one worker process, @p threads threads
 * pulling per-job claims from the full pool. */
Layers
measureServe(Replay &rp, const CampaignSpec &spec, size_t &acquired,
             size_t &stolen)
{
    ClaimDir claims(spec.cacheDir, spec.workerId,
                    spec.claimTtlSeconds);
    std::vector<PoolJob> pool;
    pool.reserve(rp.jobs.size());
    for (size_t i = 0; i < rp.jobs.size(); ++i)
        pool.push_back({rp.jobs[i].key, i, rp.jobs[i].cost});
    ClaimedQueue queue(rp.cache, claims, std::move(pool));

    std::vector<Layers> per_worker(static_cast<size_t>(spec.threads));
    parallelFor(spec.threads, per_worker.size(), [&](size_t w) {
        Layers &acc = per_worker[w];
        for (;;) {
            size_t i = 0;
            auto t0 = Clock::now();
            ClaimedQueue::Pull pull = queue.next(i);
            acc.claimsS += since(t0);
            if (pull == ClaimedQueue::Pull::Drained)
                return;
            if (pull == ClaimedQueue::Pull::Wait) {
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(
                        spec.claimPollSeconds));
                continue;
            }
            if (!rp.lookup(i, acc)) {
                rp.runUnbatched(i, acc);
                rp.store(i, acc);
            }
            t0 = Clock::now();
            queue.complete(i);
            acc.claimsS += since(t0);
        }
    });
    // A single worker leaves no peer-measured holes; refuse to
    // export one rather than hide a drifted executor.
    for (size_t i = 0; i < rp.jobs.size(); ++i)
        if (rp.samples[i].rates.empty() &&
            !rp.cache.peek(rp.jobs[i].key, rp.samples[i]))
            fatal(cat("replay: serve left job ", i, " unmeasured"));
    acquired = claims.acquired();
    stolen = claims.stolen();
    Layers total;
    for (const Layers &l : per_worker)
        total += l;
    return total;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args;
    args.addOption("spec", "", "campaign spec file (suite sources "
                               "only; no vdds axis)");
    args.addOption("threads", "1", "worker threads");
    args.addOption("cache-dir", "", "result cache directory");
    args.addOption("csv", "", "export samples as CSV to this path");
    args.addFlag("serve", "replay the --serve executor");
    args.parse(argc, argv,
               "Replay a campaign layer by layer, timing each "
               "layer's public calls.");
    setLogLevel(LogLevel::Quiet);

    CampaignSpec spec = loadCampaignSpec(args.get("spec"));
    spec.threads =
        resolveThreads(static_cast<int>(args.getInt("threads")),
                       "replay");
    spec.cacheDir = args.get("cache-dir");
    spec.serve = args.getFlag("serve");
    if (spec.cacheDir.empty() || args.get("csv").empty())
        fatal("replay: --cache-dir and --csv are required");
    if (spec.specProxies || spec.daxpy || spec.extremes ||
        !spec.vdds.empty() || !spec.suiteEnabled || spec.sharded())
        fatal("replay: only suite-sourced, unsharded specs without "
              "a vdds axis are replayed");
    if (!spec.categories.empty())
        spec.suite.categories = spec.categories;

    Architecture arch = Architecture::get("POWER7");
    Machine machine(arch.isa(), arch.uarch().cacheGeometries(),
                    arch.uarch().clockGhz());
    ResultCache cache(spec.cacheDir);
    const uint64_t machine_fp = machine.fingerprint();

    // Generation: bootstrap, then the Table-2 suite.
    auto t0 = Clock::now();
    if (spec.bootstrap) {
        BootstrapOptions bo;
        bo.bodySize = spec.suite.bodySize;
        bo.seed = spec.suite.seed ^ 0xb007ull;
        bootstrapArchitecture(arch, machine, bo);
    }
    std::vector<CampaignWorkload> workloads;
    for (auto &gb : generateTable2Suite(arch, machine, spec.suite)) {
        CampaignWorkload w;
        w.source = benchCategoryName(gb.category);
        w.group = gb.group;
        w.program = std::move(gb.program);
        workloads.push_back(std::move(w));
    }
    const double gen_s = since(t0);

    // Expansion: one key per (workload, config, frequency), the
    // nominal frequency collapsing to the frequency-free key.
    std::vector<double> freq_axis;
    for (double f : spec.freqs)
        freq_axis.push_back(f == machine.clockGhz() ? 0.0 : f);
    if (freq_axis.empty())
        freq_axis.push_back(0.0);
    JobCostModel cost_model;
    std::vector<CampaignJob> jobs;
    double expand_s = 0.0;
    for (size_t w = 0; w < workloads.size(); ++w)
        for (const ChipConfig &cfg : spec.configs)
            for (double f : freq_axis) {
                const Program &prog = workloads[w].program;
                t0 = Clock::now();
                uint64_t key = campaignJobKey(prog, cfg, machine_fp,
                                              spec.salt, f);
                expand_s += since(t0);
                jobs.push_back({w, cfg, key,
                                cost_model.estimate(cfg,
                                                    prog.body.size()),
                                f, 0.0});
            }

    t0 = Clock::now();
    CampaignManifest manifest;
    manifest.spec = spec.contentSummary();
    manifest.fingerprint = campaignFingerprint(spec, machine_fp);
    for (const CampaignJob &job : jobs) {
        const CampaignWorkload &w = workloads[job.workload];
        manifest.entries.push_back({job.key, job.config, w.source,
                                    w.program.name, job.freqGhz,
                                    job.vdd});
    }
    mergeSaveManifest(manifestPath(spec.cacheDir), manifest);
    const double manifest_s = since(t0);

    std::vector<Sample> samples(jobs.size());
    Replay rp{machine, workloads, jobs, cache, samples};
    const uint64_t memo0 = obs::counter("batch_memo_hits").value();
    size_t acquired = 0, stolen = 0;
    Layers l = spec.serve
                   ? measureServe(rp, spec, acquired, stolen)
                   : measurePlain(rp, spec.threads);
    const uint64_t memo_hits =
        obs::counter("batch_memo_hits").value() - memo0;

    t0 = Clock::now();
    exportSamples(args.get("csv"), samples, SampleFormat::Csv);
    const double export_s = since(t0);

    std::cout.precision(12);
    std::cout << "{\"jobs\": " << jobs.size()
              << ", \"gen_s\": " << gen_s
              << ", \"gen_programs\": " << workloads.size()
              << ", \"expand_s\": " << expand_s
              << ", \"manifest_s\": " << manifest_s
              << ", \"decode_calls\": " << l.decodeCalls
              << ", \"decode_s\": " << l.decodeS
              << ", \"core_sims\": " << l.coreSims
              << ", \"core_instrs\": " << l.coreInstrs
              << ", \"core_s\": " << l.coreS
              << ", \"memo_hits\": " << memo_hits
              << ", \"power_calls\": " << l.powerCalls
              << ", \"power_s\": " << l.powerS
              << ", \"unbatched_runs\": " << l.unbatchedRuns
              << ", \"unbatched_s\": " << l.unbatchedS
              << ", \"cache_lookups\": " << l.lookups
              << ", \"cache_hits\": " << l.hits
              << ", \"cache_lookup_s\": " << l.lookupS
              << ", \"cache_stores\": " << l.stores
              << ", \"cache_store_s\": " << l.storeS
              << ", \"cache_corrupt\": " << cache.corrupt()
              << ", \"claims_acquired\": " << acquired
              << ", \"claims_stolen\": " << stolen
              << ", \"claims_s\": " << l.claimsS
              << ", \"export_s\": " << export_s
              << ", \"export_bytes\": "
              << std::filesystem::file_size(args.get("csv")) << "}\n";
    return 0;
}
