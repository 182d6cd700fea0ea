/**
 * @file
 * mprobe-campaign: run a declarative measurement campaign — expand
 * a spec (suite categories x CMP/SMT configurations) into jobs,
 * execute them on a worker pool with result caching, and export the
 * samples for model training and figures.
 *
 *   mprobe-campaign --spec train.spec --csv samples.csv
 *   mprobe-campaign --threads 4 --cache-dir .mprobe-cache \
 *                   --json suite.json
 *   mprobe-campaign --spec train.spec --cache-dir .mprobe-cache \
 *                   --resume
 *   mprobe-campaign --spec train.spec --cache-dir shared \
 *                   --shard 0/2          # and 1/2 elsewhere
 *   mprobe-campaign --spec train.spec --cache-dir shared \
 *                   --serve              # on every fleet host
 *   mprobe-campaign --cache-dir shared --merge --csv samples.csv
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>

#include "campaign/campaign.hh"
#include "campaign/claims.hh"
#include "campaign/export.hh"
#include "campaign/manifest.hh"
#include "obs/metrics.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "util/args.hh"
#include "util/logging.hh"
#include "util/stats.hh"
#include "util/str.hh"
#include "util/table.hh"

using namespace mprobe;

namespace
{

/** "4-2", "4-2 @2.5GHz" or "4-2 @2.5GHz @0.92V" deployment label
 * of a manifest entry. */
std::string
entryPoint(const ManifestEntry &e)
{
    std::string label = e.config.label();
    if (e.freqGhz > 0.0)
        label = cat(label, " @", e.freqGhz, "GHz");
    if (e.vdd > 0.0)
        label = cat(label, " @", e.vdd, "V");
    return label;
}

/**
 * Resume reporting: load the manifest persisted next to the cache
 * and list what an interrupted run left unfinished. The run that
 * follows completes exactly those jobs — finished ones are cache
 * hits by construction.
 */
void
reportResume(const CampaignSpec &spec, uint64_t machine_fp)
{
    if (spec.cacheDir.empty())
        fatal("--resume needs a cache directory (--cache-dir or "
              "cache_dir in the spec): the manifest lives there");
    CampaignManifest m;
    if (!loadManifest(manifestPath(spec.cacheDir), m))
        fatal(cat("--resume: no manifest under '", spec.cacheDir,
                  "' — nothing to resume (run a campaign with "
                  "this cache directory first)"));
    // Compare job-key-relevant content, not the summary string: a
    // different worker count is the same campaign; a different
    // body size / seed / salt / config set / machine is not, even
    // when the summaries read identically.
    if (m.fingerprint != campaignFingerprint(spec, machine_fp)) {
        warn(cat("--resume: spec mismatch; the manifest was "
                 "written by \"", m.spec, "\" with different "
                 "content — its progress does not apply to this "
                 "campaign, which runs in full (cache entries "
                 "never clash: job keys hash the content)"));
        return;
    }
    ResultCache probe(spec.cacheDir);
    auto rem = remainingJobs(m, probe);
    std::cout << "resume: " << m.entries.size() - rem.size()
              << " of " << m.entries.size()
              << " jobs already measured, " << rem.size()
              << " remaining\n";
    const size_t list_cap = 20;
    for (size_t i = 0; i < rem.size() && i < list_cap; ++i)
        std::cout << "  todo: " << rem[i].workload << " @ "
                  << entryPoint(rem[i]) << " (" << rem[i].source
                  << ")\n";
    if (rem.size() > list_cap)
        std::cout << "  ... and " << rem.size() - list_cap
                  << " more\n";
    if (rem.empty())
        std::cout << "campaign is already complete; re-running "
                     "only re-exports\n";
}

/**
 * CI/perf-trajectory metrics of one campaign run. Without
 * @p include_job_seconds the bulky per-job timing array is
 * omitted, leaving only the aggregates the perf gate compares —
 * the form baselines are committed in (--metrics-json-stable), so
 * CI needs no post-processing before diffing against them.
 */
void
writeMetricsJson(const std::string &path, const CampaignSpec &spec,
                 const CampaignResult &res, bool include_job_seconds)
{
    size_t total = res.cacheHits + res.cacheMisses;
    double hit_rate =
        total > 0
            ? static_cast<double>(res.cacheHits) /
                  static_cast<double>(total)
            : 0.0;
    double jobs_per_sec =
        res.measureSeconds > 0
            ? static_cast<double>(res.jobs.size()) /
                  res.measureSeconds
            : 0.0;
    std::ofstream f(path);
    if (!f)
        fatal(cat("cannot write metrics file '", path, "'"));
    f << "{\n"
      << "  \"schema_version\": 2,\n"
      << "  \"workloads\": " << res.workloads.size() << ",\n"
      << "  \"jobs\": " << res.jobs.size() << ",\n"
      << "  \"threads\": " << spec.threads << ",\n"
      << "  \"suite_generation_seconds\": "
      << res.generationSeconds << ",\n"
      << "  \"measurement_seconds\": " << res.measureSeconds
      << ",\n"
      << "  \"jobs_per_second\": " << jobs_per_sec << ",\n"
      << "  \"cache_hits\": " << res.cacheHits << ",\n"
      << "  \"cache_misses\": " << res.cacheMisses << ",\n"
      << "  \"cache_hit_rate\": " << hit_rate << ",\n"
      << "  \"cache_corrupt\": " << res.cacheCorrupt << ",\n"
      << "  \"claims_acquired\": " << res.claimsAcquired << ",\n"
      << "  \"claims_stolen\": " << res.claimsStolen << ",\n"
      // The perf-gate tripwire: a baseline measured with tracing
      // enabled at runtime is refused (tools/refresh_baseline.sh
      // and the CI gate grep for this field).
      << "  \"trace_active\": "
      << (obs::traceEverEnabled() ? "true" : "false");
    if (include_job_seconds) {
        // The full observability registry — counters, gauges,
        // histograms — rides only in the full variant; the stable
        // variant stays the lean committed-baseline format.
        f << ",\n  \"metrics\": ";
        obs::metricsWriteJson(f, "  ");
        // Per-job wall seconds: what --calibrate refits the
        // JobCostModel from. Kept last so the aggregate fields
        // above stay easy to eyeball.
        f << ",\n  \"job_seconds\": [";
        for (size_t i = 0; i < res.jobs.size(); ++i) {
            const CampaignJob &job = res.jobs[i];
            size_t body =
                res.workloads[job.workload].program.body.size();
            f << (i ? "," : "") << "\n    {\"cores\": "
              << job.config.cores
              << ", \"smt\": " << job.config.smt
              << ", \"body\": " << body << ", \"seconds\": "
              << (i < res.jobSeconds.size() ? res.jobSeconds[i]
                                            : 0.0)
              << ", \"cached\": "
              << ((i < res.jobCached.size() && res.jobCached[i])
                      ? "true"
                      : "false")
              << "}";
        }
        f << "\n  ]";
    }
    f << "\n}\n";
    if (!f.flush())
        fatal(cat("short write to metrics file '", path, "'"));
}

/**
 * Parse the job_seconds array back out of a --metrics-json file
 * (this tool's own writer format; not a general JSON parser).
 */
std::vector<JobTiming>
readMetricsTimings(const std::string &path)
{
    std::ifstream f(path);
    if (!f)
        fatal(cat("cannot read metrics file '", path, "'"));
    std::ostringstream os;
    os << f.rdbuf();
    std::string text = os.str();

    auto list_at = text.find("\"job_seconds\"");
    if (list_at == std::string::npos)
        fatal(cat("no \"job_seconds\" array in '", path,
                  "' — re-run the campaign with --metrics-json "
                  "using this build"));

    auto field = [&](const std::string &obj, const char *name,
                     double &value) {
        auto at = obj.find(cat("\"", name, "\":"));
        if (at == std::string::npos)
            return false;
        at = obj.find(':', at);
        try {
            value = std::stod(obj.substr(at + 1));
        } catch (const std::exception &) {
            return false;
        }
        return true;
    };

    std::vector<JobTiming> out;
    size_t pos = text.find('[', list_at);
    size_t end = text.find(']', list_at);
    while (pos != std::string::npos && pos < end) {
        size_t open = text.find('{', pos);
        if (open == std::string::npos || open > end)
            break;
        size_t close = text.find('}', open);
        if (close == std::string::npos)
            break;
        std::string obj = text.substr(open, close - open + 1);
        JobTiming t;
        double cores = 0, smt = 0, body = 0;
        if (!field(obj, "cores", cores) ||
            !field(obj, "smt", smt) ||
            !field(obj, "body", body) ||
            !field(obj, "seconds", t.seconds))
            fatal(cat("malformed job_seconds entry in '", path,
                      "': ", obj));
        t.config.cores = static_cast<int>(cores);
        t.config.smt = static_cast<int>(smt);
        t.bodySize = static_cast<size_t>(body);
        t.cached = obj.find("\"cached\": true") !=
                   std::string::npos;
        out.push_back(t);
        pos = close + 1;
    }
    return out;
}

/**
 * The calibration step (--calibrate): refit the JobCostModel
 * constants from the per-job wall seconds a previous run recorded
 * with --metrics-json. Exits the process (no measurement).
 */
[[noreturn]] void
runCalibrate(const std::string &metrics_path)
{
    std::vector<JobTiming> timings =
        readMetricsTimings(metrics_path);
    CostCalibration cal = calibrateJobCostModel(timings);
    std::cout << "calibrate: " << timings.size()
              << " recorded jobs, " << cal.used
              << " cold measurements used\n";
    if (!cal.ok)
        fatal("--calibrate: not enough signal to fit (need at "
              "least two cold jobs of different threads x body "
              "size and a positive slope) — run a cold campaign "
              "with a mixed config set first");
    JobCostModel def;
    std::cout << "  per-job overhead:    "
              << TextTable::num(cal.perJobSeconds * 1e6, 1)
              << " us\n"
              << "  per slot-thread:     "
              << TextTable::num(cal.perSlotThreadSeconds * 1e9, 2)
              << " ns\n"
              << "  fit R^2:             "
              << TextTable::num(cal.r2, 3) << "\n"
              << "  fitted JobCostModel: perJob = "
              << TextTable::num(cal.fitted.perJob, 1)
              << " slot-units (shipped default "
              << TextTable::num(def.perJob, 1) << ")\n";
    double rel = def.perJob > 0
                     ? cal.fitted.perJob / def.perJob
                     : 0.0;
    if (rel > 2.0 || (rel > 0 && rel < 0.5))
        std::cout << "the fitted per-job overhead differs from "
                     "the shipped default by more than 2x on "
                     "this host; consider updating "
                     "JobCostModel::perJob\n";
    else
        std::cout << "the shipped default is within 2x of this "
                     "host's fit; no change needed\n";
    std::exit(0);
}

/**
 * The merge step of a sharded or served campaign: read the
 * manifest, verify every job key has a cached result that is that
 * job's (workload, config and @p machine's operating point), and
 * export the unified sample set in manifest (= job) order — byte
 * identical to the export of the same campaign run unsharded. A
 * rejected entry is reported missing. Exits the process (no
 * measurement happens on this path) with a distinct, scriptable
 * code per failure mode:
 *
 *   0  complete; export written
 *   3  the cache directory does not exist
 *   4  the cache directory holds no manifest
 *   5  manifest present but some jobs are unfinished
 */
[[noreturn]] void
runMerge(const std::string &cache_dir,
         const std::string &manifest_dir, double claim_ttl,
         const Machine &machine, const std::string &csv,
         const std::string &json)
{
    if (cache_dir.empty())
        fatal("--merge needs a cache directory (--cache-dir or "
              "cache_dir in the spec): the manifest and the "
              "shard results live there");
    // Probe existence before constructing a ResultCache: its
    // constructor creates the directory, which would silently turn
    // a mistyped path into "no manifest" plus an empty directory.
    if (!std::filesystem::is_directory(cache_dir)) {
        std::cout << "merge: cache directory '" << cache_dir
                  << "' does not exist — check the path (workers "
                     "create it on their first run)\n";
        std::exit(3);
    }
    const std::string mdir =
        manifest_dir.empty() ? cache_dir : manifest_dir;
    CampaignManifest m;
    if (!loadManifest(manifestPath(mdir), m)) {
        std::cout << "merge: no manifest under '" << mdir
                  << "' — run the campaign (shards or --serve "
                     "workers) against this cache directory "
                     "first\n";
        std::exit(4);
    }
    ResultCache cache(cache_dir);
    ManifestCollection col = collectManifestSamples(m, cache, machine);
    if (!col.missing.empty()) {
        // Distinguish "workers still running" from "work
        // abandoned": a fresh claim file on a missing job means a
        // live worker holds it right now.
        ClaimDir claims(cache_dir, "", claim_ttl);
        size_t claimed = 0;
        for (const ManifestEntry &e : col.missing) {
            ClaimInfo info;
            if (claims.info(e.key, info) &&
                info.ageSeconds >= 0.0 &&
                info.ageSeconds <= claims.ttlSeconds())
                ++claimed;
        }
        std::cout << "merge: manifest present but "
                  << col.missing.size() << " of "
                  << m.entries.size() << " jobs unfinished ("
                  << claimed << " currently claimed)\n";
        const size_t list_cap = 20;
        for (size_t i = 0;
             i < col.missing.size() && i < list_cap; ++i)
            std::cout << "  missing: " << col.missing[i].workload
                      << " @ " << entryPoint(col.missing[i])
                      << " (" << col.missing[i].source << ")\n";
        if (col.missing.size() > list_cap)
            std::cout << "  ... and "
                      << col.missing.size() - list_cap
                      << " more\n";
        if (claimed > 0)
            std::cout << "workers are still on the job — wait "
                         "and merge again\n";
        else
            std::cout << "no live claims — finish the campaign "
                         "(remaining shards, --resume, or a "
                         "--serve worker) into this cache "
                         "directory, then merge again\n";
        if (cache.corrupt() > 0)
            std::cout << cache.corrupt()
                      << " of them have a cache entry that is not "
                         "their job's (warnings above); a campaign "
                         "run with another --arch merges only with "
                         "that --arch\n";
        std::exit(5);
    }
    std::cout << "merge: " << col.samples.size()
              << " samples assembled from \"" << m.spec << "\"\n";
    if (csv.empty() && json.empty())
        warn("--merge without --csv/--json verifies completeness "
             "but exports nothing");
    if (!csv.empty()) {
        exportSamples(csv, col.samples, SampleFormat::Csv);
        std::cout << "wrote " << csv << "\n";
    }
    if (!json.empty()) {
        exportSamples(json, col.samples, SampleFormat::Json);
        std::cout << "wrote " << json << "\n";
    }
    std::exit(0);
}

/**
 * The fleet-status step (--fleet-status): read every worker's
 * telemetry file from the shared cache directory and print the
 * live per-worker table. Exits the process (no measurement).
 */
[[noreturn]] void
runFleetStatus(const std::string &cache_dir)
{
    if (cache_dir.empty())
        fatal("--fleet-status needs a cache directory "
              "(--cache-dir or cache_dir in the spec): workers "
              "publish their telemetry there");
    std::vector<obs::WorkerTelemetry> fleet =
        obs::readFleetTelemetry(cache_dir);
    if (fleet.empty()) {
        std::cout << "fleet: no worker telemetry under '"
                  << cache_dir
                  << "' (workers publish it while serving; files "
                     "are <worker-id>.telemetry)\n";
        std::exit(0);
    }
    TextTable t({"Worker", "Jobs", "Hits", "Acquired", "Stolen",
                 "Jobs/s", "Hit rate", "Age s"});
    for (const obs::WorkerTelemetry &w : fleet)
        t.addRow({w.worker, std::to_string(w.jobs),
                  std::to_string(w.hits),
                  std::to_string(w.acquired),
                  std::to_string(w.stolen),
                  TextTable::num(w.jobsPerSecond, 2),
                  TextTable::num(w.hitRate, 2),
                  w.ageSeconds >= 0.0
                      ? TextTable::num(w.ageSeconds, 0)
                      : std::string("?")});
    t.print(std::cout);
    std::cout << fleet.size()
              << (fleet.size() == 1 ? " worker" : " workers")
              << " reporting (age is seconds since each last "
                 "published; stale ages mean finished or dead "
                 "workers)\n";
    std::exit(0);
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args;
    args.addOption("spec", "",
                   "campaign spec file (defaults to the full "
                   "Table-2 suite across all 24 configurations)");
    args.addOption("arch", "POWER7", "target architecture name");
    args.addOption("configs", "",
                   "override: comma-separated cores-smt list or "
                   "'all'");
    args.addOption("freqs", "",
                   "override: DVFS frequency sweep in GHz "
                   "(comma-separated, e.g. 2.0,2.5,3.0,3.5); "
                   "every (workload, config) pair is measured at "
                   "every listed operating point");
    args.addOption("vdds", "",
                   "override: undervolting sweep in volts "
                   "(comma-separated, e.g. 0.85,0.9,0.95,1.0), "
                   "cross-producted with the frequency axis; "
                   "points below a workload's Vmin come back "
                   "flagged unreliable");
    args.addOption("threads", "",
                   "override: worker threads (0 = one per "
                   "hardware thread)");
    args.addOption("cache-dir", "",
                   "override: on-disk result cache directory");
    args.addOption("salt", "",
                   "override: extra measurement salt");
    args.addOption("shard", "",
                   "measure only shard i/n of the job list (e.g. "
                   "0/4), partitioned by estimated job cost "
                   "(cost-weighted striping); all shards share "
                   "--cache-dir, --merge assembles the union");
    args.addOption("progress-seconds", "",
                   "override: seconds between progress lines "
                   "while measuring (0 disables)");
    args.addFlag("serve",
                 "fleet mode: pull jobs from the campaign's full "
                 "pool through per-job claim files in the shared "
                 "cache directory instead of a fixed --shard "
                 "slice; any number of workers on any hosts "
                 "cooperate, steal from dead peers after the "
                 "claim TTL, and each returns the complete "
                 "campaign");
    args.addOption("claim-ttl", "",
                   "override: seconds before a --serve claim with "
                   "no heartbeat counts as dead and its job is "
                   "stolen (default 60; raise it above the "
                   "longest single-job runtime)");
    args.addOption("claim-poll", "",
                   "override: seconds a --serve worker sleeps "
                   "when live peers hold every remaining job "
                   "(default 0.5)");
    args.addOption("worker-id", "",
                   "override: claim-file worker identity "
                   "(default host:pid)");
    args.addOption("manifest-dir", "",
                   "override: directory of the campaign manifest "
                   "when it is kept apart from the shared cache "
                   "(the drop-directory service writes one "
                   "manifest per campaign; point --merge here)");
    args.addFlag("merge",
                 "no measurement: verify every manifest job has a "
                 "cached result that is that job (checked against "
                 "--arch's operating points) and export the "
                 "unified samples (the merge step after sharded or "
                 "--serve runs); exits 3 when the cache dir is "
                 "missing, 4 when it has no manifest, 5 when jobs "
                 "are unfinished");
    args.addOption("csv", "", "export samples as CSV to this path");
    args.addOption("json", "",
                   "export samples as JSON to this path");
    args.addOption("metrics-json", "",
                   "write run metrics (generation/measure wall "
                   "time, jobs/sec, cache hit rate, per-job wall "
                   "seconds) as JSON to this path");
    args.addOption("metrics-json-stable", "",
                   "like --metrics-json but without the per-job "
                   "job_seconds array: only the aggregate fields "
                   "the CI perf gate compares (the format "
                   "BENCH_baseline.json is committed in)");
    args.addOption("calibrate", "",
                   "no measurement: refit the JobCostModel "
                   "constants from the per-job wall seconds of a "
                   "previous run's --metrics-json file and print "
                   "them");
    args.addFlag("resume",
                 "list the jobs an interrupted campaign left "
                 "unfinished (from the cache-dir manifest), then "
                 "complete only those");
    args.addOption("trace", "",
                   "record a Chrome trace-event timeline of this "
                   "run (campaign phases, per-job spans, claim "
                   "events, sim stages) and write it to this path "
                   "at exit; load it in chrome://tracing or "
                   "https://ui.perfetto.dev. Observability only: "
                   "exports stay byte-identical");
    args.addFlag("fleet-status",
                 "no measurement: print the live per-worker "
                 "telemetry table of the fleet sharing --cache-dir "
                 "(each --serve worker publishes "
                 "<worker-id>.telemetry there), then exit");
    args.addFlag("quiet", "suppress status messages");
    args.parse(argc, argv,
               "Run a measurement campaign over generated "
               "micro-benchmarks and CMP/SMT configurations.");

    if (args.getFlag("quiet"))
        setLogLevel(LogLevel::Quiet);

    CampaignSpec spec;
    if (!args.get("spec").empty())
        spec = loadCampaignSpec(args.get("spec"));
    if (!args.get("configs").empty())
        spec.configs =
            parseConfigList(args.get("configs"), "--configs");
    if (!args.get("freqs").empty())
        spec.freqs = parseFreqList(args.get("freqs"), "--freqs");
    if (!args.get("vdds").empty())
        spec.vdds = parseVddList(args.get("vdds"), "--vdds");
    if (!args.get("threads").empty())
        spec.threads = static_cast<int>(args.getInt("threads"));
    if (!args.get("cache-dir").empty())
        spec.cacheDir = args.get("cache-dir");
    if (!args.get("salt").empty())
        spec.salt = static_cast<uint64_t>(
            parseInt(args.get("salt"), "--salt"));
    if (!args.get("shard").empty())
        parseShard(args.get("shard"), "--shard", spec.shardIndex,
                   spec.shardCount);
    if (args.getFlag("serve"))
        spec.serve = true;
    if (!args.get("claim-ttl").empty()) {
        spec.claimTtlSeconds =
            parseDouble(args.get("claim-ttl"), "--claim-ttl");
        if (spec.claimTtlSeconds <= 0)
            fatal("--claim-ttl must be > 0 seconds");
    }
    if (!args.get("claim-poll").empty()) {
        spec.claimPollSeconds =
            parseDouble(args.get("claim-poll"), "--claim-poll");
        if (spec.claimPollSeconds <= 0)
            fatal("--claim-poll must be > 0 seconds");
    }
    if (!args.get("worker-id").empty())
        spec.workerId = args.get("worker-id");
    if (!args.get("manifest-dir").empty())
        spec.manifestDir = args.get("manifest-dir");
    if (!args.get("progress-seconds").empty()) {
        spec.progressSeconds =
            parseDouble(args.get("progress-seconds"),
                        "--progress-seconds");
        if (spec.progressSeconds < 0)
            fatal("--progress-seconds must be >= 0 "
                  "(0 = disabled)");
    }

    // Tracing switches on before any campaign work so generation
    // and expansion spans are captured too; the single flush
    // happens at exit, when every worker thread has joined.
    const std::string trace_path = args.get("trace");
    if (!trace_path.empty())
        obs::traceEnable();

    if (args.getFlag("fleet-status")) {
        if (args.getFlag("merge") || args.getFlag("resume") ||
            spec.serve)
            fatal("--fleet-status is a standalone step; it does "
                  "not combine with --merge, --serve or --resume");
        runFleetStatus(spec.cacheDir);
    }

    if (!args.get("calibrate").empty()) {
        if (args.getFlag("merge") || args.getFlag("resume"))
            fatal("--calibrate is a standalone step; it does not "
                  "combine with --merge or --resume");
        runCalibrate(args.get("calibrate"));
    }

    Architecture arch = Architecture::get(args.get("arch"));
    Machine machine(arch.isa(), arch.uarch().cacheGeometries(),
                    arch.uarch().clockGhz());

    if (args.getFlag("merge")) {
        // Check the effective spec, so a `shard =` or `serve =`
        // key loaded from the spec file is rejected like the
        // flags.
        if (args.getFlag("resume") || spec.sharded() || spec.serve)
            fatal("--merge is a standalone step; it does not "
                  "combine with --shard, --serve or --resume");
        runMerge(spec.cacheDir, spec.manifestDir,
                 spec.claimTtlSeconds, machine, args.get("csv"),
                 args.get("json"));
    }

    std::cout << spec.summary() << "\n";

    if (args.getFlag("resume"))
        reportResume(spec, machine.fingerprint());

    Campaign campaign(machine, spec);
    CampaignResult res = campaign.run(arch);

    // Per-source summary of what was measured.
    struct SourceAgg
    {
        size_t workloads = 0;
        std::vector<double> powers;
    };
    std::map<std::string, SourceAgg> agg;
    for (const auto &w : res.workloads)
        ++agg[w.source].workloads;
    for (size_t i = 0; i < res.samples.size(); ++i)
        agg[res.workloads[res.jobs[i].workload].source]
            .powers.push_back(res.samples[i].powerWatts);

    TextTable t({"Source", "Workloads", "Samples", "Min W",
                 "Mean W", "Max W"});
    for (const auto &[name, a] : agg)
        t.addRow({name, std::to_string(a.workloads),
                  std::to_string(a.powers.size()),
                  TextTable::num(minOf(a.powers), 2),
                  TextTable::num(mean(a.powers), 2),
                  TextTable::num(maxOf(a.powers), 2)});
    t.print(std::cout);

    size_t total = res.cacheHits + res.cacheMisses;
    std::cout << res.samples.size() << " samples; cache: "
              << res.cacheHits << " hits / " << res.cacheMisses
              << " misses";
    if (total > 0 && !spec.cacheDir.empty())
        std::cout << " ("
                  << TextTable::num(100.0 * res.cacheHits /
                                        static_cast<double>(total),
                                    1)
                  << "% hit rate)";
    const CampaignSpec &run_spec = campaign.specRef();
    if (run_spec.sharded())
        std::cout << "\nshard " << run_spec.shardIndex << "/"
                  << run_spec.shardCount << " measured "
                  << res.jobs.size() << " of " << res.totalJobs
                  << " campaign jobs; run all shards into this "
                     "cache, then --merge for the unified export";
    std::cout << "\n";

    if (!args.get("metrics-json").empty()) {
        // specRef() carries the resolved (non-auto) thread count.
        writeMetricsJson(args.get("metrics-json"),
                         campaign.specRef(), res, true);
        std::cout << "wrote " << args.get("metrics-json") << "\n";
    }
    if (!args.get("metrics-json-stable").empty()) {
        writeMetricsJson(args.get("metrics-json-stable"),
                         campaign.specRef(), res, false);
        std::cout << "wrote " << args.get("metrics-json-stable")
                  << "\n";
    }
    if (!args.get("csv").empty()) {
        exportSamples(args.get("csv"), res.samples,
                      SampleFormat::Csv);
        std::cout << "wrote " << args.get("csv") << "\n";
    }
    if (!args.get("json").empty()) {
        exportSamples(args.get("json"), res.samples,
                      SampleFormat::Json);
        std::cout << "wrote " << args.get("json") << "\n";
    }
    if (!trace_path.empty()) {
        // Quiescent by construction: campaign.run joined every
        // worker thread, and exports run on this thread only.
        obs::traceDisable();
        if (obs::traceFlush(trace_path))
            std::cout << "wrote " << trace_path << "\n";
    }
    return 0;
}
