/**
 * @file
 * mprobe-service: long-lived campaign service — watch a drop
 * directory for campaign specs, measure each one in turn as a
 * --serve worker on one shared result cache, and stream
 * per-campaign status and incremental exports.
 *
 *   mprobe-service --drop-dir specs --cache-dir pool \
 *                  --results-dir out
 *   # elsewhere, submit a campaign (renamed into place; a file
 *   # written in place is read once two scans see it unchanged):
 *   cp sweep.spec specs/sweep.tmp && mv specs/sweep.tmp specs/sweep.spec
 *   # watch out/sweep/status.json, out/sweep/partial.csv, and
 *   # finally out/sweep/samples.csv
 *
 * Any number of service processes (and plain `mprobe_campaign
 * --serve` workers) may share the cache directory; claim files
 * coordinate them and dead peers are stolen from after the TTL.
 */

#include <iostream>

#include "obs/trace.hh"
#include "service/service.hh"
#include "util/args.hh"
#include "util/logging.hh"
#include "util/str.hh"

using namespace mprobe;

int
main(int argc, char **argv)
{
    ArgParser args;
    args.addOption("drop-dir", "",
                   "directory watched for dropped <name>.spec "
                   "campaign files (created if absent)");
    args.addOption("cache-dir", "",
                   "shared result cache + claim pool directory "
                   "(share it across the whole fleet)");
    args.addOption("results-dir", "",
                   "per-campaign output root: "
                   "<results-dir>/<name>/ receives the manifest, "
                   "status.json, partial and final exports");
    args.addOption("threads", "",
                   "threads measuring each campaign through its "
                   "claim pool (0 = one per hardware thread)");
    args.addOption("poll-seconds", "",
                   "seconds between drop-directory scans, each of "
                   "which also refreshes status.json and the partial "
                   "exports, and each campaign's claim poll "
                   "(default 1)");
    args.addOption("claim-ttl", "",
                   "seconds before a claim with no heartbeat "
                   "counts as dead and its job is stolen "
                   "(default 60)");
    args.addOption("worker-id", "",
                   "claim-file worker identity (default "
                   "host:pid)");
    args.addOption("arch", "POWER7", "target architecture name");
    args.addFlag("exit-when-idle",
                 "exit once every ingested campaign is complete "
                 "and a scan finds no new specs (CI/batch use); "
                 "default runs until interrupted");
    args.addOption("trace", "",
                   "record a Chrome trace-event timeline of this "
                   "service run (spec ingestion, per-job spans, "
                   "claim events, sim stages) and write it to this "
                   "path at exit; load it in chrome://tracing or "
                   "https://ui.perfetto.dev. Observability only: "
                   "exports stay byte-identical");
    args.addFlag("quiet", "suppress status messages");
    args.parse(argc, argv,
               "Serve campaign specs dropped into a directory "
               "over a shared work-stealing fleet pool.");

    if (args.getFlag("quiet"))
        setLogLevel(LogLevel::Quiet);

    ServiceOptions opts;
    opts.dropDir = args.get("drop-dir");
    opts.cacheDir = args.get("cache-dir");
    opts.resultsDir = args.get("results-dir");
    if (!args.get("threads").empty()) {
        // Parsed as the spec key, so the flag takes exactly its values.
        CampaignSpec parsed;
        applySpecSetting(parsed, "threads", args.get("threads"), "--threads");
        opts.threads = parsed.threads;
    }
    if (!args.get("poll-seconds").empty())
        opts.pollSeconds = parseDouble(args.get("poll-seconds"),
                                       "--poll-seconds");
    if (!args.get("claim-ttl").empty()) {
        opts.claimTtlSeconds =
            parseDouble(args.get("claim-ttl"), "--claim-ttl");
        if (opts.claimTtlSeconds <= 0)
            fatal("--claim-ttl must be > 0 seconds");
    }
    opts.workerId = args.get("worker-id");
    opts.archName = args.get("arch");
    opts.exitWhenIdle = args.getFlag("exit-when-idle");

    const std::string trace_path = args.get("trace");
    if (!trace_path.empty())
        obs::traceEnable();

    CampaignService service(std::move(opts));
    size_t completed = service.run();
    std::cout << completed << " campaigns completed\n";
    if (!trace_path.empty()) {
        // run() joined every worker thread before returning, so
        // this flush reads quiescent ring buffers.
        obs::traceDisable();
        if (obs::traceFlush(trace_path))
            std::cout << "wrote " << trace_path << "\n";
    }
    return 0;
}
