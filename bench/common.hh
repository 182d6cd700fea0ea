/**
 * @file
 * Shared setup for the figure/table regeneration benches.
 *
 * Every bench binary regenerates one table or figure of the paper's
 * evaluation: it builds the architecture, bootstraps it, runs the
 * workloads it needs on the simulated machine, and prints the same
 * rows/series the paper reports. Set MPROBE_FAST=1 in the
 * environment for a reduced (quick smoke) corpus.
 */

#ifndef BENCH_COMMON_HH
#define BENCH_COMMON_HH

#include <cstdlib>
#include <iostream>
#include <string>

#include "campaign/campaign.hh"
#include "microprobe/bootstrap.hh"
#include "util/logging.hh"
#include "workloads/pipeline.hh"

namespace mprobe::bench
{

/** True when MPROBE_FAST=1: smaller corpora for smoke runs. */
inline bool
fastMode()
{
    const char *v = std::getenv("MPROBE_FAST");
    return v != nullptr && v[0] == '1';
}

/** Architecture + machine + bootstrap, shared by all benches. */
struct BenchContext
{
    Architecture arch = Architecture::get("POWER7");
    Machine machine{arch.isa()};

    explicit BenchContext(bool bootstrap = true)
    {
        setLogLevel(LogLevel::Quiet);
        if (bootstrap) {
            BootstrapOptions bo;
            bo.bodySize = fastMode() ? 512 : 2048;
            bootstrapArchitecture(arch, machine, bo);
        }
    }
};

/** Result-cache directory benches share (MPROBE_CACHE_DIR). */
inline std::string
envCacheDir()
{
    const char *d = std::getenv("MPROBE_CACHE_DIR");
    return d != nullptr ? d : "";
}

/**
 * Fleet mode (MPROBE_SERVE=1, needs MPROBE_CACHE_DIR): the bench
 * drains its measurements through the claim pool of the shared
 * cache directory, so every process running the same bench against
 * that directory (on any host) takes a share of the jobs, and each
 * prints the complete figure once the pool is drained.
 */
inline bool
envServe()
{
    const char *v = std::getenv("MPROBE_SERVE");
    return v != nullptr && v[0] == '1';
}

/** Pipeline options at paper scale (or reduced in fast mode). */
inline PipelineOptions
paperPipelineOptions()
{
    PipelineOptions po;
    // All measurement flows through the campaign engine: auto
    // worker count, result cache from MPROBE_CACHE_DIR so
    // re-generating a figure reuses every already-measured point,
    // optional fleet mode from MPROBE_SERVE.
    po.threads = 0;
    po.cacheDir = envCacheDir();
    po.serve = envServe();
    if (fastMode()) {
        po.suite.bodySize = 1024;
        po.suite.perMemoryGroup = 2;
        po.suite.memoryCount = 4;
        po.suite.randomCount = 40;
        po.suite.ipcSearchBudget = 3;
        po.suite.gaPopulation = 4;
        po.suite.gaGenerations = 1;
        po.randomCrossConfig = 16;
        po.specCount = 10;
        po.bodySize = 1024;
    } else {
        po.suite.bodySize = 4096;
        po.suite.perMemoryGroup = 10;
        po.suite.memoryCount = 20;
        po.suite.randomCount = 331;
        po.suite.ipcSearchBudget = 6;
        po.suite.gaPopulation = 12;
        po.suite.gaGenerations = 5;
        po.randomCrossConfig = 48;
        po.specCount = 0; // all 28
        po.bodySize = 4096;
    }
    return po;
}

/**
 * Measurement-only campaign spec for the benches: auto worker
 * count, result cache from MPROBE_CACHE_DIR (so re-generating a
 * figure reuses every already-measured point), fleet mode from
 * MPROBE_SERVE, no suite generation.
 */
inline CampaignSpec
benchCampaignSpec()
{
    CampaignSpec spec = measurementSpec(0, envCacheDir());
    spec.serve = envServe();
    return spec;
}

/** Print the bench banner. */
inline void
banner(const std::string &what)
{
    std::cout << "=================================================="
                 "====\n"
              << what << "\n"
              << "(simulated POWER7-like machine; power in "
                 "normalized units where noted)\n"
              << "=================================================="
                 "====\n";
}

} // namespace mprobe::bench

#endif // BENCH_COMMON_HH
