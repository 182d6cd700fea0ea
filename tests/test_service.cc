/**
 * @file
 * Tests for the drop-directory campaign service: spec ingestion,
 * several campaigns over one cache, streamed status and exports,
 * async submission while campaigns run, survival of malformed
 * dropped specs, and specs written in place while the service
 * scans.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "campaign/campaign.hh"
#include "campaign/export.hh"
#include "service/service.hh"
#include "util/logging.hh"

using namespace mprobe;

namespace
{

namespace fs = std::filesystem;

std::string
freshDir(const std::string &tag)
{
    std::string dir = testing::TempDir() + "mprobe-service-" + tag;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** Spec-file text of a tiny random-workload campaign. */
std::string
tinySpecText(int random_count)
{
    std::ostringstream os;
    os << "categories = random\n"
       << "random_count = " << random_count << "\n"
       << "body_size = 128\n"
       << "bootstrap = 0\n"
       << "configs = 1-1,2-1\n";
    return os.str();
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream f(path);
    ASSERT_TRUE(f.is_open()) << path;
    f << content;
}

/** Drop a spec into a watched directory the way a client running
 * beside the service must: write it under a name the service
 * ignores, then rename it into place, so no scan reads it half
 * written. */
void
dropSpec(const std::string &dir, const std::string &name,
         const std::string &text)
{
    writeFile(dir + "/" + name + ".tmp", text);
    fs::rename(dir + "/" + name + ".tmp", dir + "/" + name + ".spec");
}

std::string
readFile(const std::string &path)
{
    std::ifstream f(path);
    EXPECT_TRUE(f.is_open()) << path;
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
}

/** Fast-cadence options over fresh directories. */
ServiceOptions
testOptions(const std::string &tag)
{
    ServiceOptions opts;
    opts.dropDir = freshDir(tag + "-drop");
    opts.cacheDir = freshDir(tag + "-cache");
    opts.resultsDir = freshDir(tag + "-results");
    opts.threads = 2;
    opts.pollSeconds = 0.05;
    opts.exitWhenIdle = true;
    return opts;
}

/** The reference export: the same spec text run standalone. */
std::string
referenceCsv(const std::string &spec_text, const std::string &tag)
{
    std::string dir = freshDir(tag + "-ref");
    std::string path = dir + "/ref.spec";
    writeFile(path, spec_text);
    CampaignSpec spec = loadCampaignSpec(path);
    spec.cacheDir = dir + "/cache";
    Architecture arch = Architecture::get("POWER7");
    Machine machine = arch.machine();
    Campaign campaign(machine, spec);
    CampaignResult res = campaign.run(arch);
    std::ostringstream os;
    exportSamplesCsv(os, res.samples);
    return os.str();
}

TEST(Service, CompletesDroppedCampaigns)
{
    ServiceOptions opts = testOptions("basic");
    writeFile(opts.dropDir + "/alpha.spec", tinySpecText(2));
    writeFile(opts.dropDir + "/beta.spec", tinySpecText(3));

    CampaignService service(opts);
    EXPECT_EQ(service.run(), 2u);

    for (const std::string name : {"alpha", "beta"}) {
        std::string base = opts.resultsDir + "/" + name;
        EXPECT_TRUE(fs::exists(base + "/samples.csv")) << name;
        EXPECT_TRUE(fs::exists(base + "/samples.json")) << name;
        EXPECT_TRUE(fs::exists(base + "/campaign.manifest"))
            << name;
        std::string status = readFile(base + "/status.json");
        EXPECT_NE(status.find("\"state\": \"complete\""),
                  std::string::npos)
            << status;
        EXPECT_NE(status.find(cat("\"campaign\": \"", name, "\"")),
                  std::string::npos)
            << status;
    }

    auto statuses = service.statuses();
    ASSERT_EQ(statuses.size(), 2u);
    for (const auto &s : statuses) {
        EXPECT_TRUE(s.complete) << s.name;
        EXPECT_EQ(s.doneJobs, s.totalJobs) << s.name;
    }
}

TEST(Service, ExportMatchesStandaloneRun)
{
    ServiceOptions opts = testOptions("match");
    std::string text = tinySpecText(3);
    writeFile(opts.dropDir + "/sweep.spec", text);

    CampaignService service(opts);
    ASSERT_EQ(service.run(), 1u);

    EXPECT_EQ(readFile(opts.resultsDir + "/sweep/samples.csv"),
              referenceCsv(text, "match"));
}

TEST(Service, VddSweepExportMatchesStandaloneRun)
{
    // Off-curve voltages: the service must measure at each job's
    // swept vdd (and cache under that key), not at the curve
    // voltage of the job's frequency.
    ServiceOptions opts = testOptions("vdds");
    std::string text = "categories = random\n"
                       "configs = 1-1,4-2\n"
                       "freqs = 2.5,3.0\n"
                       "vdds = 0.80,0.90\n"
                       "random_count = 2\n"
                       "body_size = 256\n"
                       "bootstrap = 0\n";
    writeFile(opts.dropDir + "/undervolt.spec", text);

    CampaignService service(opts);
    ASSERT_EQ(service.run(), 1u);

    EXPECT_EQ(readFile(opts.resultsDir + "/undervolt/samples.csv"),
              referenceCsv(text, "vdds"));
}

TEST(Service, SurvivesMalformedSpec)
{
    ServiceOptions opts = testOptions("malformed");
    // An unknown category, a configuration the machine cannot run,
    // a body size that would wrap to SIZE_MAX, and an empty file,
    // which would parse as the full default Table-2 campaign.
    const char *const broken[][2] = {
        {"broken", "categories = no-such-category\n"},
        {"empty", ""},
        {"badconfig", "categories = random\nrandom_count = 1\n"
                      "bootstrap = 0\nconfigs = 1-1,9-1\n"},
        {"badsize", "categories = random\nrandom_count = 1\n"
                    "bootstrap = 0\nbody_size = -1\n"},
    };
    for (const auto &b : broken)
        writeFile(opts.dropDir + "/" + b[0] + ".spec", b[1]);
    writeFile(opts.dropDir + "/good.spec", tinySpecText(2));

    CampaignService service(opts);
    // Each broken spec is rejected with a warning; the good one
    // still completes and the process survives.
    EXPECT_EQ(service.run(), 1u);
    EXPECT_TRUE(
        fs::exists(opts.resultsDir + "/good/samples.csv"));
    for (const auto &b : broken)
        EXPECT_FALSE(
            fs::exists(opts.resultsDir + "/" + b[0] + "/samples.csv"))
            << b[0];
}

TEST(Service, IngestsSpecsWhileRunning)
{
    ServiceOptions opts = testOptions("async");
    opts.exitWhenIdle = false;

    CampaignService service(opts);
    std::thread runner([&]() { service.run(); });

    auto waitFor = [&](const std::string &path) {
        for (int i = 0; i < 1000; ++i) {
            if (fs::exists(path))
                return true;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
        return false;
    };

    // Submit the first campaign only after the service is already
    // running, then a second after the first completed — true
    // async ingestion, not a pre-seeded directory.
    dropSpec(opts.dropDir, "first", tinySpecText(2));
    EXPECT_TRUE(
        waitFor(opts.resultsDir + "/first/samples.csv"));
    dropSpec(opts.dropDir, "second", tinySpecText(3));
    EXPECT_TRUE(
        waitFor(opts.resultsDir + "/second/samples.csv"));

    service.requestStop();
    runner.join();

    auto statuses = service.statuses();
    ASSERT_EQ(statuses.size(), 2u);
    EXPECT_TRUE(statuses[0].complete);
    EXPECT_TRUE(statuses[1].complete);
}

TEST(Service, IngestsASpecRewrittenBetweenScansOnceWithItsFinalText)
{
    // A client writes its spec in place, then rewrites it. The
    // first scan sees the first text, the second scan sees the
    // file changed, so only the final text, settled across two
    // scans, is ingested; an idle service does not exit while the
    // spec is unsettled. The rewrite lands 0.1 s into a 1 s scan
    // interval.
    ServiceOptions opts = testOptions("rewrite");
    opts.pollSeconds = 1.0;
    const std::string path = opts.dropDir + "/late.spec";
    const std::string final_text = tinySpecText(3) + "# final\n";
    writeFile(path, tinySpecText(2));

    CampaignService service(opts);
    size_t completed = 0;
    std::thread runner([&]() { completed = service.run(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    writeFile(path, final_text);
    runner.join();

    EXPECT_EQ(completed, 1u);
    ASSERT_EQ(service.statuses().size(), 1u);
    EXPECT_EQ(readFile(opts.resultsDir + "/late/samples.csv"),
              referenceCsv(final_text, "rewrite"));
}

TEST(ServiceDeath, MissingCacheDirFatalWithServiceMessage)
{
    // The service names its required directories itself, before the
    // claim directory would refuse the empty path.
    ServiceOptions opts = testOptions("no-cache");
    opts.cacheDir.clear();
    EXPECT_EXIT(CampaignService{opts}, testing::ExitedWithCode(1),
                "--drop-dir, --cache-dir and --results-dir are all "
                "required");
}

} // namespace
