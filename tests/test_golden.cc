/**
 * @file
 * Golden-output tests: the job keys, cached samples and export rows
 * of four small campaigns, pinned to fixtures committed under
 * tests/golden/ and checked on every execution path.
 *
 * The campaign engine's behaviour contract is byte-identical exports
 * and cache keys on every path. A fixture holds, for one spec, the
 * exact job-key list in job order, one FNV-1a digest per job of the
 * bytes the cache stores (sampleToText) and one per export CSV row
 * (header first):
 *
 *   flat   memory + random on all 24 configurations;
 *   freqs  the same corpus on 1-1 and 8-4 x three freqs;
 *   sweep  the same corpus on 1-1 and 8-4 x three freqs x three vdds;
 *   table2 the whole bootstrapped Table-2 suite, small, on 1-1, 2-2
 *          and 8-4.
 *
 * The conformance matrix runs every spec on every path and compares
 * each with the spec's fixture:
 *
 *   plain1, plain4  Campaign::run on 1 and on 4 threads;
 *   serve           two concurrent --serve campaigns on one cache
 *                   with distinct worker ids (both results checked);
 *   service         CampaignService over the dropped spec file (its
 *                   samples.csv and manifest);
 *   shards          two --shard slices into one cache, merged by
 *                   collectManifestSamples.
 *
 * Sample digests are checked on the paths that return Samples (every
 * path but the service, which exports files).
 *
 * MPROBE_WRITE_GOLDEN=1 rewrites the fixtures from the plain1 path
 * instead of comparing (the other paths skip). A fixture records the
 * campaign fingerprint and the kCacheSchemaVersion it was written
 * under, and the rewrite refuses to change a key, a sample digest or
 * a row digest of the same campaign while that version is unchanged:
 * a change that moves stored or exported bytes must bump the version
 * (cache.hh), so no old cache entry is ever served under an
 * unchanged key.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>
#include <tuple>

#include "campaign/campaign.hh"
#include "campaign/export.hh"
#include "campaign/manifest.hh"
#include "service/service.hh"
#include "util/hash.hh"
#include "util/logging.hh"

using namespace mprobe;

namespace
{

namespace fs = std::filesystem;

/** What a fixture pins, and what one path produced. */
struct Golden
{
    /** The spec's content summary (for the reader). */
    std::string spec;
    /** campaignFingerprint of the spec and machine: a different
     * campaign may be rewritten under an unchanged version. */
    std::string fingerprint;
    uint64_t schema = 0;
    std::vector<std::string> keys;
    /** One digest per job of its sampleToText bytes; empty for a
     * path that returns no Samples. */
    std::vector<std::string> samples;
    std::vector<std::string> rows;
    /** The CSV rows behind the row digests (messages only; not part
     * of a fixture). */
    std::vector<std::string> csv;
};

std::string
hex16(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
fixturePath(const std::string &name)
{
    return std::string(MPROBE_SOURCE_DIR) + "/tests/golden/" + name +
           ".golden";
}

bool
writeMode()
{
    const char *v = std::getenv("MPROBE_WRITE_GOLDEN");
    return v != nullptr && v[0] == '1';
}

std::string
freshDir(const std::string &tag)
{
    std::string dir = testing::TempDir() + "mprobe-golden-" + tag;
    fs::remove_all(dir);
    return dir;
}

/** One pinned spec: its fixture name and spec-file text. */
struct PinnedSpec
{
    const char *name;
    std::string text;
};

/** The corpus of the first three specs: small memory + random sets. */
const char *const kCorpus = "categories = memory, random\n"
                            "random_count = 4\n"
                            "per_memory_group = 1\n"
                            "memory_count = 1\n"
                            "body_size = 512\n"
                            "bootstrap = 0\n"
                            "progress_seconds = 0\n";

const PinnedSpec kSpecs[] = {
    {"flat", std::string(kCorpus) + "configs = all\n"},
    {"freqs", std::string(kCorpus) + "configs = 1-1,8-4\n"
                                     "freqs = 2.0,3.0,3.5\n"},
    // 0.70 V sits below every workload's Vmin (unreliable rows);
    // 1.0 V is on-curve at 3.0 GHz (the vdd-free key).
    {"sweep", std::string(kCorpus) + "configs = 1-1,8-4\n"
                                     "freqs = 2.0,3.0,3.5\n"
                                     "vdds = 0.70,0.92,1.0\n"},
    // The whole Table-2 suite, bootstrapped, with small counts and
    // search budgets.
    {"table2", "configs = 1-1,2-2,8-4\n"
               "random_count = 2\n"
               "per_memory_group = 1\n"
               "memory_count = 1\n"
               "body_size = 128\n"
               "bootstrap = 1\n"
               "ipc_search_budget = 2\n"
               "ga_population = 4\n"
               "ga_generations = 1\n"
               "progress_seconds = 0\n"},
};

/** Split CSV text into rows and their digests. */
void
addRows(const std::string &csv_text, Golden &g)
{
    std::istringstream in(csv_text);
    std::string row;
    while (std::getline(in, row)) {
        g.rows.push_back(hex16(hashStr(row)));
        g.csv.push_back(row);
    }
}

/** The digests of @p keys and @p samples (in job order) and of
 * their CSV export. */
Golden
observe(const std::vector<uint64_t> &keys, const std::vector<Sample> &samples)
{
    Golden g;
    for (uint64_t k : keys)
        g.keys.push_back(hex16(k));
    for (const Sample &s : samples)
        g.samples.push_back(hex16(hashStr(sampleToText(s))));
    std::ostringstream csv;
    exportSamplesCsv(csv, samples);
    addRows(csv.str(), g);
    return g;
}

Golden
observe(const CampaignResult &r)
{
    std::vector<uint64_t> keys;
    for (const auto &job : r.jobs)
        keys.push_back(job.key);
    return observe(keys, r.samples);
}

std::vector<uint64_t>
manifestKeys(const CampaignManifest &m)
{
    std::vector<uint64_t> keys;
    for (const auto &e : m.entries)
        keys.push_back(e.key);
    return keys;
}

bool
loadGolden(const std::string &path, Golden &g)
{
    std::ifstream f(path);
    if (!f)
        return false;
    std::string line;
    while (std::getline(f, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        auto sp = line.find(' ');
        std::string tag = line.substr(0, sp);
        std::string val =
            sp == std::string::npos ? "" : line.substr(sp + 1);
        if (tag == "spec")
            g.spec = val;
        else if (tag == "fingerprint")
            g.fingerprint = val;
        else if (tag == "schema")
            g.schema = std::stoull(val);
        else if (tag == "key")
            g.keys.push_back(val);
        else if (tag == "row")
            g.rows.push_back(val);
        else if (tag == "sample")
            g.samples.push_back(val);
        else
            return false;
    }
    return true;
}

/**
 * Rewrite @p name's fixture with @p got, unless that would change a
 * pinned key, row or sample of the same spec under the same schema
 * version.
 */
void
rewriteGolden(const std::string &name, const Golden &got)
{
    Golden old;
    if (loadGolden(fixturePath(name), old) &&
        old.fingerprint == got.fingerprint &&
        old.schema == got.schema) {
        ASSERT_EQ(old.keys, got.keys)
            << name << ": job keys moved without a "
            << "kCacheSchemaVersion bump; refusing to rewrite";
        ASSERT_EQ(old.rows, got.rows)
            << name << ": exported rows changed without a "
            << "kCacheSchemaVersion bump; refusing to rewrite";
        // A fixture written before samples were pinned gains them.
        if (!old.samples.empty()) {
            ASSERT_EQ(old.samples, got.samples)
                << name << ": cached samples changed without a "
                << "kCacheSchemaVersion bump; refusing to rewrite";
        }
    }
    std::ofstream f(fixturePath(name));
    ASSERT_TRUE(f) << "cannot write " << fixturePath(name);
    f << "# Golden export of tests/test_golden.cc's '" << name
      << "' spec: one job key per job,\n"
      << "# one FNV-1a digest per CSV row (header first), then one\n"
      << "# per job of its sampleToText bytes.\n"
      << "# Rewrite with MPROBE_WRITE_GOLDEN=1.\n"
      << "spec " << got.spec << "\n"
      << "fingerprint " << got.fingerprint << "\n"
      << "schema " << got.schema << "\n";
    for (const auto &k : got.keys)
        f << "key " << k << "\n";
    for (const auto &r : got.rows)
        f << "row " << r << "\n";
    for (const auto &s : got.samples)
        f << "sample " << s << "\n";
    ASSERT_TRUE(f.flush());
}

/** Compare what one path produced (@p label) with the fixture. */
void
expectFixture(const Golden &want, const Golden &got, const std::string &label)
{
    EXPECT_EQ(want.keys, got.keys) << label << ": job keys moved";
    if (!got.samples.empty()) {
        ASSERT_EQ(want.samples.size(), got.samples.size()) << label;
        for (size_t i = 0; i < want.samples.size(); ++i)
            ASSERT_EQ(want.samples[i], got.samples[i])
                << label << ": the sample of job " << i << " changed";
    }
    ASSERT_EQ(want.rows.size(), got.rows.size()) << label;
    for (size_t i = 0; i < want.rows.size(); ++i)
        ASSERT_EQ(want.rows[i], got.rows[i])
            << label << ": export row " << i
            << " changed; it now reads\n  " << got.csv[i];
}

struct Env
{
    Architecture arch = Architecture::get("POWER7");
    Machine machine = arch.machine();

    Env() { setLogLevel(LogLevel::Quiet); }
};

/** Plain Campaign::run on @p threads threads, fresh cache. */
std::vector<Golden>
runPlain(const PinnedSpec &ps, int threads)
{
    Env env;
    CampaignSpec spec = parseCampaignSpecText(ps.text, ps.name);
    spec.threads = threads;
    spec.cacheDir = freshDir(cat(ps.name, "-plain", threads));
    Campaign c(env.machine, spec);
    return {observe(c.run(env.arch))};
}

/** Two concurrent --serve workers on one cache, as two processes
 * of a fleet: each returns the complete campaign. */
std::vector<Golden>
runServe(const PinnedSpec &ps)
{
    const std::string dir = freshDir(cat(ps.name, "-serve"));
    std::vector<Golden> got(2);
    Env envs[2]; // one machine per worker process
    auto worker = [&](int w) {
        Env &env = envs[w];
        CampaignSpec spec = parseCampaignSpecText(ps.text, ps.name);
        spec.threads = 2;
        spec.cacheDir = dir;
        spec.serve = true;
        spec.workerId = cat("golden-worker-", w);
        spec.claimPollSeconds = 0.01;
        Campaign c(env.machine, spec);
        got[w] = observe(c.run(env.arch));
    };
    std::thread a(worker, 0), b(worker, 1);
    a.join();
    b.join();
    return got;
}

/** The drop-directory service over the dropped spec file: its
 * final samples.csv and its campaign manifest. */
std::vector<Golden>
runService(const PinnedSpec &ps)
{
    ServiceOptions opts;
    opts.dropDir = freshDir(cat(ps.name, "-drop"));
    opts.cacheDir = freshDir(cat(ps.name, "-pool"));
    opts.resultsDir = freshDir(cat(ps.name, "-results"));
    opts.threads = 2;
    opts.pollSeconds = 0.02;
    opts.exitWhenIdle = true;
    fs::create_directories(opts.dropDir);
    {
        std::ofstream f(opts.dropDir + "/" + ps.name + ".spec");
        f << ps.text;
    }
    CampaignService service(opts);
    EXPECT_EQ(service.run(), 1u);

    const std::string out = opts.resultsDir + "/" + ps.name;
    CampaignManifest m;
    EXPECT_TRUE(loadManifest(manifestPath(out), m)) << out;
    Golden g;
    for (uint64_t k : manifestKeys(m))
        g.keys.push_back(hex16(k));
    std::ifstream f(out + "/samples.csv");
    EXPECT_TRUE(f) << out << "/samples.csv";
    std::ostringstream csv;
    csv << f.rdbuf();
    addRows(csv.str(), g);
    return {g};
}

/** Two --shard slices into one cache, then the --merge step. */
std::vector<Golden>
runShards(const PinnedSpec &ps)
{
    Env env;
    CampaignSpec spec = parseCampaignSpecText(ps.text, ps.name);
    spec.threads = 2;
    spec.cacheDir = freshDir(cat(ps.name, "-shards"));
    spec.shardCount = 2;
    for (int index = 0; index < 2; ++index) {
        spec.shardIndex = index;
        Campaign shard(env.machine, spec);
        shard.run(env.arch);
    }
    CampaignManifest m;
    EXPECT_TRUE(loadManifest(manifestPath(spec.cacheDir), m));
    ResultCache cache(spec.cacheDir);
    ManifestCollection col = collectManifestSamples(m, cache, env.machine);
    EXPECT_TRUE(col.missing.empty());
    return {observe(manifestKeys(m), col.samples)};
}

/** One execution path of the matrix: its name and a runner that
 * returns one Golden per result the path produces. The first path
 * writes the fixtures. */
struct PathCase
{
    const char *name;
    std::vector<Golden> (*run)(const PinnedSpec &);
};

const PathCase kPaths[] = {
    {"plain1", [](const PinnedSpec &ps) { return runPlain(ps, 1); }},
    {"plain4", [](const PinnedSpec &ps) { return runPlain(ps, 4); }},
    {"serve", runServe},
    {"service", runService},
    {"shards", runShards},
};

class Conformance : public testing::TestWithParam<std::tuple<size_t, size_t>>
{
};

} // namespace

TEST_P(Conformance, MatchesFixture)
{
    const PathCase &path = kPaths[std::get<0>(GetParam())];
    const PinnedSpec &ps = kSpecs[std::get<1>(GetParam())];
    if (writeMode() && &path != &kPaths[0])
        GTEST_SKIP() << "the fixtures are written from " << kPaths[0].name;

    Env env;
    CampaignSpec spec = parseCampaignSpecText(ps.text, ps.name);
    const std::string fingerprint =
        hex16(campaignFingerprint(spec, env.machine.fingerprint()));
    std::vector<Golden> got = path.run(ps);

    if (writeMode()) {
        got[0].spec = spec.contentSummary();
        got[0].fingerprint = fingerprint;
        got[0].schema = kCacheSchemaVersion;
        rewriteGolden(ps.name, got[0]);
        return;
    }
    Golden want;
    ASSERT_TRUE(loadGolden(fixturePath(ps.name), want))
        << "missing or malformed " << fixturePath(ps.name)
        << " (MPROBE_WRITE_GOLDEN=1 writes it)";
    EXPECT_EQ(want.fingerprint, fingerprint)
        << ps.name << ": the spec or machine changed; rewrite the "
        << "fixtures with MPROBE_WRITE_GOLDEN=1";
    EXPECT_EQ(want.schema, kCacheSchemaVersion)
        << ps.name << ": kCacheSchemaVersion changed; rewrite the "
        << "fixtures with MPROBE_WRITE_GOLDEN=1";
    ASSERT_EQ(want.keys.size() + 1, want.rows.size()) << ps.name;
    ASSERT_EQ(want.samples.size(), want.keys.size()) << ps.name;
    for (size_t i = 0; i < got.size(); ++i)
        expectFixture(want, got[i],
                      cat(ps.name, " on ", path.name,
                          got.size() > 1 ? cat(" worker ", i) : ""));
}

INSTANTIATE_TEST_SUITE_P(
    Paths, Conformance,
    testing::Combine(testing::Range<size_t>(0, std::size(kPaths)),
                     testing::Range<size_t>(0, std::size(kSpecs))),
    [](const testing::TestParamInfo<Conformance::ParamType> &info) {
        return cat(kPaths[std::get<0>(info.param)].name, "_",
                   kSpecs[std::get<1>(info.param)].name);
    });
