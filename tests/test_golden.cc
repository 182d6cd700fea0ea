/**
 * @file
 * Golden-output tests: the export bytes and job keys of two small
 * campaigns, pinned to fixtures committed under tests/golden/.
 *
 * The campaign engine's behaviour contract is byte-identical exports
 * and cache keys. Each case runs one small spec in-process and
 * compares one digest per export CSV row (header first) and the
 * exact job-key list, in job order, with its fixture:
 *
 *   flat   memory + random on all 24 configurations;
 *   sweep  the same corpus on 2 configurations x freqs x vdds.
 *
 * A third case runs the flat spec as two --shard slices into one
 * cache and pins the collectManifestSamples merge to the flat rows.
 *
 * MPROBE_WRITE_GOLDEN=1 rewrites the fixtures instead of comparing.
 * A fixture records the campaign fingerprint and the
 * kCacheSchemaVersion it was written under, and the rewrite refuses
 * to change a row digest or a key of the same campaign while that
 * version is unchanged: a change that moves exported bytes must bump
 * the version (cache.hh), so no old cache entry is ever served under
 * an unchanged key.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "campaign/campaign.hh"
#include "campaign/export.hh"
#include "campaign/manifest.hh"
#include "util/hash.hh"
#include "util/logging.hh"

using namespace mprobe;

namespace
{

/** What a fixture pins. */
struct Golden
{
    /** The spec's content summary (for the reader). */
    std::string spec;
    /** campaignFingerprint of the spec and machine: a different
     * campaign may be rewritten under an unchanged version. */
    std::string fingerprint;
    uint64_t schema = 0;
    std::vector<std::string> keys;
    std::vector<std::string> rows;
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
freshCacheDir(const std::string &tag)
{
    std::string dir = testing::TempDir() + "mprobe-golden-" + tag;
    std::filesystem::remove_all(dir);
    return dir;
}

/** The corpus both specs measure: small memory + random sets. */
CampaignSpec
corpusSpec()
{
    CampaignSpec spec;
    spec.categories = {BenchCategory::MemoryGroup,
                       BenchCategory::Random};
    spec.suite.randomCount = 4;
    spec.suite.perMemoryGroup = 1;
    spec.suite.memoryCount = 1;
    spec.suite.bodySize = 512;
    spec.bootstrap = false;
    spec.threads = 2;
    spec.progressSeconds = 0;
    return spec;
}

CampaignSpec
flatSpec()
{
    CampaignSpec spec = corpusSpec();
    spec.configs = ChipConfig::all();
    return spec;
}

CampaignSpec
sweepSpec()
{
    CampaignSpec spec = corpusSpec();
    spec.configs = {{1, 1}, {8, 4}};
    spec.freqs = {2.0, 3.0, 3.5};
    // 0.70 V sits below every workload's Vmin (unreliable rows);
    // 1.0 V is on-curve at 3.0 GHz (the vdd-free key).
    spec.vdds = {0.70, 0.92, 1.0};
    return spec;
}

/** The digest of every CSV row of @p samples, header first. */
std::vector<std::string>
rowDigests(const std::vector<Sample> &samples,
           std::vector<std::string> *rows = nullptr)
{
    std::ostringstream csv;
    exportSamplesCsv(csv, samples);
    std::istringstream in(csv.str());
    std::vector<std::string> out;
    std::string row;
    while (std::getline(in, row)) {
        out.push_back(hex16(hashStr(row)));
        if (rows)
            rows->push_back(row);
    }
    return out;
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
        else
            return false;
    }
    return true;
}

/**
 * Rewrite @p name's fixture with @p got, unless that would change a
 * pinned key or row of the same spec under the same schema version.
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
    }
    std::ofstream f(fixturePath(name));
    ASSERT_TRUE(f) << "cannot write " << fixturePath(name);
    f << "# Golden export of tests/test_golden.cc's '" << name
      << "' spec: one job key per job,\n"
      << "# then one FNV-1a digest per CSV row (header first).\n"
      << "# Rewrite with MPROBE_WRITE_GOLDEN=1.\n"
      << "spec " << got.spec << "\n"
      << "fingerprint " << got.fingerprint << "\n"
      << "schema " << got.schema << "\n";
    for (const auto &k : got.keys)
        f << "key " << k << "\n";
    for (const auto &r : got.rows)
        f << "row " << r << "\n";
    ASSERT_TRUE(f.flush());
}

/** Compare (or, in write mode, record) one spec's keys and rows. */
void
checkGolden(const std::string &name, const CampaignSpec &spec,
            const Machine &machine, const CampaignResult &r)
{
    Golden got;
    got.spec = spec.contentSummary();
    got.fingerprint =
        hex16(campaignFingerprint(spec, machine.fingerprint()));
    got.schema = kCacheSchemaVersion;
    for (const auto &job : r.jobs)
        got.keys.push_back(hex16(job.key));
    std::vector<std::string> rows;
    got.rows = rowDigests(r.samples, &rows);

    if (writeMode()) {
        rewriteGolden(name, got);
        return;
    }
    Golden want;
    ASSERT_TRUE(loadGolden(fixturePath(name), want))
        << "missing or malformed " << fixturePath(name)
        << " (MPROBE_WRITE_GOLDEN=1 writes it)";
    EXPECT_EQ(want.fingerprint, got.fingerprint)
        << name << ": the spec or machine changed; rewrite the "
        << "fixtures with MPROBE_WRITE_GOLDEN=1";
    EXPECT_EQ(want.schema, got.schema)
        << name << ": kCacheSchemaVersion changed; rewrite the "
        << "fixtures with MPROBE_WRITE_GOLDEN=1";
    EXPECT_EQ(want.keys, got.keys) << name << ": job keys moved";
    ASSERT_EQ(want.rows.size(), got.rows.size()) << name;
    for (size_t i = 0; i < want.rows.size(); ++i)
        ASSERT_EQ(want.rows[i], got.rows[i])
            << name << ": export row " << i
            << " changed; it now reads\n  " << rows[i];
}

struct Env
{
    Architecture arch = Architecture::get("POWER7");
    // Built exactly as mprobe_campaign builds its machine.
    Machine machine{arch.isa(), arch.uarch().cacheGeometries(),
                    arch.uarch().clockGhz()};

    Env() { setLogLevel(LogLevel::Quiet); }
};

} // namespace

TEST(Golden, FlatExportAndKeys)
{
    Env env;
    CampaignSpec spec = flatSpec();
    Campaign c(env.machine, spec);
    CampaignResult r = c.run(env.arch);
    EXPECT_EQ(r.jobs.size(), r.workloads.size() * 24);
    checkGolden("flat", spec, env.machine, r);
}

TEST(Golden, SweepExportAndKeys)
{
    Env env;
    CampaignSpec spec = sweepSpec();
    Campaign c(env.machine, spec);
    CampaignResult r = c.run(env.arch);
    EXPECT_EQ(r.jobs.size(), r.workloads.size() * 2 * 3 * 3);
    checkGolden("sweep", spec, env.machine, r);
}

TEST(Golden, ShardedMergeMatchesFlatRows)
{
    if (writeMode())
        GTEST_SKIP() << "compares against the flat fixture";
    Env env;
    CampaignSpec spec = flatSpec();
    spec.cacheDir = freshCacheDir("shards");
    spec.shardCount = 2;
    for (int index = 0; index < 2; ++index) {
        spec.shardIndex = index;
        Campaign shard(env.machine, spec);
        shard.run(env.arch);
    }
    CampaignManifest m;
    ASSERT_TRUE(loadManifest(manifestPath(spec.cacheDir), m));
    ResultCache cache(spec.cacheDir);
    ManifestCollection col = collectManifestSamples(m, cache, env.machine);
    ASSERT_TRUE(col.missing.empty());

    Golden want;
    ASSERT_TRUE(loadGolden(fixturePath("flat"), want));
    std::vector<std::string> keys;
    for (const auto &e : m.entries)
        keys.push_back(hex16(e.key));
    EXPECT_EQ(keys, want.keys);
    EXPECT_EQ(rowDigests(col.samples), want.rows);
}
