/**
 * @file
 * Tests for the campaign subsystem: spec parsing, job expansion,
 * cache hit/miss behaviour, thread-count invariance of results and
 * the structured exporters.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "campaign/campaign.hh"
#include "campaign/export.hh"
#include "campaign/manifest.hh"
#include "campaign/queue.hh"
#include "microprobe/passes.hh"
#include "microprobe/synthesizer.hh"
#include "obs/telemetry.hh"
#include "util/hash.hh"
#include "util/logging.hh"
#include "workloads/pipeline.hh"

using namespace mprobe;

namespace
{

struct Fixture
{
    Architecture arch = Architecture::get("POWER7");
    Machine machine{arch.isa()};

    /** A few tiny distinct workloads for measurement tests. */
    std::vector<Program>
    programs(int n, size_t body = 128)
    {
        std::vector<Program> out;
        for (int i = 0; i < n; ++i) {
            Synthesizer synth(arch,
                              0xbeefull + static_cast<uint64_t>(i));
            synth.addPass<SkeletonPass>(body);
            synth.addPass<InstructionMixPass>(
                arch.isa().integerOps());
            synth.addPass<RegisterInitPass>(DataPattern::Random);
            out.push_back(synth.synthesize(cat("tiny-", i)));
        }
        return out;
    }
};

/** Fresh per-test cache directory. */
std::string
freshCacheDir(const std::string &tag)
{
    std::string dir = testing::TempDir() + "mprobe-cache-" + tag;
    std::filesystem::remove_all(dir);
    return dir;
}

/** Tiny spec measuring a handful of random workloads. */
CampaignSpec
tinySpec()
{
    CampaignSpec spec;
    // categories alone must be enough: the engine syncs it into
    // suite.categories itself.
    spec.categories = {BenchCategory::Random};
    spec.suite.randomCount = 3;
    spec.suite.bodySize = 128;
    spec.bootstrap = false;
    spec.threads = 2;
    spec.configs = {{1, 1}, {2, 1}, {1, 2}};
    return spec;
}

bool
samplesEqual(const Sample &a, const Sample &b)
{
    return a.workload == b.workload &&
           a.config.cores == b.config.cores &&
           a.config.smt == b.config.smt && a.rates == b.rates &&
           a.powerWatts == b.powerWatts &&
           a.instrGips == b.instrGips && a.coreIpc == b.coreIpc &&
           a.freqGhz == b.freqGhz && a.vddVolts == b.vddVolts &&
           a.reliable == b.reliable;
}

/**
 * End to end: strip the lines starting with @p strip off a real
 * cache entry (as a writer that predates them left it) and
 * re-measure. The entry must stay a hit, and the identity check
 * must accept it.
 */
void
expectLegacyEntryHits(const std::vector<std::string> &strip)
{
    Fixture f;
    auto progs = f.programs(1);
    std::vector<ChipConfig> cfgs = {{1, 1}};
    CampaignSpec spec = tinySpec();
    spec.cacheDir = freshCacheDir("legacy");

    Campaign c(f.machine, spec);
    auto s1 = c.measure(progs, cfgs);

    uint64_t key = campaignJobKey(progs[0], cfgs[0],
                                  f.machine.fingerprint(), 0);
    ResultCache cache(spec.cacheDir);
    std::string text;
    {
        std::ifstream in(cache.pathOf(key));
        std::ostringstream os;
        os << in.rdbuf();
        text = os.str();
    }
    for (const auto &k : strip) {
        auto at = text.find(k);
        ASSERT_NE(at, std::string::npos) << k;
        text = text.substr(0, at) +
               text.substr(text.find('\n', at) + 1);
    }
    {
        std::ofstream out(cache.pathOf(key));
        out << text;
    }
    Campaign c2(f.machine, spec);
    auto s2 = c2.measure(progs, cfgs);
    EXPECT_EQ(c2.cacheHits(), 1u);
    EXPECT_EQ(c2.cacheMisses(), 0u);
    EXPECT_EQ(c2.cacheCorrupt(), 0u);
    EXPECT_TRUE(samplesEqual(s1[0], s2[0]));
}

} // namespace

// ---------------------------------------------------------------
// parallelFor

TEST(ParallelFor, CoversEveryIndexOnce)
{
    for (int threads : {1, 2, 7}) {
        std::vector<std::atomic<int>> seen(100);
        parallelFor(threads, seen.size(),
                    [&](size_t i) { ++seen[i]; });
        for (const auto &s : seen)
            EXPECT_EQ(s.load(), 1) << threads;
    }
}

TEST(ParallelFor, MoreThreadsThanWork)
{
    std::atomic<int> count{0};
    parallelFor(16, 3, [&](size_t) { ++count; });
    EXPECT_EQ(count.load(), 3);
}

TEST(ParallelFor, EmptyRange)
{
    parallelFor(4, 0, [](size_t) { FAIL(); });
}

// ---------------------------------------------------------------
// Spec parsing

TEST(CampaignSpec, ParsesFullExample)
{
    CampaignSpec spec = parseCampaignSpecText(
        "# training corpus\n"
        "categories = memory, random\n"
        "configs = 1-1, 2-2, 8-4\n"
        "random_count = 12\n"
        "per_memory_group = 2\n"
        "body_size = 1024\n"
        "threads = 4\n"
        "cache_dir = /tmp/c\n"
        "salt = 7\n"
        "bootstrap = 0\n"
        "seed = 0x123\n",
        "<test>");
    ASSERT_EQ(spec.categories.size(), 2u);
    EXPECT_EQ(spec.categories[0], BenchCategory::MemoryGroup);
    EXPECT_EQ(spec.categories[1], BenchCategory::Random);
    EXPECT_TRUE(spec.suiteEnabled);
    ASSERT_EQ(spec.configs.size(), 3u);
    EXPECT_EQ(spec.configs[2].cores, 8);
    EXPECT_EQ(spec.configs[2].smt, 4);
    EXPECT_EQ(spec.suite.randomCount, 12);
    EXPECT_EQ(spec.suite.perMemoryGroup, 2);
    EXPECT_EQ(spec.suite.bodySize, 1024u);
    EXPECT_EQ(spec.threads, 4);
    EXPECT_EQ(spec.cacheDir, "/tmp/c");
    EXPECT_EQ(spec.salt, 7u);
    EXPECT_FALSE(spec.bootstrap);
    EXPECT_EQ(spec.suite.seed, 0x123u);
    // The restriction reaches the suite generator when a Campaign
    // is constructed (covered by CampaignRun tests), not at parse
    // time.
}

TEST(CampaignSpec, EmptyTextIsFullDefaultCampaign)
{
    CampaignSpec spec = parseCampaignSpecText("", "<test>");
    EXPECT_TRUE(spec.suiteEnabled);
    EXPECT_TRUE(spec.categories.empty());
    EXPECT_EQ(spec.configs.size(), 24u);
    EXPECT_EQ(spec.threads, 0); // auto
}

TEST(CampaignSpec, ExtraSourcesParse)
{
    CampaignSpec spec = parseCampaignSpecText(
        "categories = none\n"
        "spec_proxies = 1\n"
        "daxpy = 1\n"
        "extremes = 1\n",
        "<test>");
    EXPECT_FALSE(spec.suiteEnabled);
    EXPECT_TRUE(spec.specProxies);
    EXPECT_TRUE(spec.daxpy);
    EXPECT_TRUE(spec.extremes);
}

TEST(CampaignSpec, ValueMayContainEquals)
{
    CampaignSpec spec = parseCampaignSpecText(
        "cache_dir = /scratch/run=3/cache\n", "<test>");
    EXPECT_EQ(spec.cacheDir, "/scratch/run=3/cache");
}

TEST(CampaignSpecDeath, UnknownKeyFatal)
{
    EXPECT_EXIT(parseCampaignSpecText("bogus = 1\n", "<test>"),
                testing::ExitedWithCode(1), "unknown campaign key");
}

TEST(CampaignSpecDeath, NoWorkloadsFatal)
{
    EXPECT_EXIT(
        parseCampaignSpecText("categories = none\n", "<test>"),
        testing::ExitedWithCode(1), "selects no workloads");
}

TEST(CampaignSpecDeath, BadConfigFatal)
{
    EXPECT_EXIT(
        parseCampaignSpecText("configs = 4x2\n", "<test>"),
        testing::ExitedWithCode(1), "bad config");
}

namespace
{

/** The fields mprobe_campaign's override flags set, as text. */
std::string
overridable(const CampaignSpec &s)
{
    std::ostringstream os;
    for (const ChipConfig &c : s.configs)
        os << c.label() << ",";
    os << " freqs";
    for (double f : s.freqs)
        os << " " << f;
    os << " vdds";
    for (double v : s.vdds)
        os << " " << v;
    os << " threads " << s.threads << " cache " << s.cacheDir
       << " salt " << s.salt << " shard " << s.shardIndex << "/"
       << s.shardCount << " ttl " << s.claimTtlSeconds
       << " progress " << s.progressSeconds << " serve " << s.serve;
    return os.str();
}

} // namespace

TEST(CampaignSpec, OverrideSettingMatchesSpecLine)
{
    // Each key mprobe_campaign overrides, with a non-default value.
    const std::pair<const char *, const char *> settings[] = {
        {"configs", "1-1,8-4"},
        {"freqs", "2.0,3.5"},
        {"vdds", "0.9,1.0"},
        {"threads", "3"},
        {"cache_dir", "/scratch/run=3/cache"},
        {"salt", "42"},
        {"shard", "1/3"},
        {"claim_ttl_seconds", "7.5"},
        {"progress_seconds", "0"},
        {"serve", "1"},
    };
    for (const auto &[key, value] : settings) {
        CampaignSpec flag;
        applySpecSetting(flag, key, value, "--flag");
        CampaignSpec line =
            parseCampaignSpecText(cat(key, " = ", value, "\n"), "<test>");
        EXPECT_EQ(overridable(flag), overridable(line)) << key;
        EXPECT_NE(overridable(flag), overridable(CampaignSpec())) << key;
    }
}

TEST(CampaignSpecDeath, OverrideSettingNamesTheFlag)
{
    // key, bad value, flag (or spec-file line), expected message.
    const char *const bad[][4] = {
        {"configs", "4x2", "--configs", "bad config '4x2' .* in --configs"},
        {"configs", "1-1,9-1", "--configs", "bad config '9-1' .* in --configs"},
        {"configs", "0-1", "--configs", "bad config '0-1' .* in --configs"},
        {"configs", "8-3", "--configs", "bad config '8-3' .* in --configs"},
        {"configs", "4294967297-1", "--configs",
         "bad config '4294967297-1' .* in --configs"},
        {"body_size", "-1", "s.spec:1", "body_size must be >= 2 in s.spec:1"},
        {"body_size", "1", "s.spec:1", "body_size must be >= 2 in s.spec:1"},
        {"random_count", "-3", "s.spec:2",
         "random_count must be >= 0 in s.spec:2"},
        {"random_count", "4294967297", "s.spec:2",
         "random_count must be <= 2147483647 in s.spec:2"},
        {"per_memory_group", "-1", "s.spec:3",
         "per_memory_group must be >= 0 in s.spec:3"},
        {"memory_count", "-1", "s.spec:4",
         "memory_count must be >= 0 in s.spec:4"},
        {"ipc_search_budget", "-1", "s.spec:5",
         "ipc_search_budget must be >= 0 in s.spec:5"},
        {"ga_population", "-1", "s.spec:6",
         "ga_population must be >= 0 in s.spec:6"},
        {"ga_generations", "-1", "s.spec:7",
         "ga_generations must be >= 0 in s.spec:7"},
        {"freqs", "2.0,2.0", "--freqs", "duplicate frequency 2.0 in --freqs"},
        {"vdds", "0", "--vdds", "voltage must be > 0 V, got '0' in --vdds"},
        {"freqs", "nan,2.0", "--freqs",
         "expected a finite number in range, got 'nan' in --freqs"},
        {"vdds", "0.9,inf", "--vdds",
         "expected a finite number in range, got 'inf' in --vdds"},
        {"threads", "-1", "--threads", "threads must be >= 0 in --threads"},
        {"threads", "4294967297", "--threads",
         "threads must be <= 2147483647 in --threads"},
        {"salt", "x", "--salt", "expected integer, got 'x' in --salt"},
        {"salt", "0x10000000000000000", "--salt",
         "integer '0x10000000000000000' out of range in --salt"},
        {"shard", "2/2", "--shard", "out of range .* in --shard"},
        {"shard", "0/4294967297", "--shard",
         "shard count must be <= 2147483647 in --shard"},
        {"shard", "4294967296/2", "--shard",
         "shard index must be <= 2147483647 in --shard"},
        {"claim_ttl_seconds", "0", "--claim-ttl",
         "claim_ttl_seconds must be > 0 in --claim-ttl"},
        {"claim_ttl_seconds", "nan", "--claim-ttl",
         "expected a finite number in range, got 'nan' in --claim-ttl"},
        {"progress_seconds", "-1", "--progress-seconds",
         "progress_seconds must be >= 0 .* in --progress-seconds"},
        {"progress_seconds", "inf", "--progress-seconds",
         "expected a finite number in range, got 'inf' in --progress-seconds"},
    };
    for (const auto &b : bad) {
        CampaignSpec spec;
        EXPECT_EXIT(applySpecSetting(spec, b[0], b[1], b[2]),
                    testing::ExitedWithCode(1), b[3])
            << b[0];
    }
}

TEST(CampaignSpecDeath, ToolConfigAndBodySizeAreBounded)
{
    // mprobe_bootstrap's --cores/--smt pair and every tool's --size:
    // a value that wraps into range, a configuration the machine
    // cannot run, or a body below two slots fails where it is
    // parsed.
    const char *const configs[][2] = {
        {"4294967297-1", "bad config '4294967297-1' .* in --cores/--smt"},
        {"9-1", "bad config '9-1' .* in --cores/--smt"},
        {"8-3", "bad config '8-3' .* in --cores/--smt"},
        {"1-1,2-1", "bad config '1-1,2-1' \\(want cores-smt\\)"},
    };
    for (const auto &c : configs)
        EXPECT_EXIT(parseConfig(c[0], "--cores/--smt"),
                    testing::ExitedWithCode(1), c[1])
            << c[0];
    const char *const sizes[][2] = {
        {"1", "body_size must be >= 2 in --size"},
        {"-1", "body_size must be >= 2 in --size"},
        {"4294967298", "body_size must be <= 2147483647 in --size"},
    };
    for (const auto &b : sizes)
        EXPECT_EXIT(parseBodySize(b[0], "--size"),
                    testing::ExitedWithCode(1), b[1])
            << b[0];
    EXPECT_EQ(parseConfig("8-4", "--cores/--smt").threads(), 32);
    EXPECT_EQ(parseBodySize("2", "--size"), 2u);
}

TEST(CampaignSpec, SeedAndSaltTakeEvery64BitValue)
{
    // Three salts that used to clamp to one value (and one job key);
    // a leading '-' keeps its two's-complement value.
    const std::pair<const char *, uint64_t> salts[] = {
        {"0x7fffffffffffffff", 0x7fffffffffffffffull},
        {"0x8000000000000000", 0x8000000000000000ull},
        {"0xffffffffffffffff", 0xffffffffffffffffull},
        {"-1", 0xffffffffffffffffull},
    };
    for (const auto &[text, value] : salts) {
        CampaignSpec spec;
        applySpecSetting(spec, "salt", text, "--salt");
        EXPECT_EQ(spec.salt, value) << text;
        spec = parseCampaignSpecText(cat("seed = ", text, "\n"), "<test>");
        EXPECT_EQ(spec.suite.seed, value) << text;
    }
}

// ---------------------------------------------------------------
// Job keys

TEST(CampaignJobKey, DistinguishesContent)
{
    Fixture f;
    auto progs = f.programs(2);
    uint64_t fp = f.machine.fingerprint();
    uint64_t k0 = campaignJobKey(progs[0], {1, 1}, fp, 0);
    EXPECT_EQ(k0, campaignJobKey(progs[0], {1, 1}, fp, 0));
    EXPECT_NE(k0, campaignJobKey(progs[1], {1, 1}, fp, 0));
    EXPECT_NE(k0, campaignJobKey(progs[0], {2, 1}, fp, 0));
    EXPECT_NE(k0, campaignJobKey(progs[0], {1, 2}, fp, 0));
    EXPECT_NE(k0, campaignJobKey(progs[0], {1, 1}, fp ^ 1, 0));
    EXPECT_NE(k0, campaignJobKey(progs[0], {1, 1}, fp, 1));
}

namespace
{

/** A hand-built program with two memory streams: no generator
 * feeds it, so its keys can be pinned as literals. */
Program
pinnedKeyProgram()
{
    Program p;
    p.name = "pinned-keys";
    p.body = {{3, 0, -1, 1.0f, 1.0f},
              {17, 1, 0, 0.5f, 1.0f},
              {42, 2, 1, 0.25f, 1.0f},
              {5, 0, -1, 0.0f, 0.75f}};
    p.streams.resize(2);
    p.streams[0].lines = {0x1000, 0x1080, 0x2000};
    p.streams[1].lines = {0xdeadbe00};
    return p;
}

} // namespace

TEST(CampaignJobKey, PinnedValues)
{
    // Every cache directory is addressed by these keys. Changing
    // how a key is computed must leave them alone; changing what
    // it covers needs a kCacheSchemaVersion bump, which moves them.
    Program p = pinnedKeyProgram();
    const uint64_t fp = 0x0123456789abcdefull;
    const ChipConfig cfg{4, 2};
    EXPECT_EQ(campaignJobKey(p, cfg, fp, 7), 0x1be9012b74a0c636ull);
    EXPECT_EQ(campaignJobKey(p, cfg, fp, 7, 2.5),
              0xa9bd4cc1ce940f52ull);
    EXPECT_EQ(campaignJobKey(p, cfg, fp, 7, 0.0, 0.9),
              0x4e62089f2ea62623ull);
    EXPECT_EQ(campaignJobKey(p, cfg, fp, 7, 2.5, 0.9),
              0x0a97b8c087ef0de7ull);
}

TEST(CampaignJobKey, ManyLanesEqualOneKeyAtATime)
{
    Fixture f;
    std::vector<Program> progs = {pinnedKeyProgram(),
                                  f.programs(1, 256)[0]};
    // Points in expansion order (config-major, vdd innermost), so
    // every prefix mixes frequencies and voltages.
    std::vector<JobKeyPoint> all;
    for (const ChipConfig &cfg : ChipConfig::all())
        for (double freq : {0.0, 2.5})
            for (double vdd : {0.0, 0.9})
                all.push_back({cfg, freq, vdd});
    const uint64_t fp = f.machine.fingerprint();
    for (const Program &prog : progs)
        for (size_t lanes : {1, 7, 8, 9, 24}) {
            std::vector<JobKeyPoint> points(all.begin(),
                                            all.begin() + lanes);
            std::vector<uint64_t> keys =
                campaignJobKeys(prog, points, fp, 3);
            ASSERT_EQ(keys.size(), lanes);
            for (size_t k = 0; k < lanes; ++k)
                EXPECT_EQ(keys[k],
                          campaignJobKey(prog, points[k].config, fp,
                                         3, points[k].freqGhz,
                                         points[k].vdd))
                    << prog.name << ": " << lanes << " lanes, point "
                    << k;
        }
    EXPECT_TRUE(campaignJobKeys(progs[0], {}, fp, 3).empty());
}

TEST(MachineFingerprint, SensitiveToKnobs)
{
    Fixture f;
    GroundTruthParams p;
    p.idleWatts += 1.0;
    Machine other(f.arch.isa(), p);
    EXPECT_NE(f.machine.fingerprint(), other.fingerprint());
    Machine same(f.arch.isa());
    EXPECT_EQ(f.machine.fingerprint(), same.fingerprint());
}

// ---------------------------------------------------------------
// Sample serialization

TEST(SampleText, RoundTrips)
{
    Sample s;
    s.workload = "bench with spaces";
    s.config = {4, 2};
    s.rates = {1.5, 0, 2.25, 3, 4, 5e-3, 6.125};
    s.powerWatts = 91.625;
    s.instrGips = 12.5;
    s.coreIpc = 1.75;
    Sample t;
    ASSERT_TRUE(sampleFromText(sampleToText(s), t));
    EXPECT_TRUE(samplesEqual(s, t));
}

TEST(SampleText, RejectsGarbage)
{
    Sample t;
    EXPECT_FALSE(sampleFromText("", t));
    EXPECT_FALSE(sampleFromText("workload x\n", t));
    EXPECT_FALSE(sampleFromText("nonsense 1 2 3\n", t));
    EXPECT_FALSE(sampleFromText(
        "workload x\nconfig 1-1\nrates 1 2\npower 3\n", t));
}

TEST(SampleText, RejectsTruncatedEntry)
{
    // A file torn right after the power line must be a corrupt
    // entry (-> miss), not a hit with zeroed gips/ipc.
    Sample s;
    s.workload = "w";
    s.config = {1, 1};
    s.rates = {1, 2, 3, 4, 5, 6, 7};
    s.powerWatts = 70.0;
    std::string text = sampleToText(s);
    std::string torn = text.substr(0, text.find("gips"));
    Sample t;
    EXPECT_FALSE(sampleFromText(torn, t));
}

// ---------------------------------------------------------------
// Measurement: determinism and cache behaviour

TEST(CampaignMeasure, ThreadCountDoesNotChangeResults)
{
    Fixture f;
    auto progs = f.programs(4);
    std::vector<ChipConfig> cfgs = {{1, 1}, {2, 2}, {4, 1}};

    CampaignSpec serial = tinySpec();
    serial.threads = 1;
    Campaign c1(f.machine, serial);
    auto s1 = c1.measure(progs, cfgs);

    CampaignSpec parallel_spec = tinySpec();
    parallel_spec.threads = 4;
    Campaign cn(f.machine, parallel_spec);
    auto sn = cn.measure(progs, cfgs);

    ASSERT_EQ(s1.size(), progs.size() * cfgs.size());
    ASSERT_EQ(s1.size(), sn.size());
    for (size_t i = 0; i < s1.size(); ++i)
        EXPECT_TRUE(samplesEqual(s1[i], sn[i])) << i;
}

TEST(CampaignMeasure, WorkloadMajorOrder)
{
    Fixture f;
    auto progs = f.programs(2);
    std::vector<ChipConfig> cfgs = {{1, 1}, {2, 1}};
    Campaign c(f.machine, tinySpec());
    auto samples = c.measure(progs, cfgs);
    ASSERT_EQ(samples.size(), 4u);
    EXPECT_EQ(samples[0].workload, "tiny-0");
    EXPECT_EQ(samples[0].config.cores, 1);
    EXPECT_EQ(samples[1].workload, "tiny-0");
    EXPECT_EQ(samples[1].config.cores, 2);
    EXPECT_EQ(samples[2].workload, "tiny-1");
    EXPECT_EQ(samples[3].workload, "tiny-1");
}

TEST(CampaignCache, SecondRunHitsEverything)
{
    Fixture f;
    CampaignSpec spec = tinySpec();
    spec.cacheDir = freshCacheDir("hits");
    spec.threads = 2;

    Campaign first(f.machine, spec);
    CampaignResult r1 = first.run(f.arch);
    EXPECT_EQ(r1.cacheHits, 0u);
    EXPECT_EQ(r1.cacheMisses, r1.samples.size());
    ASSERT_EQ(r1.samples.size(),
              r1.workloads.size() * spec.configs.size());

    Campaign second(f.machine, spec);
    CampaignResult r2 = second.run(f.arch);
    EXPECT_EQ(r2.cacheMisses, 0u);
    EXPECT_EQ(r2.cacheHits, r2.samples.size());

    ASSERT_EQ(r1.samples.size(), r2.samples.size());
    for (size_t i = 0; i < r1.samples.size(); ++i)
        EXPECT_TRUE(samplesEqual(r1.samples[i], r2.samples[i]))
            << i;
}

TEST(CampaignCache, SaltChangesKeysAndMisses)
{
    Fixture f;
    CampaignSpec spec = tinySpec();
    spec.cacheDir = freshCacheDir("salt");
    Campaign first(f.machine, spec);
    CampaignResult r1 = first.run(f.arch);
    EXPECT_EQ(r1.cacheHits, 0u);

    spec.salt = 99;
    Campaign salted(f.machine, spec);
    CampaignResult r2 = salted.run(f.arch);
    EXPECT_EQ(r2.cacheHits, 0u)
        << "a different salt must not reuse cached results";
}

TEST(CampaignCache, CorruptEntryIsAMiss)
{
    Fixture f;
    auto progs = f.programs(1);
    std::vector<ChipConfig> cfgs = {{1, 1}};
    CampaignSpec spec = tinySpec();
    spec.cacheDir = freshCacheDir("corrupt");

    Campaign c(f.machine, spec);
    auto s1 = c.measure(progs, cfgs);

    // Clobber the single cache entry.
    uint64_t key = campaignJobKey(progs[0], cfgs[0],
                                  f.machine.fingerprint(), 0);
    ResultCache cache(spec.cacheDir);
    {
        std::ofstream out(cache.pathOf(key));
        out << "not a sample\n";
    }
    Campaign c2(f.machine, spec);
    auto s2 = c2.measure(progs, cfgs);
    EXPECT_EQ(c2.cacheMisses(), 1u);
    ASSERT_EQ(s2.size(), 1u);
    EXPECT_TRUE(samplesEqual(s1[0], s2[0]));
}

TEST(CampaignCache, DisabledCacheStillWorks)
{
    Fixture f;
    Campaign c(f.machine, tinySpec());
    CampaignResult r = c.run(f.arch);
    EXPECT_EQ(r.cacheHits, 0u);
    EXPECT_EQ(r.samples.size(),
              r.workloads.size() * tinySpec().configs.size());
}

// ---------------------------------------------------------------
// Per-workload configuration plans

TEST(CampaignMeasure, PerWorkloadConfigLists)
{
    Fixture f;
    auto progs = f.programs(2);

    // Reference: the cross-product overload.
    Campaign ref(f.machine, tinySpec());
    auto cross =
        ref.measure(progs, {ChipConfig{1, 1}, ChipConfig{2, 1}});
    ASSERT_EQ(cross.size(), 4u);

    // Plan: program 0 at 1-1 only, program 1 at 1-1 and 2-1.
    Campaign c(f.machine, tinySpec());
    auto samples = c.measure(
        progs, std::vector<std::vector<ChipConfig>>{
                   {ChipConfig{1, 1}},
                   {ChipConfig{1, 1}, ChipConfig{2, 1}}});
    ASSERT_EQ(samples.size(), 3u);
    // Program-major, per-program config order — and each sample is
    // exactly the cross-product sample of the same pair (job keys
    // are content hashes, independent of the plan shape).
    EXPECT_TRUE(samplesEqual(samples[0], cross[0]));
    EXPECT_TRUE(samplesEqual(samples[1], cross[2]));
    EXPECT_TRUE(samplesEqual(samples[2], cross[3]));
}

// ---------------------------------------------------------------
// Manifest and resume

TEST(CampaignManifest, RoundTrips)
{
    CampaignManifest m;
    m.spec = "campaign: full Table-2 suite x 24 configs";
    m.fingerprint = 0xfeedface12345678ull;
    m.entries.push_back(
        {0x0123456789abcdefull, {8, 4}, "Simple Integer",
         "simpleint-ipc0.5"});
    m.entries.push_back(
        {0xffffffffffffffffull, {1, 1}, "adhoc",
         "name with spaces"});
    CampaignManifest t;
    ASSERT_TRUE(manifestFromText(manifestToText(m), t));
    EXPECT_EQ(t.spec, m.spec);
    EXPECT_EQ(t.fingerprint, m.fingerprint);
    ASSERT_EQ(t.entries.size(), 2u);
    for (size_t i = 0; i < t.entries.size(); ++i) {
        EXPECT_EQ(t.entries[i].key, m.entries[i].key) << i;
        EXPECT_EQ(t.entries[i].config.cores,
                  m.entries[i].config.cores)
            << i;
        EXPECT_EQ(t.entries[i].config.smt, m.entries[i].config.smt)
            << i;
        EXPECT_EQ(t.entries[i].source, m.entries[i].source) << i;
        EXPECT_EQ(t.entries[i].workload, m.entries[i].workload)
            << i;
    }
}

TEST(CampaignManifest, RejectsGarbageAndTruncation)
{
    CampaignManifest t;
    EXPECT_FALSE(manifestFromText("", t));
    EXPECT_FALSE(manifestFromText("nonsense\n", t));
    // Declared job count mismatching the entries = torn manifest.
    CampaignManifest m;
    m.spec = "s";
    m.entries.push_back({1, {1, 1}, "adhoc", "w"});
    m.entries.push_back({2, {2, 1}, "adhoc", "w2"});
    std::string text = manifestToText(m);
    std::string torn = text.substr(0, text.rfind("job "));
    EXPECT_FALSE(manifestFromText(torn, t));
}

TEST(CampaignResume, CompletesOnlyRemainingJobs)
{
    Fixture f;
    CampaignSpec spec = tinySpec();
    spec.cacheDir = freshCacheDir("resume");

    // Uninterrupted reference run (fresh cache -> all misses).
    Campaign full(f.machine, spec);
    CampaignResult ref = full.run(f.arch);
    std::ostringstream ref_csv;
    exportSamplesCsv(ref_csv, ref.samples);

    // The manifest was persisted next to the cache and covers
    // every job.
    CampaignManifest m;
    ASSERT_TRUE(loadManifest(manifestPath(spec.cacheDir), m));
    EXPECT_EQ(m.spec, spec.contentSummary());
    // The fingerprint identifies job-key-relevant content: stable
    // across worker counts, different for a different salt.
    EXPECT_EQ(m.fingerprint,
              campaignFingerprint(spec, f.machine.fingerprint()));
    CampaignSpec salted = spec;
    salted.salt = 99;
    EXPECT_NE(m.fingerprint,
              campaignFingerprint(salted,
                                  f.machine.fingerprint()));
    CampaignSpec rethreaded = spec;
    rethreaded.threads = 7;
    EXPECT_EQ(m.fingerprint,
              campaignFingerprint(rethreaded,
                                  f.machine.fingerprint()));
    ASSERT_EQ(m.entries.size(), ref.jobs.size());
    for (size_t i = 0; i < m.entries.size(); ++i)
        EXPECT_EQ(m.entries[i].key, ref.jobs[i].key) << i;

    // Simulate an interrupt after N jobs: drop the cache entries
    // of everything after the first N.
    const size_t done = 3;
    ResultCache cache(spec.cacheDir);
    for (size_t i = done; i < ref.jobs.size(); ++i)
        std::filesystem::remove(cache.pathOf(ref.jobs[i].key));

    // Resume reporting sees exactly the dropped jobs.
    auto rem = collectManifestSamples(m, cache, f.machine).missing;
    ASSERT_EQ(rem.size(), ref.jobs.size() - done);
    for (size_t i = 0; i < rem.size(); ++i)
        EXPECT_EQ(rem[i].key, ref.jobs[done + i].key) << i;

    // The resumed run touches only the unfinished jobs...
    Campaign resumed(f.machine, spec);
    CampaignResult res = resumed.run(f.arch);
    EXPECT_EQ(res.cacheHits, done);
    EXPECT_EQ(res.cacheMisses, ref.jobs.size() - done);

    // ...and its export is identical to the uninterrupted run's.
    std::ostringstream res_csv;
    exportSamplesCsv(res_csv, res.samples);
    EXPECT_EQ(res_csv.str(), ref_csv.str());

    // Nothing is left afterwards.
    EXPECT_TRUE(collectManifestSamples(m, cache, f.machine).missing.empty());
}

// ---------------------------------------------------------------
// Campaign-powered model pipeline

TEST(CampaignPipeline, ThreadCountDoesNotChangeResults)
{
    // The pipeline routes all measurement through
    // Campaign::measure; a 2-thread and a 1-thread run must
    // produce identical samples everywhere (the acceptance bar for
    // the bench migrations).
    Fixture f;
    PipelineOptions po;
    // FloatVector supplies the compute-bound SMT-1 samples the
    // bottom-up training steps need; memory + random cover the
    // rest. Small budgets keep the corpus cheap.
    po.suite.categories = {BenchCategory::FloatVector,
                           BenchCategory::MemoryGroup,
                           BenchCategory::Random};
    po.suite.bodySize = 256;
    po.suite.perMemoryGroup = 1;
    po.suite.memoryCount = 1;
    po.suite.randomCount = 6;
    po.suite.ipcSearchBudget = 2;
    po.suite.threads = 1;
    po.configs = {{1, 1}, {2, 2}, {8, 4}};
    po.randomCrossConfig = 3;
    po.microConfigStride = 2;
    po.specCount = 4;
    po.bodySize = 256;

    po.threads = 1;
    ModelExperiment serial = runModelPipeline(f.arch, f.machine, po);
    po.threads = 2;
    ModelExperiment parallel_ex =
        runModelPipeline(f.arch, f.machine, po);

    auto expect_same = [](const std::vector<Sample> &a,
                          const std::vector<Sample> &b,
                          const char *what) {
        ASSERT_EQ(a.size(), b.size()) << what;
        for (size_t i = 0; i < a.size(); ++i)
            EXPECT_TRUE(samplesEqual(a[i], b[i]))
                << what << "[" << i << "]";
    };
    expect_same(serial.buSet.microSmt1,
                parallel_ex.buSet.microSmt1, "microSmt1");
    expect_same(serial.buSet.microSmtOn,
                parallel_ex.buSet.microSmtOn, "microSmtOn");
    expect_same(serial.buSet.randomSmt1,
                parallel_ex.buSet.randomSmt1, "randomSmt1");
    expect_same(serial.buSet.randomAllConfigs,
                parallel_ex.buSet.randomAllConfigs,
                "randomAllConfigs");
    expect_same(serial.microAllConfigs,
                parallel_ex.microAllConfigs, "microAllConfigs");
    expect_same(serial.randomAllConfigs,
                parallel_ex.randomAllConfigs, "randomAllConfigs");
    expect_same(serial.spec, parallel_ex.spec, "spec");
}

// ---------------------------------------------------------------
// Full-run expansion

TEST(CampaignRun, CategoryRestrictionHonoured)
{
    Fixture f;
    CampaignSpec spec = tinySpec();
    Campaign c(f.machine, spec);
    CampaignResult r = c.run(f.arch);
    ASSERT_EQ(r.workloads.size(), 3u);
    for (const auto &w : r.workloads)
        EXPECT_EQ(w.source, "Random");
    // Jobs cover every (workload, config) pair exactly once.
    std::set<std::pair<size_t, std::string>> pairs;
    for (const auto &j : r.jobs)
        pairs.insert({j.workload, j.config.label()});
    EXPECT_EQ(pairs.size(), r.jobs.size());
}

TEST(CampaignRun, SampleMatchesDirectMeasurement)
{
    // A campaign sample must be exactly what Machine::run yields
    // for the same job salt: the engine adds no distortion.
    Fixture f;
    CampaignSpec spec = tinySpec();
    Campaign c(f.machine, spec);
    CampaignResult r = c.run(f.arch);
    const CampaignJob &job = r.jobs[0];
    const Program &prog = r.workloads[job.workload].program;
    Sample direct = makeSample(
        prog.name,
        f.machine.run(prog, job.config,
                      hashCombine(job.key, 0x5a17ull)));
    EXPECT_TRUE(samplesEqual(direct, r.samples[0]));
}

// ---------------------------------------------------------------
// Exporters

TEST(Export, CsvShapeAndQuoting)
{
    Sample s;
    s.workload = "weird,\"name\"";
    s.config = {8, 4};
    s.rates = {1, 2, 3, 4, 5, 6, 7};
    s.powerWatts = 100.5;
    std::ostringstream os;
    exportSamplesCsv(os, {s});
    std::istringstream in(os.str());
    std::string header, row, extra;
    ASSERT_TRUE(std::getline(in, header));
    ASSERT_TRUE(std::getline(in, row));
    EXPECT_FALSE(std::getline(in, extra));
    EXPECT_EQ(header,
              "workload,cores,smt,fxu_gevps,vsu_gevps,lsu_gevps,"
              "l1_gevps,l2_gevps,l3_gevps,mem_gevps,power_watts,"
              "instr_gips,core_ipc,freq_ghz,epi_j,edp,vdd_volts,"
              "reliable");
    EXPECT_NE(row.find("\"weird,\"\"name\"\"\""),
              std::string::npos);
    EXPECT_NE(row.find("100.5"), std::string::npos);
}

TEST(Export, JsonEscapingAndFields)
{
    Sample s;
    s.workload = "a\"b\\c\n";
    s.config = {2, 1};
    s.rates = {0, 0, 0, 0, 0, 0, 0};
    s.powerWatts = 60.0;
    std::ostringstream os;
    exportSamplesJson(os, {s});
    std::string j = os.str();
    EXPECT_NE(j.find("\"a\\\"b\\\\c\\n\""), std::string::npos);
    EXPECT_NE(j.find("\"cores\": 2"), std::string::npos);
    EXPECT_NE(j.find("\"FXU\": 0"), std::string::npos);
    EXPECT_NE(j.find("\"power_watts\": 60"), std::string::npos);
}

TEST(Export, FileExtensionSelectsFormat)
{
    Sample s;
    s.workload = "w";
    s.config = {1, 1};
    s.rates = {0, 0, 0, 0, 0, 0, 0};
    s.powerWatts = 1.0;
    std::string base = testing::TempDir() + "mprobe-export";
    exportSamples(base + ".json", {s});
    exportSamples(base + ".csv", {s});
    std::ifstream fj(base + ".json"), fc(base + ".csv");
    std::string first_json, first_csv;
    std::getline(fj, first_json);
    std::getline(fc, first_csv);
    EXPECT_EQ(first_json, "[");
    EXPECT_EQ(first_csv.rfind("workload,", 0), 0u);
}

TEST(Export, ShortWriteIsFatal)
{
    // /dev/full accepts the open and fails the write, which the
    // stream reports only once its buffer is flushed.
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full on this platform";
    Sample s;
    s.workload = "w";
    s.config = {1, 1};
    s.rates = {0, 0, 0, 0, 0, 0, 0};
    ScopedFatalThrows guard;
    EXPECT_THROW(exportSamples("/dev/full", {s}), FatalError);
    EXPECT_THROW(exportSamples("/dev/full", {s}, SampleFormat::Json),
                 FatalError);
}

// ---------------------------------------------------------------
// Worker failure paths

TEST(ParallelFor, WorkerExceptionRethrownOnCaller)
{
    // An uncaught exception inside std::thread would terminate the
    // process; parallelFor must surface it on the calling thread.
    for (int threads : {1, 4}) {
        try {
            parallelFor(threads, 100, [](size_t i) {
                if (i == 37)
                    throw std::runtime_error("job 37 failed");
            });
            FAIL() << "no exception at " << threads << " threads";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "job 37 failed") << threads;
        }
    }
}

TEST(ParallelFor, FirstExceptionWinsAndWorkersStop)
{
    // Every index throws; exactly one exception must surface, and
    // the pool must still join cleanly.
    std::atomic<int> ran{0};
    EXPECT_THROW(parallelFor(4, 1000,
                             [&](size_t) {
                                 ++ran;
                                 throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
    // Workers stop pulling indices once a failure is recorded.
    EXPECT_LT(ran.load(), 1000);
}

TEST(CampaignMeasure, WorkerExceptionDoesNotTerminate)
{
    // The acceptance bar: an exception thrown inside a campaign
    // job surfaces on the caller's thread. Simulate a job failure
    // via parallelFor with the campaign's own thread resolution.
    int threads = resolveThreads(0, "test");
    EXPECT_THROW(
        parallelFor(threads, 64,
                    [](size_t i) {
                        if (i % 7 == 3)
                            throw std::runtime_error("probe died");
                    }),
        std::runtime_error);
}

// ---------------------------------------------------------------
// Corrupt-entry rejection (non-positive configurations)

TEST(SampleText, RejectsNonPositiveConfig)
{
    Sample s;
    s.workload = "w";
    s.config = {1, 1};
    s.rates = {1, 2, 3, 4, 5, 6, 7};
    s.powerWatts = 70.0;
    s.instrGips = 1.0;
    s.coreIpc = 1.0;
    std::string good = sampleToText(s);
    Sample t;
    ASSERT_TRUE(sampleFromText(good, t));
    // A corrupt "config 0-0" (or any non-positive pair) must parse
    // as a miss, never feed ChipConfig{0,0} downstream.
    for (const char *bad : {"0-0", "0-1", "1-0", "-1-1", "1--2"}) {
        std::string text = good;
        auto at = text.find("config 1-1");
        ASSERT_NE(at, std::string::npos);
        text.replace(at, 10, cat("config ", bad));
        EXPECT_FALSE(sampleFromText(text, t)) << bad;
    }
}

TEST(CampaignManifest, RejectsNonPositiveConfig)
{
    CampaignManifest m;
    m.spec = "s";
    m.fingerprint = 1;
    m.entries.push_back({1, {1, 1}, "adhoc", "w"});
    std::string good = manifestToText(m);
    CampaignManifest t;
    ASSERT_TRUE(manifestFromText(good, t));
    for (const char *bad : {"0-0", "0-1", "1-0"}) {
        std::string text = good;
        auto at = text.find(" 1-1 ");
        ASSERT_NE(at, std::string::npos);
        text.replace(at, 5, cat(" ", bad, " "));
        CampaignManifest u;
        EXPECT_FALSE(manifestFromText(text, u)) << bad;
    }
}

// ---------------------------------------------------------------
// Shard parsing and partitioning

TEST(CampaignSpec, ShardAndProgressKeysParse)
{
    CampaignSpec spec = parseCampaignSpecText(
        "shard = 2/5\n"
        "progress_seconds = 0.5\n",
        "<test>");
    EXPECT_EQ(spec.shardIndex, 2);
    EXPECT_EQ(spec.shardCount, 5);
    EXPECT_TRUE(spec.sharded());
    EXPECT_EQ(spec.progressSeconds, 0.5);
    // Defaults: unsharded.
    CampaignSpec def = parseCampaignSpecText("", "<test>");
    EXPECT_FALSE(def.sharded());
    EXPECT_EQ(def.shardIndex, 0);
    EXPECT_EQ(def.shardCount, 1);
}

TEST(CampaignSpecDeath, BadShardFatal)
{
    EXPECT_EXIT(parseCampaignSpecText("shard = 3\n", "<test>"),
                testing::ExitedWithCode(1), "bad shard");
    EXPECT_EXIT(parseCampaignSpecText("shard = 2/2\n", "<test>"),
                testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(parseCampaignSpecText("shard = 0/0\n", "<test>"),
                testing::ExitedWithCode(1), "count must be >= 1");
    EXPECT_EXIT(parseCampaignSpecText("shard = -1/2\n", "<test>"),
                testing::ExitedWithCode(1), "shard index must be >= 0");
}

// ---------------------------------------------------------------
// Sharded execution: union == unsharded, merge bit-identity

TEST(CampaignShard, UnionEqualsUnshardedAndMergeIsBitIdentical)
{
    Fixture f;

    // Serial unsharded reference.
    CampaignSpec ref_spec = tinySpec();
    ref_spec.threads = 1;
    ref_spec.cacheDir = freshCacheDir("shard-ref");
    Campaign ref(f.machine, ref_spec);
    CampaignResult r = ref.run(f.arch);
    EXPECT_EQ(r.totalJobs, r.jobs.size());
    std::ostringstream ref_csv;
    exportSamplesCsv(ref_csv, r.samples);

    for (int count : {2, 3}) {
        CampaignSpec spec = tinySpec();
        spec.cacheDir =
            freshCacheDir(cat("shard-", count, "way"));
        spec.shardCount = count;

        std::set<uint64_t> seen;
        size_t slice_total = 0;
        for (int index = 0; index < count; ++index) {
            spec.shardIndex = index;
            Campaign shard(f.machine, spec);
            CampaignResult sr = shard.run(f.arch);
            EXPECT_EQ(sr.totalJobs, r.jobs.size()) << index;
            // Fresh cache: every slice job is measured here, and
            // no slice overlaps another.
            EXPECT_EQ(sr.cacheHits, 0u) << index;
            slice_total += sr.jobs.size();
            for (size_t i = 0; i < sr.jobs.size(); ++i) {
                EXPECT_TRUE(seen.insert(sr.jobs[i].key).second)
                    << "key measured twice in shard " << index;
                EXPECT_EQ(sr.samples[i].workload,
                          r.workloads[sr.jobs[i].workload]
                              .program.name);
            }
        }
        // Union of the slices is exactly the unsharded job list.
        EXPECT_EQ(slice_total, r.jobs.size());
        for (const auto &job : r.jobs)
            EXPECT_EQ(seen.count(job.key), 1u);

        // Merge: manifest + cache reassemble the full campaign,
        // and its export is byte-identical to the unsharded run.
        CampaignManifest m;
        ASSERT_TRUE(loadManifest(manifestPath(spec.cacheDir), m));
        ASSERT_EQ(m.entries.size(), r.jobs.size());
        ResultCache cache(spec.cacheDir);
        ManifestCollection col = collectManifestSamples(m, cache, f.machine);
        EXPECT_TRUE(col.missing.empty());
        std::ostringstream merged_csv;
        exportSamplesCsv(merged_csv, col.samples);
        EXPECT_EQ(merged_csv.str(), ref_csv.str())
            << count << "-way merge not bit-identical";
    }
}

TEST(CampaignShard, IncompleteMergeReportsMissing)
{
    Fixture f;
    CampaignSpec spec = tinySpec();
    spec.cacheDir = freshCacheDir("shard-partial");
    spec.shardCount = 2;
    spec.shardIndex = 0;
    Campaign shard0(f.machine, spec);
    CampaignResult sr = shard0.run(f.arch);

    CampaignManifest m;
    ASSERT_TRUE(loadManifest(manifestPath(spec.cacheDir), m));
    ResultCache cache(spec.cacheDir);
    ManifestCollection col = collectManifestSamples(m, cache, f.machine);
    // Exactly the other shard's jobs are missing.
    EXPECT_EQ(col.missing.size(),
              sr.totalJobs - sr.jobs.size());
    EXPECT_EQ(col.samples.size(), sr.jobs.size());
    for (const auto &e : col.missing)
        EXPECT_TRUE(cache.contains(e.key) == false);
}

TEST(CampaignShardDeath, ShardWithoutCacheFatal)
{
    Fixture f;
    CampaignSpec spec = tinySpec();
    spec.shardCount = 2;
    EXPECT_EXIT(Campaign(f.machine, spec),
                testing::ExitedWithCode(1),
                "needs a cache directory");
}

// ---------------------------------------------------------------
// measure() and the manifest

TEST(CampaignMeasure, WritesNoManifest)
{
    // A measure() corpus comes from the caller, not from the spec,
    // so no spec file could resume or merge it: measure() leaves a
    // campaign's manifest in the shared cache directory alone.
    Fixture f;
    CampaignSpec spec = tinySpec();
    spec.cacheDir = freshCacheDir("measure-manifest");
    const std::string path = manifestPath(spec.cacheDir);

    Campaign(f.machine, spec).measure(f.programs(2), {ChipConfig{1, 1}});
    EXPECT_FALSE(std::filesystem::exists(path));

    // A run's manifest survives a later measure() into its cache.
    Campaign(f.machine, spec).run(f.arch);
    CampaignManifest before;
    ASSERT_TRUE(loadManifest(path, before));
    Campaign(f.machine, spec).measure(f.programs(1, 96), {ChipConfig{1, 1}});
    CampaignManifest after;
    ASSERT_TRUE(loadManifest(path, after));
    EXPECT_EQ(manifestToText(after), manifestToText(before));
}

TEST(CampaignMeasureDeath, ShardedSpecRefused)
{
    // measure() callers consume every sample; a shard slice would
    // hand them samples nobody measured.
    Fixture f;
    auto progs = f.programs(2);
    CampaignSpec spec = tinySpec();
    spec.cacheDir = freshCacheDir("measure-shard");
    spec.shardCount = 2;
    EXPECT_EXIT(
        {
            Campaign c(f.machine, spec);
            c.measure(progs, {ChipConfig{1, 1}, ChipConfig{2, 1}});
        },
        testing::ExitedWithCode(1), "cannot run a shard slice");
}

TEST(CampaignMeasure, ConcurrentServeCallsReturnTheFullCorpus)
{
    // Two measure() calls under serve share one cache directory,
    // as two bench processes of one fleet would: each drains the
    // common claim pool and returns every sample, byte-identical
    // to a serial unsharded call.
    Fixture f;
    auto progs = f.programs(4);
    std::vector<ChipConfig> cfgs = {{1, 1}, {2, 1}, {8, 4}, {1, 2}};

    CampaignSpec serial = tinySpec();
    serial.threads = 1;
    Campaign ref(f.machine, serial);
    std::vector<Sample> want = ref.measure(progs, cfgs);
    ASSERT_EQ(want.size(), progs.size() * cfgs.size());

    const std::string dir = freshCacheDir("measure-serve");
    std::vector<Sample> got[2];
    size_t misses[2] = {0, 0};
    auto worker = [&](int w) {
        CampaignSpec spec = tinySpec();
        spec.cacheDir = dir;
        spec.serve = true;
        spec.workerId = cat("measure-worker-", w);
        spec.claimPollSeconds = 0.01;
        Campaign c(f.machine, spec);
        got[w] = c.measure(progs, cfgs);
        misses[w] = c.cacheMisses();
    };
    std::thread a(worker, 0), b(worker, 1);
    a.join();
    b.join();

    for (int w = 0; w < 2; ++w) {
        ASSERT_EQ(got[w].size(), want.size()) << w;
        for (size_t i = 0; i < want.size(); ++i)
            EXPECT_EQ(sampleToText(got[w][i]), sampleToText(want[i]))
                << "worker " << w << ", sample " << i;
    }
    // Both drained the claim pool (each serve worker publishes its
    // telemetry there), and between them they measured each job
    // once: a claim holder re-checks the cache, so a job a peer
    // finished meanwhile is a hit.
    EXPECT_EQ(obs::readFleetTelemetry(dir).size(), 2u);
    EXPECT_EQ(misses[0] + misses[1], want.size());
}

// ---------------------------------------------------------------
// Progress reporting

TEST(CampaignProgress, DisabledEmitsNoProgressLines)
{
    Fixture f;
    auto progs = f.programs(2);
    CampaignSpec spec = tinySpec();
    spec.progressSeconds = 0;
    Campaign c(f.machine, spec);
    testing::internal::CaptureStderr();
    c.measure(progs, {ChipConfig{1, 1}, ChipConfig{2, 1}});
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(err.find("jobs done"), std::string::npos);
}

TEST(CampaignProgress, PeriodicLinesReportCounts)
{
    Fixture f;
    // Large-ish serial batch with a (practically) zero reporting
    // interval: every job past the first elapsed millisecond
    // reports, except the final one (the completion line covers
    // it).
    auto progs = f.programs(4, 768);
    CampaignSpec spec = tinySpec();
    spec.threads = 1;
    spec.progressSeconds = 0.001;
    Campaign c(f.machine, spec);
    testing::internal::CaptureStderr();
    c.measure(progs, {ChipConfig{1, 1}, ChipConfig{2, 2},
                      ChipConfig{4, 2}});
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("of 12 jobs done"), std::string::npos)
        << err;
}

// ---------------------------------------------------------------
// Job cost model and cost-striped sharding

TEST(JobCost, ScalesWithDeployedThreadsAndBody)
{
    JobCostModel m;
    // An 8-4 deployment simulates 32 hardware-thread contexts; the
    // estimate must dominate 1-1 accordingly, and grow with the
    // loop body.
    EXPECT_GT(m.estimate({8, 4}, 4096), m.estimate({1, 1}, 4096));
    EXPECT_GT(m.estimate({1, 1}, 4096), m.estimate({1, 1}, 128));
    EXPECT_GT(m.estimate({1, 1}, 1), 0.0);
    // Ratios reflect the thread count once the body dwarfs the
    // fixed per-job overhead.
    EXPECT_NEAR(m.estimate({8, 4}, 1 << 20) /
                    m.estimate({1, 1}, 1 << 20),
                32.0, 0.1);
}

TEST(CostStripe, PartitionsDisjointlyAndDeterministically)
{
    std::vector<double> costs = {32, 1, 1, 1, 16, 2, 8, 1, 4, 1};
    for (int count : {1, 2, 3, 4}) {
        auto shards = costStripedPartition(costs, count);
        ASSERT_EQ(shards.size(), static_cast<size_t>(count));
        std::vector<char> seen(costs.size(), 0);
        for (const auto &s : shards) {
            // Ascending index order within a shard.
            for (size_t k = 1; k < s.size(); ++k)
                EXPECT_LT(s[k - 1], s[k]);
            for (size_t i : s) {
                EXPECT_EQ(seen[i], 0) << "overlap at " << i;
                seen[i] = 1;
            }
        }
        for (size_t i = 0; i < seen.size(); ++i)
            EXPECT_EQ(seen[i], 1) << "hole at " << i;
        // Pure function of the costs: recomputing (as every shard
        // of a campaign does independently) yields the identical
        // partition.
        EXPECT_EQ(shards, costStripedPartition(costs, count));
    }
}

TEST(CostStripe, BalancesSkewedCosts)
{
    // Every sixth job is heavy (an 8-4 config, ~32x a 1-1 job):
    // striping by index residue would pile every heavy job onto one
    // shard for both 2 and 3 shards (6 is divisible by both).
    JobCostModel m;
    std::vector<double> costs;
    for (int i = 0; i < 24; ++i)
        costs.push_back(i % 6 == 0 ? m.estimate({8, 4}, 4096)
                                   : m.estimate({1, 1}, 4096));
    for (int count : {2, 3}) {
        double lo = 1e300, hi = 0.0;
        for (const auto &shard : costStripedPartition(costs, count)) {
            double c = 0.0;
            for (size_t i : shard)
                c += costs[i];
            lo = std::min(lo, c);
            hi = std::max(hi, c);
        }
        // LPT is essentially perfect at 2 shards (heavies split
        // evenly); at 3 shards the 4th heavy job forces ~1.5, the
        // optimum for this instance.
        EXPECT_LT(hi / lo, count == 2 ? 1.1 : 2.0) << count;
    }
}

TEST(CampaignShard, SkewedConfigUnionAndMergeBitIdentical)
{
    // Deliberately skewed configs (8-4 jobs cost ~32x the 1-1
    // jobs) still union to exactly the unsharded campaign, and the
    // merged export is byte-identical to the serial unsharded
    // reference.
    Fixture f;
    // Six configs with the heavy 8-4 first: in the workload-major
    // job list the heavy jobs land at indices = 0 mod 6.
    auto skewed = [&]() {
        CampaignSpec spec = tinySpec();
        spec.configs = {{8, 4}, {1, 1}, {1, 2},
                        {2, 1}, {1, 4}, {2, 2}};
        return spec;
    };

    CampaignSpec ref_spec = skewed();
    ref_spec.threads = 1;
    ref_spec.cacheDir = freshCacheDir("skew-ref");
    Campaign ref(f.machine, ref_spec);
    CampaignResult r = ref.run(f.arch);
    std::ostringstream ref_csv;
    exportSamplesCsv(ref_csv, r.samples);

    for (int count : {2, 3}) {
        CampaignSpec spec = skewed();
        spec.cacheDir = freshCacheDir(cat("skew-", count, "way"));
        spec.shardCount = count;

        std::set<uint64_t> seen;
        size_t slice_total = 0;
        double min_cost = 1e300, max_cost = 0.0;
        for (int index = 0; index < count; ++index) {
            spec.shardIndex = index;
            Campaign shard(f.machine, spec);
            CampaignResult sr = shard.run(f.arch);
            EXPECT_EQ(sr.totalJobs, r.jobs.size()) << index;
            EXPECT_EQ(sr.cacheHits, 0u) << index;
            slice_total += sr.jobs.size();
            double cost = 0.0;
            for (const auto &job : sr.jobs) {
                cost += job.cost;
                EXPECT_TRUE(seen.insert(job.key).second)
                    << "key measured twice in shard " << index;
            }
            min_cost = std::min(min_cost, cost);
            max_cost = std::max(max_cost, cost);
        }
        EXPECT_EQ(slice_total, r.jobs.size());
        for (const auto &job : r.jobs)
            EXPECT_EQ(seen.count(job.key), 1u);

        // Cost balance: the heavy jobs spread over the shards and
        // the light ones even out the rest (an index-residue split
        // would give one shard every 8-4 job).
        EXPECT_LT(max_cost / min_cost, 1.1) << count;

        // Merge: byte-identical to the unsharded serial export.
        CampaignManifest m;
        ASSERT_TRUE(loadManifest(manifestPath(spec.cacheDir), m));
        ASSERT_EQ(m.entries.size(), r.jobs.size());
        ResultCache cache(spec.cacheDir);
        ManifestCollection col = collectManifestSamples(m, cache, f.machine);
        EXPECT_TRUE(col.missing.empty());
        std::ostringstream merged_csv;
        exportSamplesCsv(merged_csv, col.samples);
        EXPECT_EQ(merged_csv.str(), ref_csv.str())
            << count << "-way skewed merge not bit-identical";
    }
}

TEST(CampaignMeasure, LongestFirstDrainKeepsExportBytes)
{
    // runJobs executes its local queue longest-job-first; the
    // export must not notice (samples are slot-indexed). Compare
    // export bytes of a serial run (in-order reference) against a
    // pooled run over a cost-skewed plan.
    Fixture f;
    auto progs = f.programs(3);
    std::vector<ChipConfig> cfgs = {{1, 1}, {8, 4}, {1, 2},
                                    {8, 2}};
    CampaignSpec serial = tinySpec();
    serial.threads = 1;
    Campaign c1(f.machine, serial);
    std::ostringstream a;
    exportSamplesCsv(a, c1.measure(progs, cfgs));

    CampaignSpec pooled = tinySpec();
    pooled.threads = 4;
    Campaign c4(f.machine, pooled);
    std::ostringstream b;
    exportSamplesCsv(b, c4.measure(progs, cfgs));
    EXPECT_EQ(a.str(), b.str());
}

// ---------------------------------------------------------------
// parallelFor abandonment reporting

TEST(ParallelFor, AbandonedIndicesAreLoggedWithLabel)
{
    // Construction callers pass a label; a worker failure must say
    // how much of the range was abandoned before the rethrow, so
    // partial synthesis never reads like a complete suite.
    for (int threads : {1, 4}) {
        testing::internal::CaptureStderr();
        EXPECT_THROW(
            parallelFor(
                threads, 64,
                [](size_t i) {
                    if (i == 10)
                        throw std::runtime_error("builder died");
                },
                "test synthesis"),
            std::runtime_error);
        std::string err = testing::internal::GetCapturedStderr();
        EXPECT_NE(err.find("test synthesis"), std::string::npos)
            << threads << ": " << err;
        EXPECT_NE(err.find("abandoned"), std::string::npos)
            << threads << ": " << err;
    }
    // Without a label (pure measurement), nothing is logged.
    testing::internal::CaptureStderr();
    EXPECT_THROW(parallelFor(2, 8,
                             [](size_t) {
                                 throw std::runtime_error("x");
                             }),
                 std::runtime_error);
    EXPECT_EQ(testing::internal::GetCapturedStderr().find(
                  "abandoned"),
              std::string::npos);
}

// ---------------------------------------------------------------
// DVFS frequency axis

TEST(CampaignSpec, FreqsKeyParses)
{
    CampaignSpec spec = parseCampaignSpecText(
        "freqs = 2.0, 2.5,3.0,3.5\n", "<test>");
    ASSERT_EQ(spec.freqs.size(), 4u);
    EXPECT_EQ(spec.freqs[0], 2.0);
    EXPECT_EQ(spec.freqs[3], 3.5);
    // Default: no axis.
    EXPECT_TRUE(parseCampaignSpecText("", "<test>").freqs.empty());
}

TEST(CampaignSpecDeath, BadFreqsFatal)
{
    EXPECT_EXIT(parseCampaignSpecText("freqs = 0\n", "<test>"),
                testing::ExitedWithCode(1), "must be > 0");
    EXPECT_EXIT(parseCampaignSpecText("freqs = 2.0,-1\n", "<test>"),
                testing::ExitedWithCode(1), "must be > 0");
    EXPECT_EXIT(
        parseCampaignSpecText("freqs = 2.0,2.0\n", "<test>"),
        testing::ExitedWithCode(1), "duplicate frequency");
}

TEST(CampaignJobKey, FrequencyJoinsTheKeyOnlyWhenSwept)
{
    Fixture f;
    auto progs = f.programs(1);
    uint64_t fp = f.machine.fingerprint();
    uint64_t legacy = campaignJobKey(progs[0], {1, 1}, fp, 0);
    // The nominal sentinel (0) is the pre-DVFS key: a cache
    // written before the frequency axis existed keeps hitting.
    EXPECT_EQ(legacy, campaignJobKey(progs[0], {1, 1}, fp, 0, 0.0));
    // Swept points get their own keys, distinct per frequency.
    uint64_t k25 = campaignJobKey(progs[0], {1, 1}, fp, 0, 2.5);
    uint64_t k35 = campaignJobKey(progs[0], {1, 1}, fp, 0, 3.5);
    EXPECT_NE(legacy, k25);
    EXPECT_NE(legacy, k35);
    EXPECT_NE(k25, k35);
}

TEST(CampaignFreqs, ExpansionCrossProductsAndNominalCollapses)
{
    Fixture f;
    auto progs = f.programs(2);
    std::vector<ChipConfig> cfgs = {{1, 1}, {2, 1}};

    // Reference: the axis-free measurement.
    Campaign ref(f.machine, tinySpec());
    auto nominal = ref.measure(progs, cfgs);

    CampaignSpec spec = tinySpec();
    spec.freqs = {2.0, f.machine.clockGhz(), 3.5};
    Campaign c(f.machine, spec);
    auto swept = c.measure(progs, cfgs);

    // Workload-major, config then frequency innermost.
    ASSERT_EQ(swept.size(),
              progs.size() * cfgs.size() * spec.freqs.size());
    for (size_t w = 0; w < progs.size(); ++w) {
        for (size_t cfg = 0; cfg < cfgs.size(); ++cfg) {
            size_t base =
                (w * cfgs.size() + cfg) * spec.freqs.size();
            for (size_t fi = 0; fi < spec.freqs.size(); ++fi) {
                const Sample &s = swept[base + fi];
                EXPECT_EQ(s.workload, progs[w].name);
                EXPECT_EQ(s.config.cores, cfgs[cfg].cores);
                EXPECT_EQ(s.freqGhz, spec.freqs[fi]);
            }
            // The sweep point at the nominal clock is exactly the
            // axis-free measurement (same key, same salt, same
            // sensor noise).
            EXPECT_TRUE(samplesEqual(
                swept[base + 1], nominal[w * cfgs.size() + cfg]));
        }
    }

    // Physics across the samples: the sweep must not be a rename —
    // power moves with the operating point.
    EXPECT_NE(swept[0].powerWatts, swept[1].powerWatts);
    EXPECT_NE(swept[1].powerWatts, swept[2].powerWatts);
}

TEST(CampaignFreqs, SweptCampaignSharesNominalCacheEntries)
{
    // The miss-free upgrade: a cache populated by an axis-free
    // campaign serves the nominal slice of a later sweep.
    Fixture f;
    auto progs = f.programs(2);
    std::vector<ChipConfig> cfgs = {{1, 1}, {2, 1}};
    CampaignSpec spec = tinySpec();
    spec.cacheDir = freshCacheDir("freq-upgrade");

    Campaign legacy(f.machine, spec);
    legacy.measure(progs, cfgs);
    EXPECT_EQ(legacy.cacheMisses(), progs.size() * cfgs.size());

    CampaignSpec sweep_spec = spec;
    sweep_spec.freqs = {2.0, f.machine.clockGhz()};
    Campaign sweep(f.machine, sweep_spec);
    sweep.measure(progs, cfgs);
    // Half the sweep (the nominal points) hits the legacy entries.
    EXPECT_EQ(sweep.cacheHits(), progs.size() * cfgs.size());
    EXPECT_EQ(sweep.cacheMisses(), progs.size() * cfgs.size());
}

TEST(SampleText, MissingFreqLoadsAsNominalDefault)
{
    // Pre-DVFS cache entries carry no freq line: they must load as
    // the 3.0 GHz default (a hit, not a cold re-run).
    Sample s;
    s.workload = "w";
    s.config = {1, 1};
    s.rates = {1, 2, 3, 4, 5, 6, 7};
    s.powerWatts = 70.0;
    s.instrGips = 1.0;
    s.coreIpc = 1.0;
    s.freqGhz = 2.5;
    std::string text = sampleToText(s);
    auto at = text.find("freq ");
    ASSERT_NE(at, std::string::npos);
    // Erase the freq line (pre-DVFS writers never emitted one).
    std::string legacy =
        text.substr(0, at) + text.substr(text.find('\n', at) + 1);
    Sample t;
    t.freqGhz = 99.0; // stale state must not leak through
    ASSERT_TRUE(sampleFromText(legacy, t));
    EXPECT_EQ(t.freqGhz, kNominalFreqGhz);
    // While an explicit non-positive frequency is corrupt.
    for (const char *bad : {"freq 0\n", "freq -2.5\n", "freq x\n"}) {
        Sample u;
        EXPECT_FALSE(sampleFromText(legacy + bad, u)) << bad;
    }
    // And the full round-trip preserves a swept frequency.
    Sample v;
    ASSERT_TRUE(sampleFromText(text, v));
    EXPECT_EQ(v.freqGhz, 2.5);
}

TEST(CampaignCache, LegacyEntryWithoutFreqIsAHit)
{
    // As a pre-DVFS run would have written it.
    expectLegacyEntryHits({"freq "});
}

TEST(CampaignManifest, FreqSuffixRoundTripsAndRejectsCorrupt)
{
    CampaignManifest m;
    m.spec = "s";
    m.fingerprint = 7;
    m.entries.push_back({1, {1, 1}, "adhoc", "nominal", 0.0});
    m.entries.push_back({2, {8, 4}, "adhoc", "swept", 2.5});
    std::string text = manifestToText(m);
    // Nominal entries keep the pre-DVFS token; swept ones gain @.
    EXPECT_NE(text.find(" 1-1 "), std::string::npos);
    EXPECT_NE(text.find(" 8-4@2.5 "), std::string::npos);
    CampaignManifest t;
    ASSERT_TRUE(manifestFromText(text, t));
    EXPECT_EQ(t.entries[0].freqGhz, 0.0);
    EXPECT_EQ(t.entries[1].freqGhz, 2.5);
    // A non-positive swept frequency is corrupt, like a
    // non-positive config.
    for (const char *bad : {"8-4@0", "8-4@-1", "8-4@"}) {
        std::string broken = text;
        auto at = broken.find("8-4@2.5");
        broken.replace(at, 7, bad);
        CampaignManifest u;
        EXPECT_FALSE(manifestFromText(broken, u)) << bad;
    }
}

TEST(CampaignShard, ShardedFreqSweepMergesBitIdentical)
{
    // The acceptance bar: a sharded frequency-sweep campaign
    // assembles byte-identically to the unsharded run.
    Fixture f;
    auto sweep_spec = []() {
        CampaignSpec spec = tinySpec();
        spec.configs = {{1, 1}, {2, 2}};
        spec.freqs = {2.0, 3.0, 3.5};
        return spec;
    };

    CampaignSpec ref_spec = sweep_spec();
    ref_spec.threads = 1;
    ref_spec.cacheDir = freshCacheDir("freq-shard-ref");
    Campaign ref(f.machine, ref_spec);
    CampaignResult r = ref.run(f.arch);
    EXPECT_EQ(r.totalJobs, r.workloads.size() * 2 * 3);
    std::ostringstream ref_csv;
    exportSamplesCsv(ref_csv, r.samples);

    CampaignSpec spec = sweep_spec();
    spec.cacheDir = freshCacheDir("freq-shard");
    spec.shardCount = 2;
    std::set<uint64_t> seen;
    for (int index = 0; index < 2; ++index) {
        spec.shardIndex = index;
        Campaign shard(f.machine, spec);
        CampaignResult sr = shard.run(f.arch);
        EXPECT_EQ(sr.cacheHits, 0u) << index;
        for (const auto &job : sr.jobs)
            EXPECT_TRUE(seen.insert(job.key).second);
    }
    EXPECT_EQ(seen.size(), r.jobs.size());

    CampaignManifest m;
    ASSERT_TRUE(loadManifest(manifestPath(spec.cacheDir), m));
    ResultCache cache(spec.cacheDir);
    ManifestCollection col = collectManifestSamples(m, cache, f.machine);
    EXPECT_TRUE(col.missing.empty());
    std::ostringstream merged_csv;
    exportSamplesCsv(merged_csv, col.samples);
    EXPECT_EQ(merged_csv.str(), ref_csv.str());
}

// ---------------------------------------------------------------
// Undervolting (vdd) axis

TEST(CampaignSpec, VddsKeyParses)
{
    CampaignSpec spec = parseCampaignSpecText(
        "vdds = 0.85, 0.9,0.95,1.0\n", "<test>");
    ASSERT_EQ(spec.vdds.size(), 4u);
    EXPECT_EQ(spec.vdds[0], 0.85);
    EXPECT_EQ(spec.vdds[3], 1.0);
    // Default: no axis.
    EXPECT_TRUE(parseCampaignSpecText("", "<test>").vdds.empty());
}

TEST(CampaignSpecDeath, BadVddsFatal)
{
    EXPECT_EXIT(parseCampaignSpecText("vdds = 0\n", "<test>"),
                testing::ExitedWithCode(1), "must be > 0 V");
    EXPECT_EXIT(
        parseCampaignSpecText("vdds = 0.9,-1\n", "<test>"),
        testing::ExitedWithCode(1), "must be > 0 V");
    EXPECT_EXIT(
        parseCampaignSpecText("vdds = 0.9,0.9\n", "<test>"),
        testing::ExitedWithCode(1), "duplicate voltage");
}

TEST(CampaignJobKey, VddJoinsTheKeyOnlyWhenOffCurve)
{
    Fixture f;
    auto progs = f.programs(1);
    uint64_t fp = f.machine.fingerprint();
    uint64_t legacy = campaignJobKey(progs[0], {1, 1}, fp, 0);
    // The on-curve sentinel (0) is the pre-undervolting key.
    EXPECT_EQ(legacy,
              campaignJobKey(progs[0], {1, 1}, fp, 0, 0.0, 0.0));
    // Off-curve voltages get their own keys, distinct per volt.
    uint64_t k90 =
        campaignJobKey(progs[0], {1, 1}, fp, 0, 0.0, 0.90);
    uint64_t k95 =
        campaignJobKey(progs[0], {1, 1}, fp, 0, 0.0, 0.95);
    EXPECT_NE(legacy, k90);
    EXPECT_NE(legacy, k95);
    EXPECT_NE(k90, k95);
    // Domain separation: a vdd-only job must not collide with a
    // freq-only job sweeping the same numeric value.
    EXPECT_NE(campaignJobKey(progs[0], {1, 1}, fp, 0, 2.5, 0.0),
              campaignJobKey(progs[0], {1, 1}, fp, 0, 0.0, 2.5));
}

TEST(CampaignVdds, ExpansionCrossProductsAndOnCurveCollapses)
{
    Fixture f;
    auto progs = f.programs(2);
    std::vector<ChipConfig> cfgs = {{1, 1}, {2, 1}};

    // Reference: the axis-free (on-curve nominal) measurement.
    Campaign ref(f.machine, tinySpec());
    auto nominal = ref.measure(progs, cfgs);

    double curve_v = f.machine.voltageAt(f.machine.clockGhz());
    CampaignSpec spec = tinySpec();
    spec.vdds = {0.90, curve_v};
    Campaign c(f.machine, spec);
    auto swept = c.measure(progs, cfgs);

    // Workload-major, config then frequency then vdd innermost.
    ASSERT_EQ(swept.size(),
              progs.size() * cfgs.size() * spec.vdds.size());
    for (size_t w = 0; w < progs.size(); ++w)
        for (size_t cfg = 0; cfg < cfgs.size(); ++cfg) {
            size_t base =
                (w * cfgs.size() + cfg) * spec.vdds.size();
            EXPECT_EQ(swept[base].vddVolts, 0.90);
            // The on-curve sweep point is exactly the axis-free
            // measurement (collapsed key, same sensor noise).
            EXPECT_TRUE(samplesEqual(
                swept[base + 1], nominal[w * cfgs.size() + cfg]));
            // Undervolting at fixed frequency saves power.
            EXPECT_LT(swept[base].powerWatts,
                      swept[base + 1].powerWatts);
        }
}

TEST(CampaignVdds, BelowVminComesBackFlaggedUnreliable)
{
    Fixture f;
    auto progs = f.programs(1);
    std::vector<ChipConfig> cfgs = {{1, 1}};
    CampaignSpec spec = tinySpec();
    // At 3 GHz the hidden Vmin is at least 0.60 + 0.04*3 = 0.72 V
    // (plus the IPC term): 0.70 V is always below it, 1.0 V (the
    // nominal curve point) always above.
    spec.vdds = {0.70, 1.0};
    Campaign c(f.machine, spec);
    auto swept = c.measure(progs, cfgs);
    ASSERT_EQ(swept.size(), 2u);
    EXPECT_FALSE(swept[0].reliable);
    EXPECT_TRUE(swept[1].reliable);
    // The unreliable point still carries its measured numbers.
    EXPECT_GT(swept[0].powerWatts, 0.0);
}

TEST(SampleText, MissingVddLoadsAsCurveDefault)
{
    // Pre-undervolting cache entries carry no vdd/reliable lines:
    // they must load as the on-curve voltage at their frequency,
    // reliable.
    Sample s;
    s.workload = "w";
    s.config = {1, 1};
    s.rates = {1, 2, 3, 4, 5, 6, 7};
    s.powerWatts = 70.0;
    s.instrGips = 1.0;
    s.coreIpc = 1.0;
    s.freqGhz = 2.5;
    s.vddVolts = 0.9;
    s.reliable = false;
    std::string text = sampleToText(s);
    // Erase the vdd and reliable lines (pre-undervolting writers
    // never emitted them).
    std::string legacy = text;
    for (const char *key : {"vdd ", "reliable "}) {
        auto at = legacy.find(key);
        ASSERT_NE(at, std::string::npos) << key;
        legacy = legacy.substr(0, at) +
                 legacy.substr(legacy.find('\n', at) + 1);
    }
    Sample t;
    t.vddVolts = 99.0; // stale state must not leak through
    t.reliable = false;
    ASSERT_TRUE(sampleFromText(legacy, t));
    EXPECT_EQ(t.vddVolts, nominalCurveVoltage(2.5));
    EXPECT_TRUE(t.reliable);
    // While explicit corrupt lines must fail the parse.
    for (const char *bad : {"vdd 0\n", "vdd -1\n", "vdd x\n",
                            "reliable 2\n", "reliable x\n",
                            "reliable \n"}) {
        Sample u;
        EXPECT_FALSE(sampleFromText(legacy + bad, u)) << bad;
    }
    // And the full round-trip preserves voltage and flag.
    Sample v;
    ASSERT_TRUE(sampleFromText(text, v));
    EXPECT_EQ(v.vddVolts, 0.9);
    EXPECT_FALSE(v.reliable);
}

TEST(CampaignCache, LegacyEntryWithoutVddIsAHit)
{
    // As a pre-undervolting run would have written it: the entry
    // keeps the exact on-curve voltage.
    expectLegacyEntryHits({"vdd ", "reliable "});
}

TEST(CampaignCache, LegacyEntryWithoutFreqOrVddStillHits)
{
    // The oldest entries carry neither line: they parse with
    // sampleFromText's defaults, which are a nominal job's point on
    // the default machine.
    expectLegacyEntryHits({"freq ", "vdd ", "reliable "});
}

namespace
{

/** Overwrite @p to's cache entry with a copy of @p from's. */
void
copyEntry(const ResultCache &cache, uint64_t from, uint64_t to)
{
    std::filesystem::copy_file(
        cache.pathOf(from), cache.pathOf(to),
        std::filesystem::copy_options::overwrite_existing);
}

/** Index of the job of workload @p w on @p cfg at @p freq/@p vdd. */
size_t
jobIndex(const CampaignResult &r, size_t w, ChipConfig cfg,
         double freq = 0.0, double vdd = 0.0)
{
    for (size_t i = 0; i < r.jobs.size(); ++i) {
        const CampaignJob &j = r.jobs[i];
        if (j.workload == w && j.config.cores == cfg.cores &&
            j.config.smt == cfg.smt && j.freqGhz == freq &&
            j.vdd == vdd)
            return i;
    }
    ADD_FAILURE() << "no such job";
    return 0;
}

} // namespace

TEST(CampaignCache, SwappedEntryIsReMeasuredNotExported)
{
    // One job's entry copied over another's key (workload 0 on
    // 8-4 over workload 1 on 1-1) is somebody else's sample: a warm
    // run re-measures it, and --merge reports it missing.
    Fixture f;
    CampaignSpec spec = tinySpec();
    spec.configs = {{1, 1}, {8, 4}};
    spec.cacheDir = freshCacheDir("swap");
    Campaign cold(f.machine, spec);
    CampaignResult r = cold.run(f.arch);
    std::ostringstream cold_csv;
    exportSamplesCsv(cold_csv, r.samples);

    ResultCache cache(spec.cacheDir);
    const CampaignJob &victim = r.jobs[jobIndex(r, 1, {1, 1})];
    copyEntry(cache, r.jobs[jobIndex(r, 0, {8, 4})].key, victim.key);

    CampaignManifest m;
    ASSERT_TRUE(loadManifest(manifestPath(spec.cacheDir), m));
    ManifestCollection col = collectManifestSamples(m, cache, f.machine);
    ASSERT_EQ(col.missing.size(), 1u);
    EXPECT_EQ(col.missing[0].key, victim.key);
    EXPECT_EQ(cache.corrupt(), 1u);

    Campaign warm(f.machine, spec);
    CampaignResult w = warm.run(f.arch);
    EXPECT_EQ(w.cacheCorrupt, 1u);
    EXPECT_EQ(w.cacheMisses, 1u);
    std::ostringstream warm_csv;
    exportSamplesCsv(warm_csv, w.samples);
    EXPECT_EQ(warm_csv.str(), cold_csv.str());

    // The re-measure stored the right sample under the key.
    EXPECT_TRUE(
        collectManifestSamples(m, cache, f.machine).missing.empty());
}

TEST(CampaignCache, EntryOfAnotherOperatingPointIsRejected)
{
    // Same workload and config, another frequency or voltage: the
    // key differs, and so must the entry's point.
    Fixture f;
    CampaignSpec spec = tinySpec();
    spec.configs = {{2, 2}};
    spec.freqs = {2.0, 3.5};
    spec.vdds = {0.9, 0.95};
    spec.cacheDir = freshCacheDir("swap-point");
    Campaign cold(f.machine, spec);
    CampaignResult r = cold.run(f.arch);
    std::ostringstream cold_csv;
    exportSamplesCsv(cold_csv, r.samples);

    ResultCache cache(spec.cacheDir);
    copyEntry(cache, r.jobs[jobIndex(r, 0, {2, 2}, 2.0, 0.9)].key,
              r.jobs[jobIndex(r, 0, {2, 2}, 3.5, 0.9)].key);
    copyEntry(cache, r.jobs[jobIndex(r, 1, {2, 2}, 2.0, 0.9)].key,
              r.jobs[jobIndex(r, 1, {2, 2}, 2.0, 0.95)].key);

    Campaign warm(f.machine, spec);
    CampaignResult w = warm.run(f.arch);
    EXPECT_EQ(w.cacheCorrupt, 2u);
    std::ostringstream warm_csv;
    exportSamplesCsv(warm_csv, w.samples);
    EXPECT_EQ(warm_csv.str(), cold_csv.str());
}

TEST(CampaignManifest, VddSuffixRoundTripsAndRejectsCorrupt)
{
    CampaignManifest m;
    m.spec = "s";
    m.fingerprint = 7;
    m.entries.push_back({1, {1, 1}, "adhoc", "nominal", 0.0, 0.0});
    m.entries.push_back({2, {8, 4}, "adhoc", "uv", 0.0, 0.875});
    m.entries.push_back({3, {8, 4}, "adhoc", "both", 2.5, 0.875});
    std::string text = manifestToText(m);
    // On-curve entries keep the bare token; off-curve ones gain a
    // V-terminated @vdd segment, after the @freq one when both.
    EXPECT_NE(text.find(" 1-1 "), std::string::npos);
    EXPECT_NE(text.find(" 8-4@0.875V "), std::string::npos);
    EXPECT_NE(text.find(" 8-4@2.5@0.875V "), std::string::npos);
    CampaignManifest t;
    ASSERT_TRUE(manifestFromText(text, t));
    EXPECT_EQ(t.entries[0].vdd, 0.0);
    EXPECT_EQ(t.entries[1].freqGhz, 0.0);
    EXPECT_EQ(t.entries[1].vdd, 0.875);
    EXPECT_EQ(t.entries[2].freqGhz, 2.5);
    EXPECT_EQ(t.entries[2].vdd, 0.875);
    // Non-positive voltages, a missing trailing V on the second
    // segment and torn suffixes are corrupt.
    for (const char *bad :
         {"8-4@0V", "8-4@-1V", "8-4@2.5@0.92", "8-4@2.5@V",
          "8-4@2.5@0.92V@1V"}) {
        std::string broken = text;
        auto at = broken.find("8-4@0.875V");
        broken.replace(at, 10, bad);
        CampaignManifest u;
        EXPECT_FALSE(manifestFromText(broken, u)) << bad;
    }
}

TEST(CampaignManifest, CurveLineRoundTripsAndRejectsMalformed)
{
    CampaignManifest m;
    m.spec = "s";
    m.fingerprint = 7;
    m.entries.push_back({1, {1, 1}, "adhoc", "w"});
    // Without a recorded curve there is no line, and none parses.
    std::string legacy = manifestToText(m);
    EXPECT_EQ(legacy.find("curve"), std::string::npos);
    CampaignManifest t;
    ASSERT_TRUE(manifestFromText(legacy, t));
    EXPECT_EQ(t.curve.clockGhz, 0.0);
    const std::string path = freshCacheDir("curve") + ".manifest";
    saveManifest(path, m);

    m.curve = {3.6, 1.0, 0.16, 0.85};
    // Saving the same campaign over its legacy manifest records the
    // curve even when no job is new.
    mergeSaveManifest(path, m);
    CampaignManifest saved;
    ASSERT_TRUE(loadManifest(path, saved));
    EXPECT_EQ(saved.curve.clockGhz, 3.6);
    EXPECT_EQ(saved.entries.size(), 1u);
    const std::string line =
        "curve 3.6000000000000001 1 0.16 0.84999999999999998";
    std::string text = manifestToText(m);
    EXPECT_NE(text.find("\n" + line + "\n"), std::string::npos) << text;
    CampaignManifest u;
    ASSERT_TRUE(manifestFromText(text, u));
    EXPECT_EQ(u.curve.clockGhz, 3.6);
    EXPECT_EQ(u.curve.vddNominal, 1.0);
    EXPECT_EQ(u.curve.vddSlopePerGhz, 0.16);
    EXPECT_EQ(u.curve.vddFloor, 0.85);
    ASSERT_EQ(u.entries.size(), 1u);

    // A wrong token count, a non-number, a non-finite value or a
    // clock that is not positive fails the parse.
    for (const char *bad :
         {"curve 3.6 1 0.16", "curve 3.6 1 0.16 0.85 9",
          "curve x 1 0.16 0.85", "curve 3.6 1 nan 0.85",
          "curve 0 1 0.16 0.85", "curve -3 1 0.16 0.85", "curve"}) {
        std::string broken = text;
        broken.replace(broken.find(line), line.size(), bad);
        CampaignManifest v;
        EXPECT_FALSE(manifestFromText(broken, v)) << bad;
    }
}

TEST(CampaignShard, Power7PlusMergesWithoutArch)
{
    // A campaign on the POWER7+ machine (3.6 GHz nominal) records
    // its curve in the manifest, so a merge on the default machine
    // (what --merge builds without --arch) checks every entry at
    // the campaign's own points and assembles the unsharded export.
    Architecture plus = Architecture::get("POWER7+");
    Machine machine = plus.machine();
    ASSERT_NE(machine.clockGhz(), kNominalFreqGhz);

    CampaignSpec ref_spec = tinySpec();
    ref_spec.cacheDir = freshCacheDir("plus-merge-ref");
    Campaign ref(machine, ref_spec);
    std::ostringstream ref_csv;
    exportSamplesCsv(ref_csv, ref.run(plus).samples);

    CampaignSpec spec = tinySpec();
    spec.cacheDir = freshCacheDir("plus-merge");
    spec.shardCount = 2;
    for (int index = 0; index < 2; ++index) {
        spec.shardIndex = index;
        Campaign shard(machine, spec);
        shard.run(plus);
    }
    CampaignManifest m;
    ASSERT_TRUE(loadManifest(manifestPath(spec.cacheDir), m));
    EXPECT_EQ(m.curve.clockGhz, machine.clockGhz());

    Fixture f; // the default POWER7 machine
    ResultCache cache(spec.cacheDir);
    ManifestCollection col = collectManifestSamples(m, cache, f.machine);
    EXPECT_TRUE(col.missing.empty());
    std::ostringstream merged_csv;
    exportSamplesCsv(merged_csv, col.samples);
    EXPECT_EQ(merged_csv.str(), ref_csv.str());

    // A manifest without the curve falls back to the given machine:
    // only the campaign's own resolves its entries.
    m.curve = ManifestCurve();
    EXPECT_EQ(collectManifestSamples(m, cache, f.machine).missing.size(),
              m.entries.size());
    EXPECT_TRUE(collectManifestSamples(m, cache, machine).missing.empty());
}

TEST(CampaignShard, ShardedVddFreqSweepMergesBitIdentical)
{
    // The acceptance bar: a sharded vdd x freq cross-product
    // campaign assembles byte-identically to the unsharded run —
    // including the on-curve collapse (1.0 V is the curve voltage
    // at 3.0 GHz but off-curve at 2.5 GHz) and any unreliable
    // flags.
    Fixture f;
    auto sweep_spec = []() {
        CampaignSpec spec = tinySpec();
        spec.configs = {{1, 1}, {2, 2}};
        spec.freqs = {2.5, 3.0};
        spec.vdds = {0.90, 1.0};
        return spec;
    };

    CampaignSpec ref_spec = sweep_spec();
    ref_spec.threads = 1;
    ref_spec.cacheDir = freshCacheDir("vdd-shard-ref");
    Campaign ref(f.machine, ref_spec);
    CampaignResult r = ref.run(f.arch);
    EXPECT_EQ(r.totalJobs, r.workloads.size() * 2 * 2 * 2);
    std::ostringstream ref_csv;
    exportSamplesCsv(ref_csv, r.samples);

    CampaignSpec spec = sweep_spec();
    spec.cacheDir = freshCacheDir("vdd-shard");
    spec.shardCount = 2;
    std::set<uint64_t> seen;
    for (int index = 0; index < 2; ++index) {
        spec.shardIndex = index;
        Campaign shard(f.machine, spec);
        CampaignResult sr = shard.run(f.arch);
        EXPECT_EQ(sr.cacheHits, 0u) << index;
        for (const auto &job : sr.jobs)
            EXPECT_TRUE(seen.insert(job.key).second);
    }
    EXPECT_EQ(seen.size(), r.jobs.size());

    CampaignManifest m;
    ASSERT_TRUE(loadManifest(manifestPath(spec.cacheDir), m));
    ResultCache cache(spec.cacheDir);
    ManifestCollection col = collectManifestSamples(m, cache, f.machine);
    EXPECT_TRUE(col.missing.empty());
    std::ostringstream merged_csv;
    exportSamplesCsv(merged_csv, col.samples);
    EXPECT_EQ(merged_csv.str(), ref_csv.str());
}

// ---------------------------------------------------------------
// Progress ETA and per-job wall seconds

TEST(CampaignProgress, LinesIncludeCostWeightedEta)
{
    Fixture f;
    auto progs = f.programs(4, 768);
    CampaignSpec spec = tinySpec();
    spec.threads = 1;
    spec.progressSeconds = 0.001;
    Campaign c(f.machine, spec);
    testing::internal::CaptureStderr();
    c.measure(progs, {ChipConfig{1, 1}, ChipConfig{2, 2},
                      ChipConfig{4, 2}});
    std::string err = testing::internal::GetCapturedStderr();
    ASSERT_NE(err.find("jobs done"), std::string::npos) << err;
    EXPECT_NE(err.find("s left"), std::string::npos) << err;
}

TEST(CampaignRun, RecordsPerJobWallSeconds)
{
    Fixture f;
    CampaignSpec spec = tinySpec();
    Campaign c(f.machine, spec);
    CampaignResult r = c.run(f.arch);
    ASSERT_EQ(r.jobSeconds.size(), r.jobs.size());
    ASSERT_EQ(r.jobCached.size(), r.jobs.size());
    for (size_t i = 0; i < r.jobs.size(); ++i) {
        EXPECT_GT(r.jobSeconds[i], 0.0) << i;
        EXPECT_EQ(r.jobCached[i], 0) << i; // no cache dir: all cold
    }
}
