/**
 * @file
 * Tests for the observability subsystem (src/obs/): the trace
 * recorder (well-formed Chrome trace JSON, B/E pairing, per-thread
 * timestamp monotonicity, drop-oldest overflow, zero footprint when
 * disabled), the metrics registry (counter/gauge/histogram
 * semantics, deterministic name-sorted JSON), the fleet telemetry
 * file grammar round-trip, and the load-bearing end-to-end
 * guarantee: a traced campaign run produces byte-identical exports
 * to an untraced one, and every execution path (plain, --serve, the
 * service) emits the same per-job span and histogram, and the same
 * campaign.measure span and cache_corrupt count.
 *
 * obs state is process-global (rings and the registry live for the
 * process); every test starts from obs::traceReset() /
 * obs::metricsReset() so ordering cannot leak between tests.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/export.hh"
#include "campaign/manifest.hh"
#include "obs/metrics.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "service/service.hh"
#include "util/logging.hh"

using namespace mprobe;

namespace
{

/** Fresh per-test cache directory. */
std::string
freshCacheDir(const std::string &tag)
{
    std::string dir = testing::TempDir() + "mprobe-obs-" + tag;
    std::filesystem::remove_all(dir);
    return dir;
}

/** Tiny spec measuring a handful of random workloads. */
CampaignSpec
tinySpec()
{
    CampaignSpec spec;
    spec.categories = {BenchCategory::Random};
    spec.suite.randomCount = 3;
    spec.suite.bodySize = 128;
    spec.bootstrap = false;
    spec.threads = 2;
    spec.configs = {{1, 1}, {2, 1}, {1, 2}};
    return spec;
}

/** One parsed trace event (enough of it for assertions). */
struct ParsedEvent
{
    std::string name;
    char phase = '?';
    long long ts = 0;
    int tid = 0;
    std::string args; ///< raw text inside "args": {...}, or empty
};

/** Pull one quoted/numeric field out of an event line. */
std::string
fieldAfter(const std::string &line, const std::string &key)
{
    size_t at = line.find(key);
    if (at == std::string::npos)
        return "";
    at += key.size();
    size_t end = at;
    while (end < line.size() && line[end] != ',' &&
           line[end] != '}' && line[end] != '"')
        ++end;
    return line.substr(at, end - at);
}

/**
 * Parse traceWriteJson output. The writer emits one event per
 * line, so a line scanner is enough — this also pins the output
 * format itself (one trailing comma or unquoted name and the test
 * fails to parse, which is the point).
 */
std::vector<ParsedEvent>
parseTrace(const std::string &json)
{
    std::vector<ParsedEvent> out;
    std::istringstream is(json);
    std::string line;
    while (std::getline(is, line)) {
        size_t name_at = line.find("{\"name\": \"");
        if (name_at == std::string::npos)
            continue;
        ParsedEvent e;
        name_at += 10;
        e.name = line.substr(name_at,
                             line.find('"', name_at) - name_at);
        std::string ph = fieldAfter(line, "\"ph\": \"");
        if (ph.size() != 1) {
            ADD_FAILURE() << "unparseable event line: " << line;
            continue;
        }
        e.phase = ph[0];
        e.ts = std::stoll(fieldAfter(line, "\"ts\": "));
        e.tid = std::stoi(fieldAfter(line, "\"tid\": "));
        size_t args_at = line.find("\"args\": {");
        if (args_at != std::string::npos) {
            size_t close = line.rfind('}');
            e.args = line.substr(args_at + 9,
                                 close - (args_at + 9));
        }
        out.push_back(e);
    }
    return out;
}

std::string
traceJson()
{
    std::ostringstream os;
    obs::traceWriteJson(os);
    return os.str();
}

long long
droppedFrom(const std::string &json)
{
    std::string v = fieldAfter(json, "\"dropped_events\": ");
    return v.empty() ? -1 : std::stoll(v);
}

} // namespace

// ---------------------------------------------------------------
// Trace recorder

TEST(Trace, DisabledRecordsNothing)
{
    obs::traceReset();
    ASSERT_FALSE(obs::traceEnabled());
    {
        obs::TraceSpan span("should-not-appear");
        span.note("x", 1.0);
    }
    obs::traceInstant("also-not", "k", 2.0);
    std::string json = traceJson();
    EXPECT_TRUE(parseTrace(json).empty()) << json;
    EXPECT_EQ(droppedFrom(json), 0);
    EXPECT_FALSE(obs::traceEverEnabled());
}

TEST(Trace, SpansPairAndTimestampsAreMonotonePerThread)
{
    obs::traceReset();
    obs::traceEnable();
    {
        obs::TraceSpan outer("outer");
        outer.note("jobs", 9);
        {
            obs::TraceSpan inner("inner");
            obs::traceInstant("tick", "i", 1.0);
        }
    }
    obs::traceDisable();
    EXPECT_TRUE(obs::traceEverEnabled());

    std::string json = traceJson();
    // Perfetto/chrome://tracing requirements: top-level object with
    // a traceEvents array, every event carrying name/ph/ts/pid/tid.
    EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""),
              std::string::npos);

    std::vector<ParsedEvent> evs = parseTrace(json);
    ASSERT_EQ(evs.size(), 5u) << json;

    // Every B has a matching E per (tid, name), never negative
    // depth; instants don't affect nesting.
    std::map<int, std::vector<std::string>> open;
    std::map<int, long long> last_ts;
    for (const ParsedEvent &e : evs) {
        if (last_ts.count(e.tid)) {
            EXPECT_GE(e.ts, last_ts[e.tid]) << e.name;
        }
        last_ts[e.tid] = e.ts;
        if (e.phase == 'B') {
            open[e.tid].push_back(e.name);
        } else if (e.phase == 'E') {
            ASSERT_FALSE(open[e.tid].empty()) << e.name;
            EXPECT_EQ(open[e.tid].back(), e.name);
            open[e.tid].pop_back();
        } else {
            EXPECT_EQ(e.phase, 'i') << e.name;
        }
    }
    for (const auto &kv : open)
        EXPECT_TRUE(kv.second.empty()) << kv.first;

    // note() annotations land on the end event.
    bool saw_note = false;
    for (const ParsedEvent &e : evs)
        if (e.name == "outer" && e.phase == 'E') {
            saw_note = true;
            EXPECT_NE(e.args.find("\"jobs\": 9"),
                      std::string::npos)
                << e.args;
        }
    EXPECT_TRUE(saw_note);
}

TEST(Trace, OverflowDropsOldestEvents)
{
    obs::traceReset();
    obs::traceEnable();
    const size_t extra = 100;
    for (size_t i = 0; i < obs::kTraceRingCapacity + extra; ++i)
        obs::traceInstant("seq", "i", static_cast<double>(i));
    obs::traceDisable();

    EXPECT_EQ(obs::traceDroppedEvents(), extra);
    std::string json = traceJson();
    EXPECT_EQ(droppedFrom(json),
              static_cast<long long>(extra));

    std::vector<ParsedEvent> evs = parseTrace(json);
    ASSERT_EQ(evs.size(), obs::kTraceRingCapacity);
    // Drop-oldest: the first kept event is #extra, the last is the
    // final one recorded, and order is preserved in between.
    EXPECT_NE(evs.front().args.find(cat("\"i\": ", extra)),
              std::string::npos)
        << evs.front().args;
    EXPECT_NE(
        evs.back().args.find(
            cat("\"i\": ", obs::kTraceRingCapacity + extra - 1)),
        std::string::npos)
        << evs.back().args;
}

TEST(Trace, ResetClearsBufferedEvents)
{
    obs::traceReset();
    obs::traceEnable();
    obs::traceInstant("gone");
    obs::traceReset();
    EXPECT_FALSE(obs::traceEnabled());
    EXPECT_FALSE(obs::traceEverEnabled());
    EXPECT_TRUE(parseTrace(traceJson()).empty());
    EXPECT_EQ(obs::traceDroppedEvents(), 0u);
}

TEST(Trace, FlushWritesLoadableFile)
{
    obs::traceReset();
    obs::traceEnable();
    {
        obs::TraceSpan span("flushed");
    }
    obs::traceDisable();
    std::string dir = freshCacheDir("traceflush");
    std::filesystem::create_directories(dir);
    std::string path = dir + "/out.trace.json";
    ASSERT_TRUE(obs::traceFlush(path));
    std::ifstream f(path);
    std::stringstream ss;
    ss << f.rdbuf();
    EXPECT_EQ(ss.str(), traceJson());
    EXPECT_NE(ss.str().find("\"flushed\""), std::string::npos);
}

// ---------------------------------------------------------------
// Metrics registry

TEST(Metrics, CounterGaugeHistogramSemantics)
{
    obs::metricsReset();

    obs::Counter &c = obs::counter("test_events");
    c.add();
    c.add(4);
    EXPECT_EQ(c.value(), 5u);
    // Same-name lookup returns the same instance.
    EXPECT_EQ(&obs::counter("test_events"), &c);

    obs::Gauge &g = obs::gauge("test_level");
    g.set(2.5);
    EXPECT_DOUBLE_EQ(g.value(), 2.5);
    g.max(1.0); // below: no change
    EXPECT_DOUBLE_EQ(g.value(), 2.5);
    g.max(7.0); // ratchets up
    EXPECT_DOUBLE_EQ(g.value(), 7.0);

    obs::Histogram &h =
        obs::histogram("test_seconds", {0.1, 1.0, 10.0});
    h.observe(0.05); // bucket 0 (<= 0.1)
    h.observe(0.5);  // bucket 1
    h.observe(0.5);  // bucket 1
    h.observe(99.0); // overflow bucket
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.05 + 0.5 + 0.5 + 99.0);
    std::vector<uint64_t> counts = h.bucketCounts();
    ASSERT_EQ(counts.size(), 4u); // bounds + overflow
    EXPECT_EQ(counts[0], 1u);
    EXPECT_EQ(counts[1], 2u);
    EXPECT_EQ(counts[2], 0u);
    EXPECT_EQ(counts[3], 1u);
    // Re-registration under the same name keeps the instance (and
    // its original bounds).
    EXPECT_EQ(&obs::histogram("test_seconds", {5.0}), &h);
    EXPECT_EQ(h.bucketBounds().size(), 3u);
}

TEST(Metrics, ResetZeroesValuesButKeepsRegistrations)
{
    obs::counter("reset_check").add(3);
    obs::gauge("reset_gauge").set(4.0);
    obs::histogram("reset_hist", {1.0}).observe(0.5);
    obs::metricsReset();
    EXPECT_EQ(obs::counter("reset_check").value(), 0u);
    EXPECT_DOUBLE_EQ(obs::gauge("reset_gauge").value(), 0.0);
    EXPECT_EQ(obs::histogram("reset_hist", {1.0}).count(), 0u);
    EXPECT_DOUBLE_EQ(obs::histogram("reset_hist", {1.0}).sum(),
                     0.0);
}

TEST(Metrics, JsonIsDeterministicAndNameSorted)
{
    obs::metricsReset();
    obs::counter("zebra").add(1);
    obs::counter("apple").add(2);
    obs::gauge("mid").set(3.5);
    obs::histogram("lat", {1.0, 2.0}).observe(1.5);

    std::ostringstream a, b;
    obs::metricsWriteJson(a);
    obs::metricsWriteJson(b);
    EXPECT_EQ(a.str(), b.str()); // structurally identical runs

    const std::string json = a.str();
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"gauges\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    // Name-sorted within a section.
    EXPECT_LT(json.find("\"apple\""), json.find("\"zebra\""));
    EXPECT_NE(json.find("\"apple\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"mid\": 3.5"), std::string::npos);
    // Histogram shape: bounds, counts (bounds+1), count, sum.
    EXPECT_NE(json.find("\"bounds\": [1, 2]"), std::string::npos);
    EXPECT_NE(json.find("\"counts\": [0, 1, 0]"),
              std::string::npos);

    // The indent variant embeds into an enclosing document without
    // breaking line structure: every line after the first starts
    // with the indent.
    std::ostringstream ind;
    obs::metricsWriteJson(ind, "    ");
    std::istringstream lines(ind.str());
    std::string line;
    std::getline(lines, line); // "{" — caller-placed, un-indented
    while (std::getline(lines, line))
        EXPECT_EQ(line.rfind("    ", 0), 0u) << line;
}

// ---------------------------------------------------------------
// Fleet telemetry

TEST(Telemetry, TextRoundTrip)
{
    obs::WorkerTelemetry t;
    t.worker = "host:1234";
    t.jobs = 42;
    t.hits = 17;
    t.acquired = 40;
    t.stolen = 2;
    t.seconds = 12.5;
    t.jobsPerSecond = 3.36;
    t.hitRate = 0.405;

    std::string text = obs::telemetryToText(t);
    EXPECT_EQ(text.rfind("mprobe-telemetry v1", 0), 0u) << text;

    obs::WorkerTelemetry back;
    ASSERT_TRUE(obs::telemetryFromText(text, back));
    EXPECT_EQ(back.worker, t.worker);
    EXPECT_EQ(back.jobs, t.jobs);
    EXPECT_EQ(back.hits, t.hits);
    EXPECT_EQ(back.acquired, t.acquired);
    EXPECT_EQ(back.stolen, t.stolen);
    EXPECT_DOUBLE_EQ(back.seconds, t.seconds);
    EXPECT_DOUBLE_EQ(back.jobsPerSecond, t.jobsPerSecond);
    EXPECT_DOUBLE_EQ(back.hitRate, t.hitRate);
    EXPECT_DOUBLE_EQ(back.ageSeconds, -1.0); // reader fills this
}

TEST(Telemetry, RejectsMalformedAcceptsUnknownKeys)
{
    obs::WorkerTelemetry out;
    EXPECT_FALSE(obs::telemetryFromText("", out));
    EXPECT_FALSE(obs::telemetryFromText("not a header\n", out));
    // Header but no worker line.
    EXPECT_FALSE(obs::telemetryFromText(
        "mprobe-telemetry v1\njobs 3\n", out));
    // Unknown keys are forward-compatible noise.
    ASSERT_TRUE(obs::telemetryFromText(
        "mprobe-telemetry v1\nworker w1\njobs 3\n"
        "future_key whatever\n",
        out));
    EXPECT_EQ(out.worker, "w1");
    EXPECT_EQ(out.jobs, 3u);
}

TEST(Telemetry, PathSanitizesWorkerId)
{
    std::string p =
        obs::telemetryPath("/tmp/pool", "host:12/..weird id");
    EXPECT_EQ(p.rfind("/tmp/pool/", 0), 0u) << p;
    std::string base = p.substr(p.rfind('/') + 1);
    EXPECT_NE(base.find(".telemetry"), std::string::npos);
    EXPECT_EQ(base.find('/'), std::string::npos);
    EXPECT_EQ(base.find(':'), std::string::npos);
    EXPECT_EQ(base.find(' '), std::string::npos);
}

TEST(Telemetry, FleetReadSortsByWorkerAndFillsAge)
{
    std::string dir = freshCacheDir("fleet");

    obs::WorkerTelemetry b;
    b.worker = "bravo:2";
    b.jobs = 7;
    obs::WorkerTelemetry a;
    a.worker = "alpha:1";
    a.jobs = 5;
    ASSERT_TRUE(obs::writeWorkerTelemetry(dir, b));
    ASSERT_TRUE(obs::writeWorkerTelemetry(dir, a));

    // A malformed file degrades to absence, never an error.
    std::ofstream(dir + "/junk.telemetry") << "not telemetry\n";

    std::vector<obs::WorkerTelemetry> fleet =
        obs::readFleetTelemetry(dir);
    ASSERT_EQ(fleet.size(), 2u);
    EXPECT_EQ(fleet[0].worker, "alpha:1");
    EXPECT_EQ(fleet[1].worker, "bravo:2");
    EXPECT_EQ(fleet[0].jobs, 5u);
    EXPECT_GE(fleet[0].ageSeconds, 0.0);
    EXPECT_GE(fleet[1].ageSeconds, 0.0);

    // Republishing overwrites in place: still one entry per worker.
    a.jobs = 6;
    ASSERT_TRUE(obs::writeWorkerTelemetry(dir, a));
    fleet = obs::readFleetTelemetry(dir);
    ASSERT_EQ(fleet.size(), 2u);
    EXPECT_EQ(fleet[0].jobs, 6u);

    EXPECT_TRUE(obs::readFleetTelemetry(dir + "-missing").empty());
}

// ---------------------------------------------------------------
// End-to-end: traced campaigns

TEST(TracedCampaign, SpansPresentAndExportsByteIdentical)
{
    Architecture arch = Architecture::get("POWER7");
    Machine machine{arch.isa()};

    // Reference run: tracing never enabled.
    obs::traceReset();
    obs::metricsReset();
    CampaignSpec spec = tinySpec();
    spec.cacheDir = freshCacheDir("untraced");
    Campaign untraced(machine, spec);
    CampaignResult ref = untraced.run(arch);
    std::ostringstream ref_csv, ref_json;
    exportSamplesCsv(ref_csv, ref.samples);
    exportSamplesJson(ref_json, ref.samples);

    // Cold traced run against a fresh cache.
    obs::traceReset();
    obs::metricsReset();
    spec.cacheDir = freshCacheDir("traced");
    obs::traceEnable();
    Campaign cold(machine, spec);
    CampaignResult r1 = cold.run(arch);
    obs::traceDisable();

    // The result path is untouched by tracing: exports are
    // byte-identical to the untraced reference.
    std::ostringstream csv1, json1;
    exportSamplesCsv(csv1, r1.samples);
    exportSamplesJson(json1, r1.samples);
    EXPECT_EQ(ref_csv.str(), csv1.str());
    EXPECT_EQ(ref_json.str(), json1.str());

    std::string cold_json = traceJson();
    // Phase spans and one campaign.job span per executed job.
    for (const char *name :
         {"campaign.generate", "campaign.expand",
          "campaign.measure", "campaign.job", "sim.decode",
          "sim.core", "sim.power"})
        EXPECT_NE(cold_json.find(cat("\"", name, "\"")),
                  std::string::npos)
            << name;
    size_t job_ends = 0;
    for (const ParsedEvent &e : parseTrace(cold_json))
        if (e.name == "campaign.job" && e.phase == 'E') {
            ++job_ends;
            // A cold run never hits the cache.
            EXPECT_NE(e.args.find("\"cached\": 0"),
                      std::string::npos)
                << e.args;
        }
    EXPECT_EQ(job_ends, r1.samples.size());

    // Cold-run counters landed in the registry.
    EXPECT_EQ(obs::counter("cache_misses").value(),
              r1.samples.size());
    EXPECT_EQ(obs::counter("cache_hits").value(), 0u);

    // Warm traced run: every job is a cache hit and the spans say
    // so.
    obs::traceReset();
    obs::metricsReset();
    obs::traceEnable();
    Campaign warm(machine, spec);
    CampaignResult r2 = warm.run(arch);
    obs::traceDisable();
    EXPECT_EQ(r2.cacheHits, r2.samples.size());
    size_t warm_ends = 0;
    for (const ParsedEvent &e : parseTrace(traceJson()))
        if (e.name == "campaign.job" && e.phase == 'E') {
            ++warm_ends;
            EXPECT_NE(e.args.find("\"cached\": 1"),
                      std::string::npos)
                << e.args;
        }
    EXPECT_EQ(warm_ends, r2.samples.size());
    EXPECT_EQ(obs::counter("cache_hits").value(),
              r2.samples.size());

    // Leave the global recorder clean for any later test.
    obs::traceReset();
    obs::metricsReset();
}

TEST(TracedCampaign, ExpandEmitsPhaseSpans)
{
    // The service ingests campaigns through expand(), not run():
    // its trace must show the same phase spans, and a bootstrapping
    // spec one `bootstrap` slice per characterized instruction.
    Architecture arch = Architecture::get("POWER7");
    Machine machine{arch.isa()};
    CampaignSpec spec = tinySpec();
    spec.bootstrap = true;
    spec.suite.threads = 2;
    obs::traceReset();
    obs::traceEnable();
    Campaign campaign(machine, spec);
    CampaignResult ex = campaign.expand(arch);
    obs::traceDisable();

    std::map<std::string, std::vector<std::string>> ends;
    for (const ParsedEvent &e : parseTrace(traceJson()))
        if (e.phase == 'E')
            ends[e.name].push_back(e.args);
    ASSERT_EQ(ends["campaign.generate"].size(), 1u);
    ASSERT_EQ(ends["campaign.expand"].size(), 1u);
    EXPECT_NE(ends["campaign.generate"][0].find(
                  cat("\"workloads\": ", ex.workloads.size())),
              std::string::npos)
        << ends["campaign.generate"][0];
    EXPECT_NE(ends["campaign.expand"][0].find(
                  cat("\"jobs\": ", ex.jobs.size())),
              std::string::npos)
        << ends["campaign.expand"][0];
    EXPECT_TRUE(ends["campaign.measure"].empty());
    EXPECT_EQ(ends["bootstrap"].size(),
              arch.uarch().bootstrappedCount());
    obs::traceReset();
}

namespace
{

/** The programs of tinySpec(), generated without measuring. */
std::vector<Program>
tinyPrograms(Architecture &arch, const Machine &machine)
{
    CampaignResult ex = Campaign(machine, tinySpec()).expand(arch);
    std::vector<Program> progs;
    for (CampaignWorkload &w : ex.workloads)
        progs.push_back(std::move(w.program));
    return progs;
}

} // namespace

TEST(TracedCampaign, MeasureEmitsOneMeasureSpan)
{
    // Benches and the model pipeline measure through measure(),
    // which runs the same measurement phase as run().
    Architecture arch = Architecture::get("POWER7");
    Machine machine{arch.isa()};
    std::vector<Program> progs = tinyPrograms(arch, machine);
    const std::vector<ChipConfig> cfgs = {{1, 1}, {2, 1}};
    obs::traceReset();
    obs::traceEnable();
    Campaign campaign(machine, measurementSpec(2));
    std::vector<Sample> samples = campaign.measure(progs, cfgs);
    obs::traceDisable();

    std::map<std::string, std::vector<std::string>> ends;
    for (const ParsedEvent &e : parseTrace(traceJson()))
        if (e.phase == 'E')
            ends[e.name].push_back(e.args);
    ASSERT_EQ(ends["campaign.measure"].size(), 1u);
    EXPECT_NE(ends["campaign.measure"][0].find(
                  cat("\"jobs\": ", samples.size())),
              std::string::npos)
        << ends["campaign.measure"][0];
    EXPECT_EQ(samples.size(), progs.size() * cfgs.size());
    EXPECT_EQ(ends["campaign.job"].size(), samples.size());
    obs::traceReset();
}

TEST(Metrics, MeasureCountsRejectedEntryAsCorrupt)
{
    // A cache entry that is another job's is rejected and
    // re-measured; measure() syncs the rejection into the
    // registry's cache_corrupt as run() does.
    setLogLevel(LogLevel::Quiet);
    Architecture arch = Architecture::get("POWER7");
    Machine machine{arch.isa()};
    std::vector<Program> progs = tinyPrograms(arch, machine);
    const std::vector<ChipConfig> cfgs = {{1, 1}, {2, 1}};
    CampaignSpec spec = measurementSpec(1, freshCacheDir("swap"));
    std::vector<Sample> ref = Campaign(machine, spec).measure(progs, cfgs);

    const uint64_t fp = machine.fingerprint();
    ResultCache cache(spec.cacheDir);
    std::filesystem::copy_file(
        cache.pathOf(campaignJobKey(progs[0], cfgs[0], fp, spec.salt)),
        cache.pathOf(campaignJobKey(progs[0], cfgs[1], fp, spec.salt)),
        std::filesystem::copy_options::overwrite_existing);

    obs::metricsReset();
    Campaign campaign(machine, spec);
    std::vector<Sample> again = campaign.measure(progs, cfgs);
    EXPECT_EQ(campaign.cacheCorrupt(), 1u);
    EXPECT_EQ(obs::counter("cache_corrupt").value(), 1u);
    ASSERT_EQ(again.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i)
        EXPECT_EQ(sampleToText(again[i]), sampleToText(ref[i])) << i;
    obs::metricsReset();
    setLogLevel(LogLevel::Normal);
}

namespace
{

/** campaign.job end events in the recorder, each checked for the
 * notes every path attaches to it. */
size_t
jobSpanEnds(const std::string &label)
{
    size_t ends = 0;
    for (const ParsedEvent &e : parseTrace(traceJson())) {
        EXPECT_NE(e.name, "service.job") << label;
        if (e.name != "campaign.job" || e.phase != 'E')
            continue;
        ++ends;
        // A fresh cache: every job is measured.
        for (const char *note :
             {"\"cached\": 0", "\"cost_est\": ", "\"seconds\": "})
            EXPECT_NE(e.args.find(note), std::string::npos)
                << label << ": " << note << " missing from " << e.args;
    }
    return ends;
}

obs::Histogram &
jobSecondsHistogram()
{
    return obs::histogram("job_seconds", {1.0});
}

} // namespace

TEST(TracedCampaign, EveryPathEmitsOneJobSpanPerExecutedJob)
{
    // The drop-directory service and a 2-thread --serve run, each
    // traced on a fresh cache, run every job through the same
    // executor as a plain run: one campaign.job span per job with
    // its cached/cost_est/seconds notes, and one job_seconds
    // observation.
    setLogLevel(LogLevel::Quiet);
    const std::string spec_text = "categories = random\n"
                                  "random_count = 3\n"
                                  "body_size = 128\n"
                                  "bootstrap = 0\n"
                                  "configs = 1-1,2-1,1-2\n";

    // The service over one dropped spec.
    ServiceOptions opts;
    opts.dropDir = freshCacheDir("parity-drop");
    opts.cacheDir = freshCacheDir("parity-pool");
    opts.resultsDir = freshCacheDir("parity-results");
    opts.threads = 2;
    opts.pollSeconds = 0.02;
    opts.exitWhenIdle = true;
    std::filesystem::create_directories(opts.dropDir);
    {
        std::ofstream f(opts.dropDir + "/parity.spec");
        f << spec_text;
    }
    obs::traceReset();
    uint64_t observed0 = jobSecondsHistogram().count();
    obs::traceEnable();
    {
        CampaignService service(opts);
        EXPECT_EQ(service.run(), 1u);
    }
    obs::traceDisable();
    CampaignManifest m;
    ASSERT_TRUE(loadManifest(manifestPath(opts.resultsDir + "/parity"), m));
    ASSERT_EQ(m.entries.size(), 9u);
    EXPECT_EQ(jobSpanEnds("service"), m.entries.size());
    EXPECT_EQ(jobSecondsHistogram().count() - observed0, m.entries.size());

    // A 2-thread --serve worker.
    Architecture arch = Architecture::get("POWER7");
    Machine machine{arch.isa()};
    CampaignSpec spec = parseCampaignSpecText(spec_text, "parity");
    spec.threads = 2;
    spec.cacheDir = freshCacheDir("parity-serve");
    spec.serve = true;
    spec.workerId = "parity-worker";
    spec.claimPollSeconds = 0.01;
    obs::traceReset();
    observed0 = jobSecondsHistogram().count();
    obs::traceEnable();
    Campaign campaign(machine, spec);
    CampaignResult r = campaign.run(arch);
    obs::traceDisable();
    ASSERT_EQ(r.jobs.size(), 9u);
    EXPECT_EQ(jobSpanEnds("serve"), r.jobs.size());
    EXPECT_EQ(jobSecondsHistogram().count() - observed0, r.jobs.size());
    obs::traceReset();
}

TEST(TracedCampaign, ServiceMeasuresThroughTheEngine)
{
    // The service measures each dropped campaign through the
    // engine's measurement phase: one campaign.measure span per
    // campaign, and a cache entry that is another job's reaches
    // status.json's cache_corrupt, as on a --serve run.
    setLogLevel(LogLevel::Quiet);
    const std::string alpha = "categories = random\n"
                              "random_count = 3\n"
                              "body_size = 128\n"
                              "bootstrap = 0\n"
                              "configs = 1-1,2-1,1-2\n";
    const std::string beta = "categories = random\n"
                             "random_count = 2\n"
                             "body_size = 128\n"
                             "bootstrap = 0\n"
                             "configs = 2-2\n";
    ServiceOptions opts;
    opts.dropDir = freshCacheDir("svc-swap-drop");
    opts.cacheDir = freshCacheDir("svc-swap-pool");
    opts.resultsDir = freshCacheDir("svc-swap-results");
    opts.threads = 2;
    opts.pollSeconds = 0.02;
    opts.exitWhenIdle = true;

    // Fill the pool with alpha's samples, measured on the machine
    // the service builds, then copy one entry over another job's.
    Architecture arch = Architecture::get("POWER7");
    Machine machine = arch.machine();
    CampaignSpec spec = parseCampaignSpecText(alpha, "alpha");
    spec.cacheDir = opts.cacheDir;
    Campaign(machine, spec).run(arch);
    CampaignManifest m;
    ASSERT_TRUE(loadManifest(manifestPath(opts.cacheDir), m));
    ASSERT_GE(m.entries.size(), 2u);
    ResultCache cache(opts.cacheDir);
    std::filesystem::copy_file(
        cache.pathOf(m.entries[0].key), cache.pathOf(m.entries[1].key),
        std::filesystem::copy_options::overwrite_existing);

    std::filesystem::create_directories(opts.dropDir);
    std::ofstream(opts.dropDir + "/alpha.spec") << alpha;
    std::ofstream(opts.dropDir + "/beta.spec") << beta;
    obs::traceReset();
    obs::metricsReset();
    obs::traceEnable();
    {
        CampaignService service(opts);
        EXPECT_EQ(service.run(), 2u);
    }
    obs::traceDisable();

    size_t measure_ends = 0;
    for (const ParsedEvent &e : parseTrace(traceJson()))
        if (e.name == "campaign.measure" && e.phase == 'E')
            ++measure_ends;
    EXPECT_EQ(measure_ends, 2u);
    std::ifstream f(opts.resultsDir + "/alpha/status.json");
    ASSERT_TRUE(f);
    std::ostringstream status;
    status << f.rdbuf();
    EXPECT_NE(status.str().find("\"cache_corrupt\": 1"), std::string::npos)
        << status.str();
    obs::traceReset();
    obs::metricsReset();
    setLogLevel(LogLevel::Normal);
}
