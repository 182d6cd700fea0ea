/**
 * @file
 * Tests for the decode-once batched execution engine: the arena
 * allocator, Machine::Batch bit-identity against per-run
 * Machine::run, the exactness of the core-simulation memo that
 * Machine::run and every Batch share, and campaigns routed through
 * the batched path. The core simulator itself is checked against
 * the reference loop in test_core_identity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <random>
#include <thread>

#include "campaign/campaign.hh"
#include "microprobe/cache_model.hh"
#include "obs/metrics.hh"
#include "power/sample.hh"
#include "sim/arena.hh"
#include "sim/machine.hh"
#include "uarch/uarch.hh"

using namespace mprobe;

namespace
{

const Isa &isa = builtinP7Isa();

Program
loopOf(const std::string &op, size_t n, int dep, int stream = -1)
{
    Program p;
    p.isa = &isa;
    p.name = "b-" + op;
    Isa::OpIndex o = isa.find(op);
    for (size_t i = 0; i + 1 < n; ++i)
        p.body.push_back({o, dep, stream, 1.0f, 1.0f});
    p.body.push_back({isa.find("bdnz"), 0, -1, 1.0f, 1.0f});
    return p;
}

Program
memLoop(HitLevel lvl)
{
    Program p = loopOf("ld", 512, 6, 0);
    UarchDef u = builtinP7Uarch();
    AnalyticalCacheModel m(u);
    p.streams.push_back(m.makeStream(lvl, 0).stream);
    p.name = "b-mem-loop";
    return p;
}

/** Every chip counter of two RunResults must match to the bit. */
void
expectSameCounters(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.chip.cycles, b.chip.cycles);
    EXPECT_EQ(a.chip.instrs, b.chip.instrs);
    EXPECT_EQ(a.chip.fxuOps, b.chip.fxuOps);
    EXPECT_EQ(a.chip.lsuOps, b.chip.lsuOps);
    EXPECT_EQ(a.chip.vsuOps, b.chip.vsuOps);
    EXPECT_EQ(a.chip.bruOps, b.chip.bruOps);
    EXPECT_EQ(a.chip.cruOps, b.chip.cruOps);
    EXPECT_EQ(a.chip.loads, b.chip.loads);
    EXPECT_EQ(a.chip.stores, b.chip.stores);
    EXPECT_EQ(a.chip.l1Hits, b.chip.l1Hits);
    EXPECT_EQ(a.chip.l2Hits, b.chip.l2Hits);
    EXPECT_EQ(a.chip.l3Hits, b.chip.l3Hits);
    EXPECT_EQ(a.chip.memAcc, b.chip.memAcc);
    EXPECT_EQ(a.chip.energyNj, b.chip.energyNj);
    EXPECT_EQ(a.chip.overlapNj, b.chip.overlapNj);
    EXPECT_EQ(a.chip.transitionNj, b.chip.transitionNj);
}

/** Every field of two RunResults must match to the bit. */
void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.config.cores, b.config.cores);
    EXPECT_EQ(a.config.smt, b.config.smt);
    expectSameCounters(a, b);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.sensorWatts, b.sensorWatts);
    EXPECT_EQ(a.coreIpc, b.coreIpc);
    EXPECT_EQ(a.freqGhz, b.freqGhz);
    EXPECT_EQ(a.voltage, b.voltage);
    EXPECT_EQ(a.gtDynamicWatts, b.gtDynamicWatts);
    EXPECT_EQ(a.gtSmtWatts, b.gtSmtWatts);
    EXPECT_EQ(a.gtCmpWatts, b.gtCmpWatts);
    EXPECT_EQ(a.gtUncoreWatts, b.gtUncoreWatts);
    EXPECT_EQ(a.gtIdleWatts, b.gtIdleWatts);
}

bool
samplesEqual(const Sample &a, const Sample &b)
{
    return a.workload == b.workload &&
           a.config.cores == b.config.cores &&
           a.config.smt == b.config.smt && a.rates == b.rates &&
           a.powerWatts == b.powerWatts &&
           a.instrGips == b.instrGips && a.coreIpc == b.coreIpc &&
           a.freqGhz == b.freqGhz;
}

/** Fresh per-test cache directory. */
std::string
freshCacheDir(const std::string &tag)
{
    std::string dir = testing::TempDir() + "mprobe-batch-" + tag;
    std::filesystem::remove_all(dir);
    return dir;
}

size_t
sampleFileCount(const std::string &dir)
{
    size_t n = 0;
    for (const auto &e :
         std::filesystem::directory_iterator(dir))
        if (e.path().extension() == ".sample")
            ++n;
    return n;
}

/** A run on a machine built for the one call, whose memo no other
 * call's entry can reach. */
RunResult
freshRun(const Program &p, const ChipConfig &cfg, double freq_ghz = 0.0,
         uint64_t salt = 0, const CoreSimOptions &opts = CoreSimOptions())
{
    Machine m(isa);
    m.simOptions() = opts;
    return m.run(p, cfg, m.operatingPoint(freq_ghz), salt);
}

} // namespace

// ---------------------------------------------------------------
// Arena allocator

TEST(SimArena, ResetReusesMemory)
{
    SimArena arena;
    double *p1 = arena.alloc<double>(1000);
    p1[0] = 1.0;
    p1[999] = 2.0;
    size_t cap = arena.capacityBytes();
    EXPECT_GT(cap, 0u);
    arena.reset();
    // Same request after reset: same memory, no new chunk.
    double *p2 = arena.alloc<double>(1000);
    EXPECT_EQ(p1, p2);
    EXPECT_EQ(arena.capacityBytes(), cap);
}

TEST(SimArena, AlignsEveryAllocation)
{
    SimArena arena;
    arena.alloc<char>(3);
    double *d = arena.alloc<double>(4);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(d) % alignof(double),
              0u);
    arena.alloc<char>(1);
    uint32_t *u = arena.alloc<uint32_t>(2);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(u) % alignof(uint32_t),
              0u);
}

TEST(SimArena, GrowsAcrossChunksKeepingOldPointersValid)
{
    SimArena arena;
    char *small = arena.alloc<char>(16);
    small[0] = 'x';
    // Force a second chunk well past the first chunk's size.
    char *big = arena.alloc<char>(1 << 20);
    big[0] = 'y';
    EXPECT_EQ(small[0], 'x'); // growth never moved the old chunk
    size_t cap = arena.capacityBytes();
    arena.reset();
    arena.alloc<char>(16);
    arena.alloc<char>(1 << 20);
    EXPECT_EQ(arena.capacityBytes(), cap);
}

// ---------------------------------------------------------------
// Machine::Batch vs per-run Machine::run. The reference runs come
// from fresh machines: on the Batch's own machine they would share
// its memo and compare it with itself.

TEST(Batch, MatchesPerRunOnEveryConfig)
{
    Machine m(isa);
    Program p = loopOf("add", 256, 0);
    const uint64_t salt = 7;

    for (double f : {0.0, 2.0, 3.5}) {
        OperatingPoint op = m.operatingPoint(f);
        std::vector<RunResult> ref;
        for (const ChipConfig &cfg : ChipConfig::all())
            ref.push_back(freshRun(p, cfg, f, salt));
        Machine::Batch batch(m, p);
        auto cfgs = ChipConfig::all();
        for (size_t i = 0; i < cfgs.size(); ++i) {
            SCOPED_TRACE(cfgs[i].label() + " @ " +
                         std::to_string(f));
            expectSameResult(batch.run(cfgs[i], op, salt),
                             ref[i]);
        }
        // 24 configs span only 3 SMT modes; without memory
        // accesses there is no contention rerun, so the Batch
        // requests one core simulation per mode.
        EXPECT_EQ(batch.simCount(), 3u);
    }
}

TEST(Batch, MatchesPerRunWithMemoryContention)
{
    Machine m(isa);
    Program p = memLoop(HitLevel::Mem);
    const uint64_t salt = 11;
    std::vector<ChipConfig> cfgs = {
        {1, 1}, {2, 2}, {4, 2}, {8, 4}};

    for (double f : {0.0, 2.0, 3.5}) {
        OperatingPoint op = m.operatingPoint(f);
        std::vector<RunResult> ref;
        for (const ChipConfig &cfg : cfgs)
            ref.push_back(freshRun(p, cfg, f, salt));
        Machine::Batch batch(m, p);
        for (size_t i = 0; i < cfgs.size(); ++i) {
            SCOPED_TRACE(cfgs[i].label() + " @ " +
                         std::to_string(f));
            expectSameResult(batch.run(cfgs[i], op, salt),
                             ref[i]);
        }
    }
}

TEST(Batch, MixedRequestsMatchPerRun)
{
    // One Batch serving a mixed sequence of configurations,
    // operating points and per-request salts, as the campaign
    // executor drives it.
    Machine m(isa);
    Program p = memLoop(HitLevel::L3);
    Machine::Batch batch(m, p);
    uint64_t salt = 100;
    for (const ChipConfig &cfg :
         {ChipConfig{1, 1}, ChipConfig{4, 2}, ChipConfig{8, 4}})
        for (double f : {0.0, 2.5}) {
            SCOPED_TRACE(cfg.label() + " @ " + std::to_string(f));
            OperatingPoint op = m.operatingPoint(f);
            expectSameResult(batch.run(cfg, op, salt),
                             freshRun(p, cfg, f, salt));
            ++salt;
        }
}

TEST(Batch, ReuseAcrossRunsIsIdentical)
{
    Machine m(isa);
    Program p = memLoop(HitLevel::Mem);
    Machine::Batch batch(m, p);
    OperatingPoint op = m.operatingPoint(2.0);
    RunResult first = batch.run({4, 2}, op, 3);
    size_t sims = batch.simCount();
    // The repeat reuses the memoized core simulations and the
    // reset arena/cache scratch; bits must not drift.
    expectSameResult(batch.run({4, 2}, op, 3), first);
    EXPECT_EQ(batch.simCount(), sims);
}

TEST(Batch, NominalOperatingPointCollapses)
{
    Program p = loopOf("xvmaddadp", 256, 0);
    Machine ref(isa);
    RunResult nominal = ref.run(p, {6, 2}, 42); // two-arg nominal
    Machine m(isa);
    Machine::Batch batch(m, p);
    // Explicit nominal operating point through the batched
    // engine: bit-identical to the two-argument nominal run, so
    // cache entries keyed before DVFS (or before batching) keep
    // hitting.
    expectSameResult(batch.run({6, 2}, m.operatingPoint(), 42),
                     nominal);
}

// ---------------------------------------------------------------
// The core-simulation memo: Machine::run and every Batch share
// finished core simulations. Every test compares with a machine
// built for the one call (freshRun), which no earlier call's entry
// can reach.

namespace
{

uint64_t
memoHits()
{
    return obs::counter("run_memo_hits").value();
}

uint64_t
memoSims()
{
    return obs::counter("run_core_sims").value();
}

uint64_t
batchSims()
{
    return obs::counter("batch_core_sims").value();
}

} // namespace

TEST(RunMemo, EveryConfigAndClockMatchesAFreshMachine)
{
    const std::vector<Program> progs = {loopOf("add", 256, 0),
                                        memLoop(HitLevel::Mem)};
    const std::vector<ChipConfig> cfgs = ChipConfig::all();
    Machine m(isa);
    for (size_t k = 0; k < progs.size(); ++k)
        for (double f : {0.0, 2.0, 3.5}) {
            std::vector<RunResult> ref;
            for (const ChipConfig &cfg : cfgs)
                ref.push_back(freshRun(progs[k], cfg, f, 9));
            uint64_t hits = memoHits();
            uint64_t sims = memoSims();
            for (size_t i = 0; i < cfgs.size(); ++i) {
                SCOPED_TRACE(progs[k].name + " " + cfgs[i].label() +
                             " @ " + std::to_string(f));
                expectSameResult(
                    m.run(progs[k], cfgs[i], m.operatingPoint(f), 9),
                    ref[i]);
            }
            // The first passes of the 8 core counts of one SMT mode
            // share one simulation, so 21 of the 24 jobs hit; a
            // compute loop needs no contention rerun.
            EXPECT_GE(memoHits() - hits, 21u);
            if (k == 0) {
                EXPECT_EQ(memoSims() - sims, 3u);
            }
        }
}

TEST(RunMemo, SameContentUnderAnotherNameSharesOnlyTheCore)
{
    Program a = memLoop(HitLevel::Mem);
    a.name = "twin-a";
    Program b = a;
    b.name = "twin-b";
    const ChipConfig cfg{8, 2};
    RunResult fresh_a = freshRun(a, cfg, 0.0, 5);
    RunResult fresh_b = freshRun(b, cfg, 0.0, 5);

    Machine m(isa);
    RunResult ra = m.run(a, cfg, 5);
    uint64_t sims = memoSims();
    RunResult rb = m.run(b, cfg, 5);
    EXPECT_EQ(memoSims(), sims); // b's core came from a's entries
    expectSameCounters(ra, rb);
    // The sensor noise is still seeded by each program's own name.
    expectSameResult(ra, fresh_a);
    expectSameResult(rb, fresh_b);
    EXPECT_NE(ra.sensorWatts, rb.sensorWatts);
}

TEST(RunMemo, SingleFieldVariantsNeverShareAResult)
{
    UarchDef u = builtinP7Uarch();
    AnalyticalCacheModel cm(u);
    Program base;
    base.isa = &isa;
    base.name = "b-variants";
    base.streams.push_back(cm.makeStream(HitLevel::Mem, 0).stream);
    base.streams.push_back(cm.makeStream(HitLevel::L2, 1).stream);
    for (int i = 0; i < 16; ++i) {
        base.body.push_back({isa.find("ld"), 0, i % 2, 1.0f, 1.0f});
        base.body.push_back({isa.find("mulld"), 1, -1, 1.0f, 1.0f});
        base.body.push_back(
            {isa.find("xvmaddadp"), 0, -1, 0.5f, 1.0f});
        base.body.push_back({isa.find("bc"), 0, -1, 1.0f, 0.5f});
    }
    base.body.push_back({isa.find("bdnz"), 0, -1, 1.0f, 1.0f});

    // variants[0] is the base; each other one changes one field of
    // one instruction, or one stream line. The last instruction
    // sits in the body's partial tail word of the digest.
    std::vector<Program> variants(8, base);
    variants[1].body[1].op = isa.find("add");
    variants[2].body[1].depDist = 3;
    variants[3].body[0].stream = 1;
    variants[4].body[2].toggle = 0.25f;
    variants[5].body[3].takenRate = 0.25f;
    variants[6].streams[0].lines[1] = variants[6].streams[0].lines[0];
    variants[7].body.back().takenRate = 0.5f;

    const ChipConfig cfg{4, 2};
    std::vector<RunResult> ref;
    for (const Program &v : variants)
        ref.push_back(freshRun(v, cfg));
    Machine m(isa);
    for (size_t i = 0; i < variants.size(); ++i) {
        SCOPED_TRACE(i);
        uint64_t hits = memoHits();
        expectSameResult(m.run(variants[i], cfg), ref[i]);
        // Nothing an earlier variant simulated was served ...
        EXPECT_EQ(memoHits(), hits);
        // ... and serving it would have shown: every variant
        // simulates differently from the base.
        if (i > 0) {
            EXPECT_FALSE(ref[i].chip.cycles == ref[0].chip.cycles &&
                         ref[i].chip.energyNj == ref[0].chip.energyNj &&
                         ref[i].chip.l1Hits == ref[0].chip.l1Hits);
        }
    }
    // Identical content is served again.
    uint64_t hits = memoHits();
    for (size_t i = 0; i < variants.size(); ++i)
        expectSameResult(m.run(variants[i], cfg), ref[i]);
    EXPECT_GE(memoHits() - hits, variants.size());
}

TEST(RunMemo, MutatedOptionsAreNeverServedOldResults)
{
    Program p = memLoop(HitLevel::L3);
    const ChipConfig cfg{2, 2};
    CoreSimOptions base;
    base.cacheGeoms = builtinP7Uarch().cacheGeometries();
    using Mutation = void (*)(CoreSimOptions &);
    const Mutation mutations[] = {
        [](CoreSimOptions &o) { o.warmupIters = 5; },
        [](CoreSimOptions &o) { o.prefetch = false; },
        [](CoreSimOptions &o) { o.cacheGeoms.back().sizeBytes /= 4; },
    };

    Machine m(isa);
    m.simOptions() = base;
    RunResult before = m.run(p, cfg);
    for (Mutation mutate : mutations) {
        CoreSimOptions opts = base;
        mutate(opts);
        RunResult ref = freshRun(p, cfg, 0.0, 0, opts);
        m.simOptions() = base;
        mutate(m.simOptions());
        uint64_t hits = memoHits();
        expectSameResult(m.run(p, cfg), ref);
        EXPECT_EQ(memoHits(), hits);
    }
    // Back at the base options, the first result is served again.
    m.simOptions() = base;
    uint64_t hits = memoHits();
    expectSameResult(m.run(p, cfg), before);
    EXPECT_GT(memoHits(), hits);
}

TEST(RunMemo, EightThreadsMatchSerialFreshRuns)
{
    struct Job
    {
        const Program *prog;
        ChipConfig cfg;
        double freq;
        uint64_t salt;
    };
    std::vector<Program> progs = {loopOf("subf", 128, 0),
                                  memLoop(HitLevel::Mem),
                                  memLoop(HitLevel::L3)};
    progs[2].name = "b-l3-loop";
    std::vector<Job> jobs;
    for (const Program &p : progs)
        for (const ChipConfig &cfg : ChipConfig::all())
            for (double f : {0.0, 2.5})
                jobs.push_back({&p, cfg, f, jobs.size()});
    std::vector<RunResult> serial;
    for (const Job &j : jobs)
        serial.push_back(freshRun(*j.prog, j.cfg, j.freq, j.salt));

    std::vector<size_t> order(jobs.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::shuffle(order.begin(), order.end(), std::mt19937(7));
    Machine m(isa);
    std::vector<RunResult> parallel(jobs.size());
    std::atomic<size_t> next{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < 8; ++t)
        workers.emplace_back([&] {
            for (size_t i = next++; i < order.size(); i = next++) {
                const Job &j = jobs[order[i]];
                parallel[order[i]] = m.run(
                    *j.prog, j.cfg, m.operatingPoint(j.freq), j.salt);
            }
        });
    for (std::thread &w : workers)
        w.join();
    for (size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(i);
        expectSameResult(parallel[i], serial[i]);
    }
}

TEST(RunMemo, ABatchIsServedWhatRunSimulated)
{
    // The generation searches measure a program at 1-1 through
    // run(); a campaign's Batch for the same content then simulates
    // nothing at SMT 1. A compute loop needs no contention rerun.
    const Program p = loopOf("mulld", 256, 1);
    const uint64_t salt = 21;
    Machine m(isa);
    m.run(p, {1, 1});
    const uint64_t hits = memoHits(), sims = memoSims();
    const uint64_t batch_sims = batchSims();
    Machine::Batch batch(m, p);
    RunResult r = batch.run({8, 1}, m.operatingPoint(), salt);
    EXPECT_EQ(memoSims(), sims);
    EXPECT_EQ(memoHits(), hits + 1);
    // The Batch still counts its first request of the pair.
    EXPECT_EQ(batchSims(), batch_sims + 1);
    EXPECT_EQ(batch.simCount(), 1u);
    expectSameResult(r, freshRun(p, {8, 1}, 0.0, salt));
}

TEST(RunMemo, RunIsServedWhatABatchSimulated)
{
    // A memory loop on 4 cores: the first pass and the contended
    // rerun both come from the Batch's simulations.
    const Program p = memLoop(HitLevel::Mem);
    const ChipConfig cfg{4, 2};
    Machine m(isa);
    Machine::Batch batch(m, p);
    const uint64_t sims = memoSims();
    RunResult from_batch = batch.run(cfg, m.operatingPoint(2.5), 4);
    EXPECT_EQ(batch.simCount(), 2u);
    EXPECT_EQ(memoSims(), sims + 2);
    const uint64_t hits = memoHits();
    RunResult from_run = m.run(p, cfg, m.operatingPoint(2.5), 5);
    EXPECT_EQ(memoSims(), sims + 2);
    EXPECT_EQ(memoHits(), hits + 2);
    expectSameResult(from_batch, freshRun(p, cfg, 2.5, 4));
    expectSameResult(from_run, freshRun(p, cfg, 2.5, 5));
}

TEST(TraceMemo, ProgramsSimulatedOnceAtSmt1BuildNoTrace)
{
    // A memory program gets an access trace at its first simulation
    // at SMT 2 or 4, or its second at any width; a memory-free one
    // never does. Copies of a machine share the traces. One-core
    // configurations keep run() to one simulation each.
    auto builds = [] { return obs::counter("trace_builds").value(); };
    auto traced = [] { return obs::counter("core_sims_traced").value(); };
    const Program alu = loopOf("subf", 128, 0);
    const Program mem = memLoop(HitLevel::L2);
    Machine m(isa);
    const uint64_t b0 = builds(), t0 = traced();
    m.run(alu, {1, 2});
    m.run(alu, {1, 4}, m.operatingPoint(2.5));
    EXPECT_EQ(builds(), b0);
    RunResult first = m.run(mem, {1, 1});
    EXPECT_EQ(builds(), b0);
    EXPECT_EQ(traced(), t0);
    RunResult second = m.run(mem, {1, 1}, m.operatingPoint(2.5));
    EXPECT_EQ(builds(), b0 + 1);
    EXPECT_EQ(traced(), t0 + 1);
    Machine copy = m;
    RunResult smt4 = copy.run(mem, {1, 4});
    EXPECT_EQ(builds(), b0 + 1);
    EXPECT_EQ(traced(), t0 + 2);
    Machine other(isa);
    other.run(mem, {1, 2});
    EXPECT_EQ(builds(), b0 + 2);
    EXPECT_EQ(traced(), t0 + 3);
    EXPECT_EQ(obs::counter("trace_overflows").value(), 0u);
    expectSameResult(first, freshRun(mem, {1, 1}, 0.0, 0));
    expectSameResult(second, freshRun(mem, {1, 1}, 2.5, 0));
    expectSameResult(smt4, freshRun(mem, {1, 4}, 0.0, 0));
}

TEST(RunMemo, ClearingAtTheCapKeepsResultsExact)
{
    // Distinct tiny programs keep the cap's worth of simulations
    // cheap.
    auto variant = [](size_t i) {
        Program p = loopOf("add", 4, 0);
        p.body[0].toggle = static_cast<float>(i) / 65536.0f;
        return p;
    };
    const ChipConfig cfg{1, 1};
    // Every entry is charged at least its one CoreResult, so this
    // many programs reach the cap.
    const size_t n = Machine::kSimMemoCapBytes / sizeof(CoreResult) + 64;

    Machine m(isa);
    for (size_t i = 0; i < n; ++i) {
        RunResult r = m.run(variant(i), cfg);
        if (i % 256 == 0 || i + 64 >= n) {
            SCOPED_TRACE(i);
            expectSameResult(r, freshRun(variant(i), cfg));
        }
    }
    // The clear at the cap dropped the first entries: the first
    // program simulates again, the last one is still a hit, and
    // both match a fresh machine.
    RunResult first = freshRun(variant(0), cfg);
    RunResult last = freshRun(variant(n - 1), cfg);
    uint64_t sims = memoSims();
    expectSameResult(m.run(variant(0), cfg), first);
    EXPECT_EQ(memoSims() - sims, 1u);
    expectSameResult(m.run(variant(n - 1), cfg), last);
    EXPECT_EQ(memoSims() - sims, 1u);
}

// ---------------------------------------------------------------
// Campaigns through the batched path

namespace
{

CampaignSpec
batchSpec()
{
    CampaignSpec spec;
    spec.categories = {BenchCategory::Random};
    spec.suite.randomCount = 2;
    spec.suite.bodySize = 128;
    spec.bootstrap = false;
    spec.threads = 1;
    spec.configs = {{1, 1}, {2, 2}, {8, 4}};
    return spec;
}

} // namespace

TEST(CampaignBatch, UnbatchedColdThenBatchedWarmHitsCache)
{
    Architecture arch = Architecture::get("POWER7");
    Machine m = arch.machine();
    CampaignSpec spec = batchSpec();
    spec.cacheDir = freshCacheDir("xpath");
    spec.freqs = {2.0, 3.0};

    // A cold --serve campaign measures every job through per-job
    // Machine::run and populates the cache...
    CampaignSpec serve = spec;
    serve.serve = true;
    serve.claimPollSeconds = 0.05;
    Campaign cold(m, serve);
    Architecture arch1 = arch;
    CampaignResult unbatched = cold.run(arch1);
    size_t files = sampleFileCount(spec.cacheDir);
    EXPECT_EQ(files, unbatched.samples.size());

    // ... and the plain executor's batched groups replay it
    // entirely from cache: identical samples, not one new cache
    // key.
    Campaign warm(m, spec);
    Architecture arch2 = arch;
    CampaignResult batched = warm.run(arch2);
    EXPECT_EQ(batched.cacheMisses, 0u);
    ASSERT_EQ(batched.samples.size(), unbatched.samples.size());
    for (size_t i = 0; i < batched.samples.size(); ++i)
        EXPECT_TRUE(
            samplesEqual(unbatched.samples[i], batched.samples[i]))
            << i;
    EXPECT_EQ(sampleFileCount(spec.cacheDir), files);
}

TEST(CampaignBatch, ThreadCountInvariantThroughBatchedPath)
{
    Machine m(isa);
    std::vector<Program> progs = {loopOf("subf", 128, 0),
                                  memLoop(HitLevel::Mem)};
    std::vector<ChipConfig> cfgs = {{1, 1}, {8, 4}, {2, 2}};

    CampaignSpec serial = batchSpec();
    serial.freqs = {2.0, 3.5};
    Campaign c1(m, serial);
    auto s1 = c1.measure(progs, cfgs);

    CampaignSpec wide = batchSpec();
    wide.freqs = {2.0, 3.5};
    wide.threads = 8;
    Campaign c8(m, wide);
    auto s8 = c8.measure(progs, cfgs);

    ASSERT_EQ(s1.size(),
              progs.size() * cfgs.size() * serial.freqs.size());
    ASSERT_EQ(s1.size(), s8.size());
    for (size_t i = 0; i < s1.size(); ++i)
        EXPECT_TRUE(samplesEqual(s1[i], s8[i])) << i;
}
