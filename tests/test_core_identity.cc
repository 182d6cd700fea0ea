/**
 * @file
 * Engine identity: the decoded core simulator against the
 * per-Program reference loop (reference_core.hh), every CoreResult
 * field bit for bit. Covers the CI perf corpus (memory + random
 * programs, 1 K bodies) on every SMT mode at the first-pass memory
 * latency of each swept frequency and at contended latencies, plus
 * non-default cache hierarchies, heterogeneous SMT co-runs of mixed
 * programs and body sizes, and bodies that drive each of the
 * engine's stall-skip paths. The reference loop runs on the frozen
 * cache model of reference_cache.hh, so a cache change shows here.
 * The traced memory path (an AccessTrace replayed instead of the
 * cache walk) is held to the same reference, and each validity rule
 * of docs/MODEL.md "Access-level traces" has a program that breaks
 * it and must fall back to the live path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "microprobe/cache_model.hh"
#include "microprobe/passes.hh"
#include "microprobe/synthesizer.hh"
#include "reference_core.hh"
#include "sim/machine.hh"
#include "workloads/stressmarks.hh"
#include "workloads/suite.hh"

using namespace mprobe;

namespace
{

/** The raw bits of @p v: bit identity, not numeric equality. */
uint64_t
bitsOf(double v)
{
    uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

const std::pair<const char *, double RunCounters::*> kCounterFields[] = {
    {"cycles", &RunCounters::cycles},
    {"instrs", &RunCounters::instrs},
    {"fxuOps", &RunCounters::fxuOps},
    {"lsuOps", &RunCounters::lsuOps},
    {"vsuOps", &RunCounters::vsuOps},
    {"bruOps", &RunCounters::bruOps},
    {"cruOps", &RunCounters::cruOps},
    {"loads", &RunCounters::loads},
    {"stores", &RunCounters::stores},
    {"l1Hits", &RunCounters::l1Hits},
    {"l2Hits", &RunCounters::l2Hits},
    {"l3Hits", &RunCounters::l3Hits},
    {"memAcc", &RunCounters::memAcc},
    {"energyNj", &RunCounters::energyNj},
    {"overlapNj", &RunCounters::overlapNj},
    {"transitionNj", &RunCounters::transitionNj},
};

/** Every CoreResult field of @p got must equal @p want to the bit;
 * returns the number of fields that differ (each also a failure). */
int
countMismatches(const CoreResult &got, const CoreResult &want)
{
    int bad = 0;
    for (const auto &f : kCounterFields) {
        double g = got.window.*f.second;
        double w = want.window.*f.second;
        if (bitsOf(g) != bitsOf(w)) {
            ADD_FAILURE() << f.first << ": got " << g << ", want "
                          << w;
            ++bad;
        }
    }
    if (got.iterations != want.iterations) {
        ADD_FAILURE() << "iterations: got " << got.iterations
                      << ", want " << want.iterations;
        ++bad;
    }
    if (got.threads != want.threads) {
        ADD_FAILURE() << "threads: got " << got.threads
                      << ", want " << want.threads;
        ++bad;
    }
    return bad;
}

/** The CI perf spec's corpus and the machine it runs on. */
struct Corpus
{
    Architecture arch = Architecture::get("POWER7");
    Machine machine = arch.machine();
    std::vector<Program> programs;

    Corpus()
    {
        // categories = memory, random; random_count = 8;
        // per_memory_group = 1; memory_count = 2; body_size = 1024.
        SuiteOptions o;
        o.bodySize = 1024;
        o.perMemoryGroup = 1;
        o.memoryCount = 2;
        o.randomCount = 8;
        o.threads = 1;
        o.categories = {BenchCategory::MemoryGroup,
                        BenchCategory::Random};
        for (auto &gb : generateTable2Suite(arch, machine, o))
            programs.push_back(std::move(gb.program));
    }

    /** A loop cycling through @p ops, independent or, for @p dep
     * > 0, each slot reading the result of the slot @p dep before
     * it. */
    Program
    sequenceLoop(const std::vector<std::string> &ops, size_t n = 512,
                 int dep = 0)
    {
        std::vector<Isa::OpIndex> seq;
        std::string name;
        for (const std::string &op : ops) {
            seq.push_back(arch.isa().find(op));
            name += op + "-";
        }
        Synthesizer s(arch, 99);
        s.addPass<SkeletonPass>(n);
        s.addPass<SequencePass>(seq);
        s.add(std::make_unique<DependencyDistancePass>(
            dep > 0 ? DependencyDistancePass::fixed(dep)
                    : DependencyDistancePass::none()));
        return s.synthesize(name + "loop" +
                            (dep > 0 ? "-dep" + std::to_string(dep) : ""));
    }

    /** A single-instruction loop (the extension tests' shape). */
    Program
    loopOf(const std::string &op, size_t n = 512, int dep = 0)
    {
        return sequenceLoop({op}, n, dep);
    }

    /** loopOf(@p op) with every memory slot walking @p stream. */
    Program
    streamLoopOf(const std::string &op, const MemStream &stream)
    {
        Program p = loopOf(op);
        p.streams.push_back(stream);
        for (auto &pi : p.body)
            if (arch.isa().at(pi.op).isMemory())
                pi.stream = 0;
        return p;
    }

    /** loopOf(@p op) with every memory slot walking one stream
     * served from @p level. */
    Program
    streamLoopOf(const std::string &op, HitLevel level)
    {
        AnalyticalCacheModel cm(arch.uarch());
        return streamLoopOf(op, cm.makeStream(level, 0).stream);
    }

    /** A dependent mixed body with a conditional branch in every
     * @p period slots, taken at @p taken_rate. */
    Program
    branchyLoop(size_t period, float taken_rate)
    {
        Synthesizer s(arch, 7);
        s.addPass<SkeletonPass>(512);
        s.addPass<SequencePass>(std::vector<Isa::OpIndex>{
            arch.isa().find("add"), arch.isa().find("mulld"),
            arch.isa().find("xvmaddadp")});
        s.add(std::make_unique<DependencyDistancePass>(
            DependencyDistancePass::fixed(2)));
        s.addPass<BranchModelPass>(period, taken_rate);
        return s.synthesize("branchy-" + std::to_string(period));
    }

    /** The first-pass (uncontended) memory latency at @p ghz, as
     * Machine::run derives it. */
    int
    firstPassLatency(double ghz) const
    {
        return std::max(1, static_cast<int>(std::lround(
                               machine.simOptions().memLatency * ghz /
                               machine.clockGhz())));
    }

    /** Simulation options at memory latency @p lat_mem. */
    CoreSimOptions
    options(int lat_mem) const
    {
        CoreSimOptions o = machine.simOptions();
        o.memLatency = lat_mem;
        return o;
    }
};

Corpus &
corpus()
{
    static Corpus c;
    return c;
}

/** Memory latencies of contended multi-core runs (well above any
 * first-pass latency of the swept frequencies). */
constexpr int kContendedLatencies[] = {480, 900};

/** Whether a memory slot of @p dec walks a stream. */
bool
walksStreams(const DecodedProgram &dec)
{
    return std::any_of(dec.stream.begin(), dec.stream.end(),
                       [](int32_t sid) { return sid >= 0; });
}

/** AccessTrace::validWidths of a trace valid at SMT 1, 2 and 4. */
constexpr unsigned kEveryWidth = (1u << 1) | (1u << 2) | (1u << 4);

std::string
mixName(const std::vector<const Program *> &mix)
{
    std::string s;
    for (const Program *p : mix)
        s += (s.empty() ? "" : " + ") + p->name;
    return s;
}

} // namespace

TEST(CoreIdentity, PerfCorpusMatchesReference)
{
    Corpus &c = corpus();
    ASSERT_EQ(c.programs.size(), 24u);
    ExecModel exec(c.arch.isa());
    std::vector<int> latencies;
    for (double ghz : {2.0, 2.5, 3.0, 3.5})
        latencies.push_back(c.firstPassLatency(ghz));
    for (int lat : kContendedLatencies) {
        ASSERT_GT(lat, latencies.back());
        latencies.push_back(lat);
    }

    // One decode per program, as a Machine::Batch holds, and one
    // scratch for the whole sweep, as a campaign worker reuses it.
    DecodedProgram dec;
    SimScratch scratch;
    int sims = 0, mismatches = 0;
    for (const Program &p : c.programs) {
        const CoreSimOptions base = c.options(latencies[0]);
        exec.decode(p, base.mispredictPenalty, base.transitionGateNj,
                    dec);
        for (int smt : {1, 2, 4})
            for (int lat : latencies) {
                SCOPED_TRACE(p.name + " smt " + std::to_string(smt) +
                             " lat " + std::to_string(lat));
                CoreSimOptions o = c.options(lat);
                mismatches += countMismatches(
                    simulateCoreDecoded(dec, smt, o, scratch),
                    reference::simulateCore(exec, p, smt, o));
                ++sims;
            }
    }
    EXPECT_EQ(sims, 24 * 3 * 6);
    EXPECT_EQ(mismatches, 0);
}

TEST(CoreIdentity, TracedPerfCorpusMatchesReference)
{
    // Every program at every SMT width and at memory latencies of
    // 132, 220 and 374 cycles (1.8 GHz, the nominal clock, and a
    // contended run): the replayed trace, the live cache walk and
    // the reference agree to the bit. Every memory program of the
    // corpus must be valid at every width, so a validity check
    // that turns stricter shows here.
    Corpus &c = corpus();
    ExecModel exec(c.arch.isa());
    DecodedProgram dec;
    SimScratch scratch;
    int memory_programs = 0, traced = 0, mismatches = 0;
    for (const Program &p : c.programs) {
        const CoreSimOptions base = c.options(0);
        exec.decode(p, base.mispredictPenalty, base.transitionGateNj,
                    dec);
        const AccessTrace trace = buildAccessTrace(dec, base, scratch);
        const bool memory = walksStreams(dec);
        memory_programs += memory;
        if (memory)
            EXPECT_EQ(trace.validWidths, kEveryWidth) << p.name;
        else
            EXPECT_EQ(trace.validWidths, 0u) << p.name;
        for (int smt : {1, 2, 4})
            for (int lat : {132, 220, 374}) {
                SCOPED_TRACE(p.name + " smt " + std::to_string(smt) +
                             " lat " + std::to_string(lat));
                CoreSimOptions o = c.options(lat);
                TraceUse use = TraceUse::Live;
                CoreResult got =
                    simulateCoreDecoded(dec, smt, o, scratch, &trace, &use);
                EXPECT_EQ(use, memory ? TraceUse::Traced : TraceUse::Live);
                traced += use == TraceUse::Traced;
                mismatches += countMismatches(
                    got, simulateCoreDecoded(dec, smt, o, scratch));
                mismatches += countMismatches(
                    got, reference::simulateCore(exec, p, smt, o));
            }
    }
    EXPECT_GT(memory_programs, 0);
    EXPECT_EQ(traced, memory_programs * 3 * 3);
    EXPECT_EQ(mismatches, 0);
}

TEST(CoreIdentity, EachTraceRuleFallsBackToTheLivePath)
{
    // One program per validity rule, each rejected at the widths
    // its rule covers and still equal to the reference there.
    Corpus &c = corpus();
    ExecModel exec(c.arch.isa());
    auto stream = [](std::vector<uint64_t> lines) {
        MemStream s;
        for (uint64_t line : lines)
            s.lines.push_back(line * 128);
        return s;
    };
    struct Case
    {
        Program prog;
        unsigned widths;
    };
    // Five lines on L1 set 2 and five on set 10: thread 1's copies
    // of the first five land on set 10 beside thread 0's, ten
    // lines in an 8-way set.
    std::vector<uint64_t> overfill;
    for (uint64_t k = 1; k <= 5; ++k) {
        overfill.push_back(2 + 32 * k);
        overfill.push_back(10 + 32 * k);
    }
    // Lines 1000 to 1511 in order, twice the L1: each line and the
    // next start the prefetcher, which fills the line after them.
    std::vector<uint64_t> walk;
    for (uint64_t line = 1000; line < 1512; ++line)
        walk.push_back(line);
    const std::vector<Case> cases = {
        {c.streamLoopOf("lbz", stream(overfill)), 1u << 1},
        {c.streamLoopOf("lbz", stream(walk)), 1u << 1},
        // Addresses 0 and 128: the start-up prefetch of line 1
        // would fill a line the program reads.
        {c.streamLoopOf("lbz", stream({0, 1})), 0u},
    };
    SimScratch scratch;
    DecodedProgram dec;
    int mismatches = 0;
    for (const Case &k : cases) {
        const CoreSimOptions base = c.options(c.firstPassLatency(3.0));
        exec.decode(k.prog, base.mispredictPenalty,
                    base.transitionGateNj, dec);
        const AccessTrace trace = buildAccessTrace(dec, base, scratch);
        EXPECT_EQ(trace.validWidths, k.widths) << k.prog.name;
        for (int smt : {1, 2, 4}) {
            SCOPED_TRACE(k.prog.name + " smt " + std::to_string(smt));
            TraceUse use = TraceUse::Live;
            CoreResult got =
                simulateCoreDecoded(dec, smt, base, scratch, &trace, &use);
            EXPECT_EQ(use, trace.validAt(smt) ? TraceUse::Traced
                                              : TraceUse::Live);
            mismatches += countMismatches(
                got, reference::simulateCore(exec, k.prog, smt, base));
        }
    }
    EXPECT_EQ(mismatches, 0);
}

TEST(CoreIdentity, ShortTraceOverflowsIntoTheLivePath)
{
    // A trace of fewer iterations is a prefix of the full one, so
    // its levels are right; a simulation that runs past its end
    // restarts on the cache hierarchy and still matches.
    Corpus &c = corpus();
    ExecModel exec(c.arch.isa());
    SimScratch scratch;
    DecodedProgram dec;
    int overflowed = 0, mismatches = 0;
    for (const Program &p : c.programs) {
        const CoreSimOptions o = c.options(c.firstPassLatency(3.0));
        exec.decode(p, o.mispredictPenalty, o.transitionGateNj, dec);
        if (!walksStreams(dec))
            continue;
        CoreSimOptions short_opts = o;
        short_opts.measureIters = 1;
        const AccessTrace full = buildAccessTrace(dec, o, scratch);
        const AccessTrace prefix = buildAccessTrace(dec, short_opts, scratch);
        ASSERT_LT(prefix.accesses, full.accesses) << p.name;
        for (size_t k = 0; k < prefix.accesses; ++k)
            ASSERT_EQ(prefix.at(k), full.at(k)) << p.name << " access " << k;
        for (int smt : {1, 2, 4}) {
            SCOPED_TRACE(p.name + " smt " + std::to_string(smt));
            TraceUse use = TraceUse::Live;
            CoreResult got =
                simulateCoreDecoded(dec, smt, o, scratch, &prefix, &use);
            EXPECT_EQ(use, TraceUse::Overflowed);
            overflowed += use == TraceUse::Overflowed;
            mismatches += countMismatches(
                got, reference::simulateCore(exec, p, smt, o));
        }
    }
    EXPECT_GT(overflowed, 0);
    EXPECT_EQ(mismatches, 0);
}

TEST(CoreIdentity, NonDefaultCacheGeometriesMatchReference)
{
    // Hierarchies other than the default P7 one take the cache
    // model's other paths: an 8-way hierarchy small enough that the
    // corpus's streams evict constantly, a 4-way 64 B-line one, a
    // direct-mapped one, and one with 1-byte lines. Each program
    // runs live and, where its trace is valid, traced.
    Corpus &c = corpus();
    ExecModel exec(c.arch.isa());
    const std::vector<std::vector<CacheGeometry>> geometries = {
        {{8 * 1024, 8, 128}, {64 * 1024, 8, 128}, {512 * 1024, 8, 128}},
        {{16 * 1024, 4, 64}, {128 * 1024, 4, 64}, {1024 * 1024, 4, 64}},
        {{16 * 1024, 1, 128}, {128 * 1024, 1, 128}, {1024 * 1024, 1, 128}},
        {{8 * 1024, 8, 1}, {64 * 1024, 8, 1}, {512 * 1024, 8, 1}},
    };
    SimScratch scratch;
    DecodedProgram dec;
    int sims = 0, mismatches = 0;
    for (size_t gi = 0; gi < geometries.size(); ++gi) {
        int traced = 0;
        for (size_t pi = 0; pi < c.programs.size(); pi += 4) {
            const Program &p = c.programs[pi];
            CoreSimOptions o = c.options(c.firstPassLatency(3.0));
            o.cacheGeoms = geometries[gi];
            exec.decode(p, o.mispredictPenalty, o.transitionGateNj, dec);
            const AccessTrace trace = buildAccessTrace(dec, o, scratch);
            for (int smt : {1, 2, 4}) {
                SCOPED_TRACE(p.name + " geometry " + std::to_string(gi) +
                             " smt " + std::to_string(smt));
                CoreResult want = reference::simulateCore(exec, p, smt, o);
                mismatches +=
                    countMismatches(simulateCore(exec, p, smt, o), want);
                TraceUse use = TraceUse::Live;
                mismatches += countMismatches(
                    simulateCoreDecoded(dec, smt, o, scratch, &trace, &use),
                    want);
                traced += use == TraceUse::Traced;
                ++sims;
            }
        }
        EXPECT_GT(traced, 0) << "geometry " << gi;
    }
    EXPECT_EQ(sims, 4 * 6 * 3);
    EXPECT_EQ(mismatches, 0);
}

TEST(CoreIdentity, HeterogeneousCoRunsMatchReference)
{
    Corpus &c = corpus();
    ExecModel exec(c.arch.isa());
    const std::vector<Program> &suite = c.programs;
    const size_t n = suite.size();

    // The extension tests' programs: single-unit 512-slot loops,
    // one walking an L1-resident stream.
    Program fxu = c.loopOf("subf");
    Program vsu = c.loopOf("xvmaddadp");
    Program lsu = c.loopOf("lbz");
    AnalyticalCacheModel cm(c.arch.uarch());
    lsu.streams.push_back(cm.makeStream(HitLevel::L1, 0).stream);
    for (auto &pi : lsu.body)
        if (c.arch.isa().at(pi.op).isMemory())
            pi.stream = 0;
    Program add = c.loopOf("add", 384);

    // bench_fig9's shape: per-unit stressmarks beside the
    // homogeneous best sequence.
    std::vector<Isa::OpIndex> picks = expertPicks(c.arch);
    Program s_fxu = buildStressmark(c.arch, {picks[0]}, "het-fxu", 1024);
    Program s_vsu = buildStressmark(c.arch, {picks[1]}, "het-vsu", 1024);
    Program s_lsu = buildStressmark(c.arch, {picks[2]}, "het-lsu", 1024);
    Program best = buildStressmark(c.arch, picks, "hom-best", 1024);

    std::vector<std::vector<const Program *>> mixes = {
        {&fxu, &vsu},
        {&fxu, &vsu, &lsu, &add},
        {&lsu, &add},
        {&best, &best, &best, &best},
        {&s_fxu, &s_lsu, &s_vsu, &best},
        {&s_vsu, &s_fxu},
    };
    // Fixed 2- and 4-thread mixes of suite programs (memory groups
    // and random bodies side by side, so streams of several
    // programs interleave in the shared caches).
    for (size_t i = 0; i < n; i += 3)
        mixes.push_back({&suite[i], &suite[n - 1 - i]});
    for (size_t i = 0; i < n; i += 5)
        mixes.push_back({&suite[i], &suite[(i + 7) % n],
                         &suite[(i + 13) % n], &suite[(i + 19) % n]});
    // Mixed body sizes: each thread wraps at its own loop end.
    mixes.push_back({&suite[0], &add});
    mixes.push_back({&add, &suite[1], &lsu, &s_vsu});

    int mismatches = 0;
    for (const auto &mix : mixes)
        for (int lat : {c.firstPassLatency(3.0), kContendedLatencies[1]}) {
            SCOPED_TRACE(mixName(mix) + " lat " + std::to_string(lat));
            CoreSimOptions o = c.options(lat);
            mismatches +=
                countMismatches(simulateCoreHetero(exec, mix, o),
                                reference::simulateCoreHetero(exec, mix, o));
        }
    EXPECT_EQ(mismatches, 0);
}

TEST(CoreIdentity, CoRunOfOneProgramIsHomogeneous)
{
    Corpus &c = corpus();
    ExecModel exec(c.arch.isa());
    CoreSimOptions o = c.options(c.firstPassLatency(3.0));
    int mismatches = 0;
    for (const Program &p : c.programs) {
        SCOPED_TRACE(p.name);
        mismatches += countMismatches(
            simulateCoreHetero(exec, {&p, &p, &p, &p}, o),
            simulateCore(exec, p, 4, o));
        mismatches +=
            countMismatches(simulateCoreHetero(exec, {&p, &p}, o),
                            simulateCore(exec, p, 2, o));
    }
    EXPECT_EQ(mismatches, 0);
}

TEST(CoreIdentity, StallSkipPathsMatchReference)
{
    // Bodies that hold each stall kind the engine skips over: long
    // structural stalls on the FXU (divides, 1 of 2 pipes for 36
    // cycles) and the VSU (divide and square root, 2 of 4 pipes for
    // 27 and 31 cycles), store back-pressure on LSU pipe 0 from
    // misses to memory, and mispredict blocks. Independent divide
    // bodies starve a thread until the cycle cap at SMT 2 and 4
    // (docs/MODEL.md, "Known limitations"), so the divide bodies
    // here are dependence chains, and the FXU ones run at SMT 1
    // and 2 only.
    Corpus &c = corpus();
    ExecModel exec(c.arch.isa());
    struct Case
    {
        Program prog;
        std::vector<int> smts;
        std::vector<int> lats;
    };
    const int lat = c.firstPassLatency(3.0);
    const std::vector<int> contended(std::begin(kContendedLatencies),
                                     std::end(kContendedLatencies));
    std::vector<Case> cases;
    for (int dep : {1, 2})
        for (const char *op : {"divd", "divw"})
            cases.push_back({c.loopOf(op, 512, dep), {1, 2}, {lat}});
    for (const char *op : {"xsdivdp", "xvdivdp", "fsqrt", "xvsqrtdp"})
        cases.push_back({c.loopOf(op, 512, 1), {1, 2, 4}, {lat}});
    // One-pipe decimal ops beside two-pipe divides and square roots
    // leave a free VSU pipe that is not enough for the next op: the
    // stall skip's one-cycle advance.
    for (int dep : {0, 2})
        for (const std::vector<std::string> &ops :
             {std::vector<std::string>{"dadd", "xsdivdp"},
              std::vector<std::string>{"dadd", "fsqrt"},
              std::vector<std::string>{"ddiv", "xvdivdp", "vaddubm"}})
            cases.push_back({c.sequenceLoop(ops, 512, dep), {1, 2, 4}, {lat}});
    // Stores that all miss to memory; the VSU-steered stfd starves
    // a thread at SMT 2 and 4 as the divides do.
    for (const char *op : {"std", "stdu"})
        cases.push_back(
            {c.streamLoopOf(op, HitLevel::Mem), {1, 2, 4}, contended});
    cases.push_back({c.streamLoopOf("stfd", HitLevel::Mem), {1}, contended});
    cases.push_back({c.branchyLoop(3, 0.5f), {1, 2, 4}, {lat}});
    cases.push_back({c.branchyLoop(5, 0.2f), {1, 2, 4}, {lat}});

    int sims = 0, mismatches = 0;
    for (const Case &k : cases)
        for (int smt : k.smts)
            for (int l : k.lats) {
                SCOPED_TRACE(k.prog.name + " smt " +
                             std::to_string(smt) + " lat " +
                             std::to_string(l));
                CoreSimOptions o = c.options(l);
                CoreResult got = simulateCore(exec, k.prog, smt, o);
                mismatches += countMismatches(
                    got, reference::simulateCore(exec, k.prog, smt, o));
                EXPECT_GT(got.window.instrs, 0.0);
                ++sims;
            }
    EXPECT_EQ(sims, 4 * 2 + 4 * 3 + 6 * 3 + (2 * 3 + 1) * 2 + 2 * 3);
    EXPECT_EQ(mismatches, 0);
}

TEST(CoreIdentity, NoWarmupSingleIterationMatchesReference)
{
    // warmupIters = 0 opens the window at the end of the first
    // step; measureIters = 1 closes it once every thread has
    // wrapped its loop once.
    Corpus &c = corpus();
    ExecModel exec(c.arch.isa());
    std::vector<Program> progs = {c.programs.front(), c.programs.back(),
                                  c.branchyLoop(3, 0.5f),
                                  c.loopOf("xsdivdp", 512, 1)};
    int mismatches = 0;
    for (const Program &p : progs)
        for (int smt : {1, 2, 4}) {
            SCOPED_TRACE(p.name + " smt " + std::to_string(smt));
            CoreSimOptions o = c.options(c.firstPassLatency(3.0));
            o.warmupIters = 0;
            o.measureIters = 1;
            CoreResult got = simulateCore(exec, p, smt, o);
            EXPECT_EQ(got.iterations, 1);
            mismatches += countMismatches(
                got, reference::simulateCore(exec, p, smt, o));
        }
    EXPECT_EQ(mismatches, 0);
}
