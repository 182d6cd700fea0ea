/**
 * @file
 * Tests for the extension features: heterogeneous SMT deployments,
 * the area-heuristic model, the unroll/substitution passes, the
 * random-search driver, binary codification, and retargeting to the
 * second (POWER7+-like) architecture.
 */

#include <gtest/gtest.h>

#include "microprobe/bootstrap.hh"
#include "microprobe/cache_model.hh"
#include "microprobe/dse.hh"
#include "microprobe/passes.hh"
#include "microprobe/synthesizer.hh"
#include "power/area_model.hh"
#include "util/stats.hh"
#include "sim/encoding.hh"
#include "workloads/stressmarks.hh"

using namespace mprobe;

namespace
{

struct Fixture
{
    Architecture arch = Architecture::get("POWER7");
    Machine machine{arch.isa()};

    Program
    loopOf(const std::string &op, int dep, size_t n = 512)
    {
        Synthesizer s(arch, 99);
        s.addPass<SkeletonPass>(n);
        s.addPass<SequencePass>(
            std::vector<Isa::OpIndex>{arch.isa().find(op)});
        s.add(std::make_unique<DependencyDistancePass>(
            dep == 0 ? DependencyDistancePass::none()
                     : DependencyDistancePass::fixed(dep)));
        return s.synthesize(op + "-loop");
    }
};

} // namespace

// ---------------------------------------------------------------
// Heterogeneous SMT deployment

TEST(Hetero, MixedThreadsShareTheCore)
{
    Fixture f;
    Program fxu = f.loopOf("subf", 0);
    Program vsu = f.loopOf("xvmaddadp", 0);
    ExecModel exec(f.arch.isa());
    CoreResult r =
        simulateCoreHetero(exec, {&fxu, &vsu}, CoreSimOptions());
    // Both unit families active: FXU ~2/cycle and VSU ~2/cycle.
    EXPECT_GT(r.window.fxuOps / r.window.cycles, 1.5);
    EXPECT_GT(r.window.vsuOps / r.window.cycles, 1.5);
    EXPECT_NEAR(r.window.ipc(), 4.0, 0.4);
}

TEST(Hetero, ComplementaryThreadsBeatHomogeneousIpc)
{
    Fixture f;
    Program fxu = f.loopOf("subf", 0);
    Program vsu = f.loopOf("xvmaddadp", 0);
    ExecModel exec(f.arch.isa());
    double hom =
        simulateCore(exec, fxu, 2).window.ipc();
    double het = simulateCoreHetero(exec, {&fxu, &vsu})
                     .window.ipc();
    // Two subf threads fight for the 2 FXU pipes (IPC 2); mixing
    // units fills both (IPC ~4).
    EXPECT_GT(het, hom * 1.5);
}

TEST(Hetero, FourWayDeployment)
{
    Fixture f;
    Program fxu = f.loopOf("subf", 0);
    Program vsu = f.loopOf("xvmaddadp", 0);
    Program lsu = f.loopOf("lbz", 0);
    UarchDef u = builtinP7Uarch();
    AnalyticalCacheModel cm(u);
    lsu.streams.push_back(cm.makeStream(HitLevel::L1, 0).stream);
    for (auto &pi : lsu.body)
        if (f.arch.isa().at(pi.op).isMemory())
            pi.stream = 0;
    Program add = f.loopOf("add", 0);
    ExecModel exec(f.arch.isa());
    CoreResult r =
        simulateCoreHetero(exec, {&fxu, &vsu, &lsu, &add});
    EXPECT_GT(r.window.ipc(), 4.0);
    EXPECT_GT(r.window.l1Hits, 0.0);
}

TEST(HeteroDeath, MixedIsaFatal)
{
    Fixture f;
    Program a = f.loopOf("add", 0);
    Isa other = Isa::fromText("instr nop type=int\ninstr b2 "
                              "type=branch\n");
    Program alien;
    alien.isa = &other;
    alien.name = "alien";
    alien.body.push_back({0, 0, -1, 1.0f, 1.0f});
    alien.body.push_back({1, 0, -1, 1.0f, 1.0f});
    ExecModel exec(f.arch.isa());
    EXPECT_EXIT(simulateCoreHetero(exec, {&a, &alien}),
                testing::ExitedWithCode(1), "share one ISA");
}

TEST(HeteroDeath, ThreeThreadsFatal)
{
    Fixture f;
    Program a = f.loopOf("add", 0);
    ExecModel exec(f.arch.isa());
    EXPECT_EXIT(simulateCoreHetero(exec, {&a, &a, &a}),
                testing::ExitedWithCode(1), "thread count");
}

// ---------------------------------------------------------------
// Area-heuristic model

TEST(AreaModel, CalibratesAndPredictsDirectionally)
{
    Fixture f;
    Program hot = f.loopOf("xvmaddadp", 0, 1024);
    Sample cal = makeSample("hot", f.machine.run(hot, {8, 1}));
    double idle = f.machine.idleWatts({8, 1});
    AreaHeuristicModel m =
        AreaHeuristicModel::calibrate(f.arch.uarch(), cal, idle);

    // Exact on the calibration point by construction.
    EXPECT_NEAR(m.predict(cal), cal.powerWatts,
                0.01 * cal.powerWatts);

    // Directionally sane elsewhere: more activity, more power.
    Program cold = f.loopOf("addic", 1, 1024);
    Sample cs = makeSample("cold", f.machine.run(cold, {8, 1}));
    EXPECT_LT(m.predict(cs), m.predict(cal));
    EXPECT_GT(m.predict(cs), idle);
}

TEST(AreaModel, WeightsFollowAreas)
{
    Fixture f;
    Program hot = f.loopOf("xvmaddadp", 0, 1024);
    Sample cal = makeSample("hot", f.machine.run(hot, {8, 1}));
    AreaHeuristicModel m = AreaHeuristicModel::calibrate(
        f.arch.uarch(), cal, f.machine.idleWatts({8, 1}));
    // VSU is the largest unit; its weight must exceed the FXU's.
    EXPECT_GT(m.weights()[1], m.weights()[0]);
}

TEST(AreaModel, LessAccurateThanCounterTrainedBu)
{
    // The comparison the extension exists for: on a mixed workload
    // the area heuristic errs far more than a few percent.
    Fixture f;
    Program hot = f.loopOf("xvmaddadp", 0, 1024);
    Sample cal = makeSample("hot", f.machine.run(hot, {8, 1}));
    AreaHeuristicModel m = AreaHeuristicModel::calibrate(
        f.arch.uarch(), cal, f.machine.idleWatts({8, 1}));
    Synthesizer s(f.arch, 5);
    s.addPass<SkeletonPass>(1024);
    s.addPass<InstructionMixPass>(f.arch.isa().integerOps());
    s.add(std::make_unique<DependencyDistancePass>(
        DependencyDistancePass::random(1, 8)));
    Program mixed = s.synthesize("mixed");
    Sample ms = makeSample("mixed", f.machine.run(mixed, {8, 1}));
    double err = pctAbsError(m.predict(ms), ms.powerWatts);
    EXPECT_GT(err, 2.0);
}

// ---------------------------------------------------------------
// Unroll / substitution passes

TEST(UnrollPass, GrowsBodyPreservingSingleBranch)
{
    Fixture f;
    Synthesizer s(f.arch, 3);
    s.addPass<SkeletonPass>(64);
    s.addPass<InstructionMixPass>(
        std::vector<Isa::OpIndex>{f.arch.isa().find("add")});
    s.addPass<UnrollPass>(4);
    Program p = s.synthesize("unrolled");
    EXPECT_EQ(p.body.size(), 63u * 4 + 1);
    size_t branches = p.countIf(
        [](const InstrDef &d) { return d.isBranch(); });
    EXPECT_EQ(branches, 1u);
}

TEST(UnrollPass, AmortizesLoopOverheadForThroughput)
{
    // The Section-2.2 experiment: unrolling shrinks the closing
    // branch's share of the loop, so the *useful* (non-branch)
    // throughput rises.
    Fixture f;
    auto build = [&](bool unroll) {
        Synthesizer s(f.arch, 4);
        // vand + add saturate the 6-wide dispatch, so the loop
        // branch genuinely steals issue bandwidth here.
        s.addPass<SkeletonPass>(8);
        s.addPass<SequencePass>(std::vector<Isa::OpIndex>{
            f.arch.isa().find("vand"), f.arch.isa().find("add")});
        if (unroll)
            s.addPass<UnrollPass>(32);
        s.add(std::make_unique<DependencyDistancePass>(
            DependencyDistancePass::none()));
        return s.synthesize(unroll ? "u" : "b");
    };
    auto work_rate = [&](const Program &p) {
        RunResult r = f.machine.run(p, {1, 1});
        return (r.chip.instrs - r.chip.bruOps) / r.chip.cycles;
    };
    double base = work_rate(build(false));
    double unrolled = work_rate(build(true));
    EXPECT_GT(unrolled, base + 0.3);
    EXPECT_GT(unrolled, 5.5); // near the 6-wide dispatch limit
}

TEST(UnrollPassDeath, FactorBelowTwoFatal)
{
    EXPECT_EXIT(UnrollPass u(1), testing::ExitedWithCode(1),
                "factor");
}

TEST(SubstitutionPass, ReplacesWithSequence)
{
    // The Section-2.2 example: one addi becomes li + add (modeled
    // as ori + add here).
    Fixture f;
    Synthesizer s(f.arch, 6);
    s.addPass<SkeletonPass>(64);
    s.addPass<SequencePass>(
        std::vector<Isa::OpIndex>{f.arch.isa().find("addi")});
    s.addPass<SubstitutionPass>(
        "addi", std::vector<std::string>{"ori", "add"});
    Program p = s.synthesize("subst");
    EXPECT_EQ(p.body.size(), 63u * 2 + 1);
    EXPECT_EQ(p.countIf([](const InstrDef &d) {
                  return d.name == "addi";
              }),
              0u);
    EXPECT_EQ(p.countIf([](const InstrDef &d) {
                  return d.name == "ori";
              }),
              63u);
}

TEST(SubstitutionPass, ChangesPowerMeasurably)
{
    Fixture f;
    auto build = [&](bool subst) {
        Synthesizer s(f.arch, 7);
        s.addPass<SkeletonPass>(512);
        s.addPass<SequencePass>(
            std::vector<Isa::OpIndex>{f.arch.isa().find("addi")});
        if (subst)
            s.addPass<SubstitutionPass>(
                "addi", std::vector<std::string>{"ori", "add"});
        s.add(std::make_unique<DependencyDistancePass>(
            DependencyDistancePass::none()));
        return s.synthesize(subst ? "s" : "b");
    };
    double base =
        f.machine.run(build(false), {8, 1}).sensorWatts;
    double subst =
        f.machine.run(build(true), {8, 1}).sensorWatts;
    EXPECT_NE(base, subst);
}

TEST(SubstitutionPassDeath, UnknownMnemonicFatal)
{
    Fixture f;
    Synthesizer s(f.arch, 8);
    s.addPass<SkeletonPass>(16);
    s.addPass<SubstitutionPass>(
        "addi", std::vector<std::string>{"nonesuch"});
    EXPECT_EXIT(s.synthesize(), testing::ExitedWithCode(1),
                "unknown instruction");
}

// ---------------------------------------------------------------
// Random search driver

TEST(RandomSearch, RespectsBudgetAndDomains)
{
    RandomSearch s(64, 11);
    std::vector<ParamDomain> space = {{"a", -3, 3}, {"b", 0, 9}};
    auto best = s.search(space, [](const DesignPoint &p) {
        return static_cast<double>(p[0] + p[1]);
    });
    EXPECT_EQ(s.history().size(), 64u);
    for (const auto &e : s.history()) {
        EXPECT_GE(e.point[0], -3);
        EXPECT_LE(e.point[0], 3);
        EXPECT_GE(e.point[1], 0);
        EXPECT_LE(e.point[1], 9);
    }
    EXPECT_GE(best.fitness, 8.0);
}

TEST(RandomSearch, GaBeatsRandomOnStructuredProblem)
{
    auto objective = [](const DesignPoint &p) {
        double dx = p[0] - 52, dy = p[1] - 13;
        return -(dx * dx + dy * dy);
    };
    std::vector<ParamDomain> space = {{"x", 0, 127}, {"y", 0, 127}};
    RandomSearch rnd(120, 3);
    GaOptions go;
    go.population = 12;
    go.generations = 10;
    GeneticSearch ga(go);
    double r = rnd.search(space, objective).fitness;
    double g = ga.search(space, objective).fitness;
    EXPECT_GE(g, r);
}

// ---------------------------------------------------------------
// Binary codification

TEST(Encoding, RoundTripsBody)
{
    Fixture f;
    Synthesizer s(f.arch, 12);
    s.addPass<SkeletonPass>(128);
    s.addPass<InstructionMixPass>(f.arch.isa().loads());
    s.addPass<MemoryModelPass>(MemDistribution{0.5, 0.5, 0, 0});
    s.addPass<RegisterInitPass>(DataPattern::Alt01);
    s.add(std::make_unique<DependencyDistancePass>(
        DependencyDistancePass::random(1, 12)));
    Program p = s.synthesize("enc");

    auto words = encodeProgram(p);
    ASSERT_EQ(words.size(), p.body.size());
    Program q = decodeProgram(f.arch.isa(), words, "dec");
    ASSERT_EQ(q.body.size(), p.body.size());
    for (size_t i = 0; i < p.body.size(); ++i) {
        EXPECT_EQ(q.body[i].op, p.body[i].op) << i;
        EXPECT_EQ(q.body[i].depDist, p.body[i].depDist) << i;
        EXPECT_EQ(q.body[i].stream, p.body[i].stream) << i;
    }
    EXPECT_EQ(q.streams.size(), p.streams.size());
}

TEST(Encoding, ActivityClassesPreserved)
{
    Fixture f;
    ProgInst pi{f.arch.isa().find("add"), 3, -1, 0.02f, 1.0f};
    uint32_t w = encodeInstruction(f.arch.isa(), pi);
    ProgInst out = decodeInstruction(f.arch.isa(), w);
    EXPECT_LT(out.toggle, 0.1f);
    pi.toggle = 1.0f;
    out = decodeInstruction(
        f.arch.isa(), encodeInstruction(f.arch.isa(), pi));
    EXPECT_FLOAT_EQ(out.toggle, 1.0f);
}

TEST(EncodingDeath, UnknownOpcodeFieldFatal)
{
    Fixture f;
    EXPECT_EXIT(decodeInstruction(f.arch.isa(), 0xffff0000u),
                testing::ExitedWithCode(1), "unknown opcode");
}

// ---------------------------------------------------------------
// Portability: POWER7+ retarget

TEST(Portability, P7PlusDefinitionLoads)
{
    Architecture plus = Architecture::get("POWER7+");
    EXPECT_EQ(plus.uarch().name(), "POWER7+-like");
    EXPECT_DOUBLE_EQ(plus.uarch().clockGhz(), 3.6);
    EXPECT_EQ(plus.uarch().cache("L3").geom.sizeBytes,
              8u * 1024 * 1024);
}

TEST(Portability, P7PlusMachineFollowsItsDefinition)
{
    // The one machine every tool and the service build for --arch:
    // the definition's clock and cache geometries, so POWER7+ is a
    // different machine (and a different cache-key fingerprint).
    Machine plus = Architecture::get("POWER7+").machine();
    Machine p7 = Architecture::get("POWER7").machine();
    EXPECT_DOUBLE_EQ(plus.clockGhz(), 3.6);
    ASSERT_EQ(plus.simOptions().cacheGeoms.size(), 3u);
    EXPECT_EQ(plus.simOptions().cacheGeoms[2].sizeBytes,
              8u * 1024 * 1024);
    EXPECT_DOUBLE_EQ(p7.clockGhz(), 3.0);
    EXPECT_NE(plus.fingerprint(), p7.fingerprint());
}

TEST(Portability, SameScriptRetargetsToP7Plus)
{
    // The paper's portability claim: the very same generation
    // policy runs against another architecture definition, and the
    // analytical cache model still guarantees the distribution on
    // the retargeted machine.
    Architecture plus = Architecture::get("POWER7+");
    Machine machine = plus.machine();

    Synthesizer synth(plus, 21);
    synth.addPass<SkeletonPass>(1024);
    synth.addPass<InstructionMixPass>(plus.isa().loads());
    synth.addPass<MemoryModelPass>(
        MemDistribution{0.33, 0.33, 0.34, 0.0});
    synth.addPass<RegisterInitPass>(DataPattern::Alt01);
    synth.add(std::make_unique<DependencyDistancePass>(
        DependencyDistancePass::random(1, 32)));
    Program p = synth.synthesize("p7plus-figure2");

    RunResult r = machine.run(p, ChipConfig{1, 1});
    double tot = r.chip.l1Hits + r.chip.l2Hits + r.chip.l3Hits +
                 r.chip.memAcc;
    EXPECT_NEAR(r.chip.l1Hits / tot, 0.33, 0.02);
    EXPECT_NEAR(r.chip.l2Hits / tot, 0.33, 0.02);
    EXPECT_NEAR(r.chip.l3Hits / tot, 0.34, 0.02);
}

TEST(Portability, BootstrapWorksOnP7Plus)
{
    Architecture plus = Architecture::get("POWER7+");
    Machine machine = plus.machine();
    BootstrapOptions bo;
    bo.bodySize = 512;
    auto e = bootstrapInstruction(plus, machine,
                                  plus.isa().find("xvmaddadp"), bo);
    EXPECT_NEAR(e.latency, 6.0, 0.5);
    EXPECT_NEAR(e.throughput, 2.0, 0.15);
    // Rates are measured at 3.6 GHz now; EPI remains positive.
    EXPECT_GT(e.epiNj, 0.0);
}

TEST(Portability, P7PlusLargerL3KeepsBiggerFootprintsResident)
{
    // A footprint that thrashes the P7's 4 MB slice but fits the
    // P7+'s 8 MB slice.
    Architecture p7 = Architecture::get("POWER7");
    Architecture plus = Architecture::get("POWER7+");
    Machine m7(p7.isa());
    Machine mp = plus.machine();

    // A 6 MB span of lines accessed round-robin (one line per
    // 2 KB), prefetcher off for a clean capacity experiment; the
    // measurement window must cover several passes of the stream.
    m7.simOptions().prefetch = false;
    m7.simOptions().warmupIters = 10;
    m7.simOptions().measureIters = 8;
    mp.simOptions().prefetch = false;
    mp.simOptions().warmupIters = 10;
    mp.simOptions().measureIters = 8;
    Program prog;
    prog.isa = &p7.isa();
    prog.name = "footprint-6M";
    MemStream s;
    for (uint64_t i = 0; i < 6 * 1024 * 1024 / 128; i += 16)
        s.lines.push_back((64ull << 20) + i * 128);
    prog.streams.push_back(std::move(s));
    Isa::OpIndex ld = p7.isa().find("ld");
    for (int i = 0; i < 511; ++i)
        prog.body.push_back({ld, 8, 0, 1.0f, 1.0f});
    prog.body.push_back(
        {p7.isa().find("bdnz"), 0, -1, 1.0f, 1.0f});

    RunResult r7 = m7.run(prog, {1, 1});
    RunResult rp = mp.run(prog, {1, 1});
    double l3_7 = r7.chip.l3Hits / (r7.chip.l3Hits +
                                    r7.chip.memAcc + 1e-9);
    double l3_p = rp.chip.l3Hits / (rp.chip.l3Hits +
                                    rp.chip.memAcc + 1e-9);
    EXPECT_GT(l3_p, 0.95);
    EXPECT_LT(l3_7, 0.10);
}

// ---------------------------------------------------------------
// Shipped definition files (defs/) stay in sync with the builtins

TEST(DefFiles, IsaFileMatchesBuiltin)
{
    // The machine fingerprint hashes every field of every
    // instruction definition.
    Isa file = Isa::fromFile(
        std::string(MPROBE_SOURCE_DIR) + "/defs/power7.isa");
    EXPECT_EQ(Machine(file).fingerprint(),
              Machine(builtinP7Isa()).fingerprint());
}

TEST(DefFiles, UarchFilesMatchBuiltins)
{
    // toText() writes every field of the definition.
    UarchDef f7 = UarchDef::fromFile(
        std::string(MPROBE_SOURCE_DIR) + "/defs/power7.uarch");
    EXPECT_EQ(f7.toText(), builtinP7Uarch().toText());
    UarchDef fp = UarchDef::fromFile(
        std::string(MPROBE_SOURCE_DIR) + "/defs/power7plus.uarch");
    EXPECT_EQ(fp.toText(), builtinP7PlusUarch().toText());
}
