/**
 * @file
 * Tests for the cycle-level SMT core model: IPC behaviour under
 * dependencies, unit contention, SMT sharing, memory latency and
 * the hidden energy accounting.
 */

#include <gtest/gtest.h>

#include "microprobe/cache_model.hh"
#include "sim/core.hh"
#include "uarch/uarch.hh"

using namespace mprobe;

namespace
{

const Isa &isa = builtinP7Isa();

/** Loop of @p n copies of one opcode plus the closing branch. */
Program
loopOf(const std::string &op, size_t n, int dep,
       int stream = -1)
{
    Program p;
    p.isa = &isa;
    p.name = "test-" + op;
    Isa::OpIndex o = isa.find(op);
    EXPECT_GE(o, 0) << op;
    for (size_t i = 0; i + 1 < n; ++i)
        p.body.push_back({o, dep, stream, 1.0f, 1.0f});
    p.body.push_back({isa.find("bdnz"), 0, -1, 1.0f, 1.0f});
    return p;
}

Program
withL1Stream(Program p)
{
    UarchDef u = builtinP7Uarch();
    AnalyticalCacheModel m(u);
    p.streams.push_back(m.makeStream(HitLevel::L1, 0).stream);
    return p;
}

double
ipcOf(const Program &p, int threads = 1,
      CoreSimOptions opts = CoreSimOptions())
{
    ExecModel exec(isa);
    CoreResult r = simulateCore(exec, p, threads, opts);
    return r.window.ipc();
}

} // namespace

TEST(CoreSim, DualIssueIntegerReaches3_5)
{
    EXPECT_NEAR(ipcOf(loopOf("add", 1024, 0)), 3.5, 0.1);
}

TEST(CoreSim, FxuOnlyIntegerReaches2)
{
    EXPECT_NEAR(ipcOf(loopOf("subf", 1024, 0)), 2.0, 0.05);
}

TEST(CoreSim, ChainSerializesToLatency)
{
    // Dependency chains expose latency: lat-1 adds -> IPC 1,
    // lat-4 multiplies -> IPC 0.25, lat-6 FMAs -> IPC ~0.167.
    EXPECT_NEAR(ipcOf(loopOf("add", 1024, 1)), 1.0, 0.03);
    EXPECT_NEAR(ipcOf(loopOf("mulldo", 1024, 1)), 0.25, 0.01);
    EXPECT_NEAR(ipcOf(loopOf("xvmaddadp", 1024, 1)), 1.0 / 6, 0.01);
}

TEST(CoreSim, DependencyDistanceScalesIpc)
{
    // d independent chains of lat-6 FMAs: IPC ~ d/6 up to the
    // 2-per-cycle pipe limit.
    double prev = 0.0;
    for (int d : {1, 2, 4, 8}) {
        double ipc = ipcOf(loopOf("xvmaddadp", 1024, d));
        EXPECT_GT(ipc, prev);
        EXPECT_NEAR(ipc, std::min(2.0, d / 6.0), 0.15);
        prev = ipc;
    }
}

TEST(CoreSim, ComplexIntegerThroughput)
{
    EXPECT_NEAR(ipcOf(loopOf("mulldo", 1024, 0)), 1.4, 0.05);
}

TEST(CoreSim, VmxLogicalSaturatesFourPipes)
{
    EXPECT_NEAR(ipcOf(loopOf("vand", 1024, 0)), 4.0, 0.1);
}

TEST(CoreSim, LoadThroughput)
{
    Program p = withL1Stream(loopOf("lbz", 1024, 0, 0));
    EXPECT_NEAR(ipcOf(p), 1.68, 0.05);
}

TEST(CoreSim, UpdateFormLoadsAreSlower)
{
    Program p = withL1Stream(loopOf("ldux", 1024, 0, 0));
    EXPECT_NEAR(ipcOf(p), 1.0, 0.05);
}

TEST(CoreSim, VectorStoreThroughput)
{
    Program p = withL1Stream(loopOf("stxvw4x", 1024, 0, 0));
    EXPECT_NEAR(ipcOf(p), 0.48, 0.06);
}

TEST(CoreSim, LoadChainExposesL1Latency)
{
    Program p = withL1Stream(loopOf("lbz", 1024, 1, 0));
    EXPECT_NEAR(ipcOf(p), 0.5, 0.02);
}

TEST(CoreSim, MemoryLatencyThrottlesMisses)
{
    // A stream missing everywhere is memory-latency bound.
    Program p = loopOf("lbz", 256, 4, 0);
    UarchDef u = builtinP7Uarch();
    AnalyticalCacheModel m(u);
    p.streams.push_back(m.makeStream(HitLevel::Mem, 0).stream);

    CoreSimOptions fast;
    fast.memLatency = 100;
    CoreSimOptions slow;
    slow.memLatency = 400;
    double ipc_fast = ipcOf(p, 1, fast);
    double ipc_slow = ipcOf(p, 1, slow);
    EXPECT_GT(ipc_fast, ipc_slow * 2.0);
}

TEST(CoreSim, CountersMatchMix)
{
    // Half adds, half FMAs: unit counters reflect the mix.
    Program p;
    p.isa = &isa;
    p.name = "mix";
    Isa::OpIndex a = isa.find("subf");
    Isa::OpIndex v = isa.find("xvmaddadp");
    for (int i = 0; i < 511; ++i)
        p.body.push_back({i % 2 ? a : v, 0, -1, 1.0f, 1.0f});
    p.body.push_back({isa.find("bdnz"), 0, -1, 1.0f, 1.0f});

    ExecModel exec(isa);
    CoreResult r = simulateCore(exec, p, 1);
    double fxu_share = r.window.fxuOps / r.window.instrs;
    double vsu_share = r.window.vsuOps / r.window.instrs;
    EXPECT_NEAR(fxu_share, 0.5, 0.03);
    EXPECT_NEAR(vsu_share, 0.5, 0.03);
    EXPECT_GT(r.window.bruOps, 0.0);
}

TEST(CoreSim, UpdateLoadsCountExtraFxuOps)
{
    Program p = withL1Stream(loopOf("lhaux", 512, 0, 0));
    ExecModel exec(isa);
    CoreResult r = simulateCore(exec, p, 1);
    // Algebraic + update: ~2 FXU micro-ops per load.
    double fxu_per_instr = r.window.fxuOps / r.window.instrs;
    EXPECT_NEAR(fxu_per_instr, 2.0, 0.15);
}

TEST(CoreSim, VsuSteeringCountedForVectorStores)
{
    Program p = withL1Stream(loopOf("stxvw4x", 512, 0, 0));
    ExecModel exec(isa);
    CoreResult r = simulateCore(exec, p, 1);
    double vsu_per_instr = r.window.vsuOps / r.window.instrs;
    EXPECT_NEAR(vsu_per_instr, 1.0, 0.1);
}

TEST(CoreSim, SmtSharesSaturatedPipes)
{
    Program p = loopOf("subf", 1024, 0);
    double ipc1 = ipcOf(p, 1);
    double ipc2 = ipcOf(p, 2);
    double ipc4 = ipcOf(p, 4);
    // Core-level IPC stays at the structural limit...
    EXPECT_NEAR(ipc1, 2.0, 0.05);
    EXPECT_NEAR(ipc2, 2.0, 0.05);
    EXPECT_NEAR(ipc4, 2.0, 0.05);
}

TEST(CoreSim, SmtHelpsLatencyBoundThreads)
{
    // A dependency chain leaves pipes idle; SMT fills them.
    Program p = loopOf("xvmaddadp", 1024, 1);
    double ipc1 = ipcOf(p, 1);
    double ipc4 = ipcOf(p, 4);
    EXPECT_GT(ipc4, ipc1 * 3.0);
}

TEST(CoreSim, SmtThreadsUseDisjointCacheSets)
{
    // An L1-resident stream must stay L1-resident for all 4
    // threads (thread striping prevents conflict misses).
    Program p = withL1Stream(loopOf("lbz", 512, 0, 0));
    ExecModel exec(isa);
    CoreResult r = simulateCore(exec, p, 4);
    double l1_share = r.window.l1Hits /
                      (r.window.l1Hits + r.window.l2Hits +
                       r.window.l3Hits + r.window.memAcc);
    EXPECT_GT(l1_share, 0.999);
}

TEST(CoreSim, EnergyScalesWithWork)
{
    Program p = loopOf("subf", 1024, 0);
    ExecModel exec(isa);
    CoreResult r1 = simulateCore(exec, p, 1);
    CoreResult r4 = simulateCore(exec, p, 4);
    // Same core-level throughput => similar energy per window
    // instruction count.
    double e1 = r1.window.energyNj / r1.window.instrs;
    double e4 = r4.window.energyNj / r4.window.instrs;
    EXPECT_NEAR(e1, e4, 0.15 * e1);
}

TEST(CoreSim, ZeroToggleReducesEnergy)
{
    Program hot = loopOf("xvmaddadp", 1024, 0);
    Program cold = hot;
    for (auto &pi : cold.body)
        pi.toggle = 0.0f;
    ExecModel exec(isa);
    double e_hot =
        simulateCore(exec, hot, 1).window.energyNj;
    double e_cold =
        simulateCore(exec, cold, 1).window.energyNj;
    // Vector ops have ~40% data-dependent energy.
    EXPECT_LT(e_cold, 0.75 * e_hot);
    EXPECT_GT(e_cold, 0.45 * e_hot);
}

TEST(CoreSim, InterleavingUnitsCostsOverlapEnergy)
{
    // Same instruction multiset, different order: grouped by unit
    // vs round-robin across units. The interleaved order co-issues
    // to several units per cycle and must consume more energy.
    Isa::OpIndex m = isa.find("mulldo");
    Isa::OpIndex v = isa.find("xvmaddadp");
    Isa::OpIndex l = isa.find("lbz");

    auto mk = [&](bool interleaved) {
        Program p;
        p.isa = &isa;
        p.name = interleaved ? "inter" : "grouped";
        UarchDef u = builtinP7Uarch();
        AnalyticalCacheModel cm(u);
        p.streams.push_back(
            cm.makeStream(HitLevel::L1, 0).stream);
        const int n = 900;
        for (int i = 0; i < n; ++i) {
            Isa::OpIndex op;
            if (interleaved)
                op = i % 3 == 0 ? m : (i % 3 == 1 ? v : l);
            else
                op = i < n / 3 ? m : (i < 2 * n / 3 ? v : l);
            p.body.push_back(
                {op, 0, isa.at(op).isMemory() ? 0 : -1, 1.0f,
                 1.0f});
        }
        p.body.push_back({isa.find("bdnz"), 0, -1, 1.0f, 1.0f});
        return p;
    };

    ExecModel exec(isa);
    CoreResult inter = simulateCore(exec, mk(true), 1);
    CoreResult grouped = simulateCore(exec, mk(false), 1);
    double pe_inter = inter.window.energyNj / inter.window.instrs;
    double pe_grouped =
        grouped.window.energyNj / grouped.window.instrs;
    EXPECT_GT(pe_inter, pe_grouped * 1.05);
    EXPECT_GT(inter.window.overlapNj, grouped.window.overlapNj);
}

TEST(CoreSim, MispredictionPenaltyAppears)
{
    // Conditional branches at 50% taken cost mispredict stalls.
    auto mk = [&](float taken) {
        Program p;
        p.isa = &isa;
        p.name = "br";
        Isa::OpIndex a = isa.find("add");
        Isa::OpIndex b = isa.find("bc");
        for (int i = 0; i < 511; ++i) {
            if (i % 8 == 7)
                p.body.push_back({b, 0, -1, 1.0f, taken});
            else
                p.body.push_back({a, 0, -1, 1.0f, 1.0f});
        }
        p.body.push_back({isa.find("bdnz"), 0, -1, 1.0f, 1.0f});
        return p;
    };
    double ipc_pred = ipcOf(mk(1.0f));
    double ipc_rand = ipcOf(mk(0.5f));
    EXPECT_LT(ipc_rand, 0.7 * ipc_pred);
}

TEST(CoreSimDeath, EmptyProgramFatal)
{
    Program p;
    p.isa = &isa;
    ExecModel exec(isa);
    EXPECT_EXIT(simulateCore(exec, p, 1),
                testing::ExitedWithCode(1), "empty program");
}

TEST(CoreSimDeath, MissingOrEmptyStreamFatal)
{
    ExecModel exec(isa);
    // A load reading stream 0 of a program without streams...
    Program p = loopOf("lbz", 64, 0, 0);
    EXPECT_EXIT(simulateCore(exec, p, 1), testing::ExitedWithCode(1),
                "missing or empty stream");
    // ...and of one whose stream has no lines.
    p.streams.emplace_back();
    EXPECT_EXIT(simulateCore(exec, p, 1), testing::ExitedWithCode(1),
                "missing or empty stream");
}

TEST(CoreSimDeath, BadThreadCountFatal)
{
    Program p = loopOf("add", 64, 0);
    ExecModel exec(isa);
    EXPECT_EXIT(simulateCore(exec, p, 3),
                testing::ExitedWithCode(1), "SMT thread count");
}

// Property sweep: IPC is monotone non-decreasing in dependency
// distance for several instruction families.
class DepMonotone : public testing::TestWithParam<const char *>
{
};

TEST_P(DepMonotone, IpcNonDecreasingInDistance)
{
    double prev = -1.0;
    for (int d : {1, 2, 3, 5, 8, 13, 21}) {
        double ipc = ipcOf(loopOf(GetParam(), 512, d));
        EXPECT_GE(ipc, prev - 0.05)
            << GetParam() << " at distance " << d;
        prev = std::max(prev, ipc);
    }
}

INSTANTIATE_TEST_SUITE_P(Families, DepMonotone,
                         testing::Values("add", "subf", "mulldo",
                                         "fadd", "xvmaddadp",
                                         "vand", "popcntd"));
