/**
 * @file
 * Tests for the chip-level machine model and its power sensor.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "microprobe/cache_model.hh"
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
    p.name = "m-" + op;
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
    p.name = "mem-loop";
    return p;
}

} // namespace

TEST(Machine, ConfigLabels)
{
    EXPECT_EQ((ChipConfig{4, 2}.label()), "4-2");
    EXPECT_EQ((ChipConfig{8, 4}.threads()), 32);
    EXPECT_EQ(ChipConfig::all().size(), 24u);
}

TEST(Machine, SensorIsDeterministicPerRun)
{
    Machine m(isa);
    Program p = loopOf("add", 512, 0);
    RunResult a = m.run(p, {4, 2});
    RunResult b = m.run(p, {4, 2});
    EXPECT_DOUBLE_EQ(a.sensorWatts, b.sensorWatts);
}

TEST(Machine, SaltPerturbsSensorOnly)
{
    Machine m(isa);
    Program p = loopOf("add", 512, 0);
    RunResult a = m.run(p, {4, 2}, 1);
    RunResult b = m.run(p, {4, 2}, 2);
    EXPECT_NE(a.sensorWatts, b.sensorWatts);
    EXPECT_DOUBLE_EQ(a.coreIpc, b.coreIpc);
    // Noise is small (0.15%-ish).
    EXPECT_NEAR(a.sensorWatts, b.sensorWatts,
                0.02 * a.sensorWatts);
}

TEST(Machine, SensorQuantizedToMilliwatts)
{
    Machine m(isa);
    Program p = loopOf("add", 256, 0);
    double w = m.run(p, {2, 1}).sensorWatts;
    EXPECT_NEAR(w * 1000.0, std::round(w * 1000.0), 1e-9);
}

TEST(Machine, IdleBelowAnyWorkload)
{
    Machine m(isa);
    Program p = loopOf("add", 512, 0);
    for (int cores : {1, 4, 8}) {
        ChipConfig cfg{cores, 1};
        EXPECT_LT(m.idleWatts(cfg),
                  m.run(p, cfg).sensorWatts);
    }
}

TEST(Machine, PowerGrowsWithCores)
{
    Machine m(isa);
    Program p = loopOf("xvmaddadp", 1024, 0);
    double prev = 0.0;
    for (int cores = 1; cores <= 8; ++cores) {
        double w = m.run(p, {cores, 1}).sensorWatts;
        EXPECT_GT(w, prev);
        prev = w;
    }
}

TEST(Machine, SmtEnableAddsPower)
{
    Machine m(isa);
    // Saturated workload: same dynamic activity at SMT-1/2/4, so
    // the difference is the SMT-enable effect.
    Program p = loopOf("subf", 1024, 0);
    double w1 = m.run(p, {8, 1}).sensorWatts;
    double w2 = m.run(p, {8, 2}).sensorWatts;
    double w4 = m.run(p, {8, 4}).sensorWatts;
    EXPECT_GT(w2, w1 + 2.0);
    // Nearly independent of 2-way vs 4-way (Section 4.1).
    EXPECT_NEAR(w4, w2, 1.5);
}

TEST(Machine, CmpEffectIsConvex)
{
    // The hidden CMP term grows super-linearly: successive
    // increments must increase.
    Machine m(isa);
    GroundTruthParams gt = m.groundTruth();
    auto cmp = [&](int n) {
        return gt.cmpLin * n + gt.cmpCurve * std::pow(n, gt.cmpPow);
    };
    double prev_inc = 0.0;
    for (int n = 2; n <= 8; ++n) {
        double inc = cmp(n) - cmp(n - 1);
        EXPECT_GT(inc, prev_inc);
        prev_inc = inc;
    }
}

TEST(Machine, OracleBreakdownSumsToSensor)
{
    Machine m(isa);
    Program p = loopOf("add", 512, 0);
    RunResult r = m.run(p, {6, 2});
    double total = r.gtDynamicWatts + r.gtSmtWatts + r.gtCmpWatts +
                   r.gtUncoreWatts + r.gtIdleWatts;
    // Sensor adds only noise + quantization.
    EXPECT_NEAR(total, r.sensorWatts, 0.02 * total);
}

TEST(Machine, ChipCountersScaleWithCores)
{
    Machine m(isa);
    Program p = loopOf("add", 512, 0);
    RunResult r1 = m.run(p, {1, 1});
    RunResult r8 = m.run(p, {8, 1});
    EXPECT_NEAR(r8.chip.instrs, 8.0 * r1.chip.instrs,
                0.01 * r8.chip.instrs);
    EXPECT_NEAR(r8.coreIpc, r1.coreIpc, 0.02);
}

TEST(Machine, MemoryContentionSlowsManyCores)
{
    Machine m(isa);
    Program p = memLoop(HitLevel::Mem);
    RunResult r1 = m.run(p, {1, 1});
    RunResult r8 = m.run(p, {8, 1});
    // Per-core memory throughput drops when 8 cores share DRAM.
    EXPECT_LT(r8.coreIpc, 0.85 * r1.coreIpc);
}

TEST(Machine, ContentionSlowsARaisedMemoryLatencyToo)
{
    // Contention scales the machine's configured latency, as the
    // first pass does. Scaling the 220-cycle default instead made
    // 8 cores faster than one at a raised latency.
    Machine m(isa);
    m.simOptions().memLatency = 440;
    Program p = memLoop(HitLevel::Mem);
    RunResult r1 = m.run(p, {1, 1});
    RunResult r8 = m.run(p, {8, 1});
    EXPECT_LT(r8.coreIpc, r1.coreIpc);
}

TEST(Machine, NoContentionReRunForCacheResident)
{
    Machine m(isa);
    Program p = memLoop(HitLevel::L2);
    RunResult r1 = m.run(p, {1, 1});
    RunResult r8 = m.run(p, {8, 1});
    EXPECT_NEAR(r8.coreIpc, r1.coreIpc, 0.02 * r1.coreIpc);
}

TEST(Machine, RatesArePerSecond)
{
    Machine m(isa);
    Program p = loopOf("add", 1024, 0);
    RunResult r = m.run(p, {1, 1});
    // IPC 3.5 at 3 GHz: ~10.5e9 instructions/s.
    EXPECT_NEAR(r.rate(r.chip.instrs), 3.5 * 3e9,
                0.15e9 * 3.5);
}

TEST(Machine, MemLevelCountersExclusive)
{
    Machine m(isa);
    for (HitLevel lvl : {HitLevel::L1, HitLevel::L2, HitLevel::L3,
                         HitLevel::Mem}) {
        Program p = memLoop(lvl);
        RunResult r = m.run(p, {1, 1});
        double tot = r.chip.l1Hits + r.chip.l2Hits +
                     r.chip.l3Hits + r.chip.memAcc;
        double at[4] = {r.chip.l1Hits, r.chip.l2Hits,
                        r.chip.l3Hits, r.chip.memAcc};
        EXPECT_GT(at[static_cast<int>(lvl)] / tot, 0.98)
            << "level " << static_cast<int>(lvl);
    }
}

TEST(MachineDeath, WrongIsaFatal)
{
    Machine m(isa);
    Isa other = Isa::fromText("instr nop type=int\n");
    Program p;
    p.isa = &other;
    p.name = "alien";
    p.body.push_back({0, 0, -1, 1.0f, 1.0f});
    p.body.push_back({0, 0, -1, 1.0f, 1.0f});
    EXPECT_EXIT(m.run(p, {1, 1}), testing::ExitedWithCode(1),
                "different ISA");
}

TEST(MachineDeath, BadConfigFatal)
{
    Machine m(isa);
    Program p = loopOf("add", 64, 0);
    EXPECT_EXIT(m.run(p, {9, 1}), testing::ExitedWithCode(1),
                "bad configuration 9-1");
    EXPECT_EXIT(m.run(p, {4, 3}), testing::ExitedWithCode(1),
                "bad configuration 4-3");
}

// Property sweep: sensor power is finite, positive and above idle
// for every configuration.
class ConfigSweep : public testing::TestWithParam<int>
{
};

TEST_P(ConfigSweep, SensorSaneEverywhere)
{
    auto cfgs = ChipConfig::all();
    ChipConfig cfg = cfgs[static_cast<size_t>(GetParam())];
    Machine m(isa);
    Program p = loopOf("lbz", 256, 2, 0);
    UarchDef u = builtinP7Uarch();
    AnalyticalCacheModel cm(u);
    p.streams.push_back(cm.makeStream(HitLevel::L1, 0).stream);

    RunResult r = m.run(p, cfg);
    EXPECT_TRUE(std::isfinite(r.sensorWatts));
    EXPECT_GT(r.sensorWatts, m.idleWatts(cfg));
    EXPECT_GT(r.coreIpc, 0.0);
    EXPECT_GT(r.seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(All24, ConfigSweep,
                         testing::Range(0, 24));
