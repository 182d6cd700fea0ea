/**
 * @file
 * Tests for the synthesizer passes.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "microprobe/arch.hh"
#include "microprobe/passes.hh"

using namespace mprobe;

namespace
{

Architecture
arch()
{
    return Architecture::get("POWER7");
}

Program
skeleton(const Architecture &a, size_t n = 256)
{
    Program p;
    Rng rng(1);
    SkeletonPass sp(n);
    sp.apply(p, a, rng);
    return p;
}

} // namespace

TEST(SkeletonPass, BuildsEndlessLoop)
{
    auto a = arch();
    Program p = skeleton(a, 128);
    ASSERT_EQ(p.body.size(), 128u);
    const InstrDef &last = a.isa().at(p.body.back().op);
    EXPECT_TRUE(last.isBranch());
    EXPECT_EQ(p.body.back().takenRate, 1.0f);
    for (size_t i = 0; i + 1 < p.body.size(); ++i)
        EXPECT_FALSE(a.isa().at(p.body[i].op).isBranch());
}

TEST(SkeletonPassDeath, TinyBodyFatal)
{
    EXPECT_EXIT(SkeletonPass sp(1), testing::ExitedWithCode(1),
                "at least 2");
}

TEST(InstructionMixPass, FillsAllSlots)
{
    auto a = arch();
    Program p = skeleton(a);
    auto loads = a.isa().loads();
    InstructionMixPass mix(loads);
    Rng rng(2);
    mix.apply(p, a, rng);
    for (size_t i = 0; i + 1 < p.body.size(); ++i)
        EXPECT_TRUE(a.isa().at(p.body[i].op).isLoad());
}

TEST(InstructionMixPass, WeightsRespected)
{
    auto a = arch();
    Program p = skeleton(a, 4096);
    std::vector<Isa::OpIndex> cands = {a.isa().find("add"),
                                       a.isa().find("subf")};
    InstructionMixPass mix(cands, {3.0, 1.0});
    Rng rng(3);
    mix.apply(p, a, rng);
    size_t adds = p.countIf([&](const InstrDef &d) {
        return d.name == "add";
    });
    double share = static_cast<double>(adds) /
                   static_cast<double>(p.body.size() - 1);
    EXPECT_NEAR(share, 0.75, 0.04);
}

TEST(InstructionMixPass, PicksMatchALinearScan)
{
    // The pass binary-searches running sums; a linear scan over the
    // same weights (its previous implementation) is the reference.
    // Random weight vectors with zeros in any position, of sizes
    // 1 to 40, all drawn against the same uniform stream.
    auto a = arch();
    Rng gen(11);
    for (int trial = 0; trial < 300; ++trial) {
        size_t k = 1 + gen.below(40);
        std::vector<Isa::OpIndex> cands;
        std::vector<double> w;
        for (size_t i = 0; i < k; ++i) {
            cands.push_back(static_cast<Isa::OpIndex>(i));
            w.push_back(gen.chance(0.3) ? 0.0
                                        : gen.uniform(0.0, 10.0));
        }
        w[gen.below(k)] = 1.0; // some weight is positive
        Program p = skeleton(a, 256);
        Rng rng(1000 + static_cast<uint64_t>(trial));
        Rng ref = rng;
        InstructionMixPass(cands, w).apply(p, a, rng);

        double total = 0.0;
        for (double x : w)
            total += x;
        for (size_t s = 0; s + 1 < p.body.size(); ++s) {
            double r = ref.uniform() * total;
            size_t pick = 0;
            double acc = 0.0;
            for (size_t i = 0; i < k; ++i) {
                acc += w[i];
                if (r < acc) {
                    pick = i;
                    break;
                }
            }
            ASSERT_EQ(p.body[s].op, cands[pick])
                << "trial " << trial << ", slot " << s;
        }
    }
}

TEST(InstructionMixPassDeath, BadWeightFatal)
{
    for (double bad : {-1.0, std::nan(""), HUGE_VAL})
        EXPECT_EXIT(InstructionMixPass mix({0, 1}, {1.0, bad}),
                    testing::ExitedWithCode(1), "bad weight")
            << bad;
}

TEST(InstructionMixPassDeath, EmptyCandidatesFatal)
{
    EXPECT_EXIT(InstructionMixPass mix({}),
                testing::ExitedWithCode(1), "empty candidate");
}

TEST(InstructionMixPassDeath, WeightArityFatal)
{
    EXPECT_EXIT(InstructionMixPass mix({0, 1}, {1.0}),
                testing::ExitedWithCode(1), "weights");
}

TEST(SequencePass, ReplicatesExactSequence)
{
    auto a = arch();
    Program p = skeleton(a, 128);
    std::vector<Isa::OpIndex> seq = {a.isa().find("mullw"),
                                     a.isa().find("xvmaddadp"),
                                     a.isa().find("lxvd2x")};
    SequencePass sp(seq);
    Rng rng(4);
    sp.apply(p, a, rng);
    for (size_t i = 0; i + 1 < p.body.size(); ++i)
        EXPECT_EQ(p.body[i].op, seq[i % 3]);
}

TEST(MemoryModelPass, AssignsStreamsToMemorySlots)
{
    auto a = arch();
    Program p = skeleton(a, 512);
    InstructionMixPass mix(a.isa().loads());
    Rng rng(5);
    mix.apply(p, a, rng);
    MemoryModelPass mm(MemDistribution{0.5, 0.5, 0, 0});
    mm.apply(p, a, rng);
    EXPECT_EQ(p.streams.size(), 2u);
    for (size_t i = 0; i + 1 < p.body.size(); ++i)
        EXPECT_GE(p.body[i].stream, 0);
}

TEST(MemoryModelPass, ApportionmentMatchesDistribution)
{
    auto a = arch();
    Program p = skeleton(a, 4096);
    InstructionMixPass mix(a.isa().loads());
    Rng rng(6);
    mix.apply(p, a, rng);
    MemoryModelPass mm(MemDistribution{0.25, 0.25, 0.25, 0.25});
    mm.apply(p, a, rng);
    ASSERT_EQ(p.streams.size(), 4u);
    std::map<int, int> counts;
    for (const auto &pi : p.body)
        if (pi.stream >= 0)
            ++counts[pi.stream];
    double total = 0;
    for (auto &[s, c] : counts)
        total += c;
    for (auto &[s, c] : counts)
        EXPECT_NEAR(c / total, 0.25, 0.01);
}

TEST(MemoryModelPass, InterleavesLevels)
{
    // Assignments must alternate rather than cluster: inspect a
    // window for both streams.
    auto a = arch();
    Program p = skeleton(a, 512);
    InstructionMixPass mix(a.isa().loads());
    Rng rng(7);
    mix.apply(p, a, rng);
    MemoryModelPass mm(MemDistribution{0.5, 0.5, 0, 0});
    mm.apply(p, a, rng);
    std::set<int> seen;
    for (size_t i = 0; i < 8; ++i)
        seen.insert(p.body[i].stream);
    EXPECT_EQ(seen.size(), 2u);
}

TEST(MemoryModelPass, NonMemorySlotsUntouched)
{
    auto a = arch();
    Program p = skeleton(a, 256);
    InstructionMixPass mix({a.isa().find("add")});
    Rng rng(8);
    mix.apply(p, a, rng);
    MemoryModelPass mm(MemDistribution{1, 0, 0, 0});
    mm.apply(p, a, rng);
    EXPECT_TRUE(p.streams.empty());
    for (const auto &pi : p.body)
        EXPECT_EQ(pi.stream, -1);
}

TEST(MemoryModelPassDeath, BadDistributionFatal)
{
    EXPECT_EXIT(MemoryModelPass mm(MemDistribution{0.5, 0, 0, 0}),
                testing::ExitedWithCode(1), "sums to");
}

TEST(RegisterInitPass, TogglesByPattern)
{
    auto a = arch();
    Program p = skeleton(a);
    Rng rng(9);
    RegisterInitPass(DataPattern::Zero).apply(p, a, rng);
    EXPECT_LT(p.body[0].toggle, 0.1f);
    RegisterInitPass(DataPattern::Random).apply(p, a, rng);
    EXPECT_FLOAT_EQ(p.body[0].toggle, 1.0f);
    RegisterInitPass(DataPattern::Alt01).apply(p, a, rng);
    EXPECT_NEAR(p.body[0].toggle, 0.55f, 0.01f);
}

TEST(ImmediateInitPass, OnlyTouchesImmediateForms)
{
    auto a = arch();
    Program p = skeleton(a, 64);
    std::vector<Isa::OpIndex> cands = {a.isa().find("add"),
                                       a.isa().find("addi")};
    InstructionMixPass mix(cands);
    Rng rng(10);
    mix.apply(p, a, rng);
    RegisterInitPass(DataPattern::Random).apply(p, a, rng);
    ImmediateInitPass(DataPattern::Zero).apply(p, a, rng);
    for (size_t i = 0; i + 1 < p.body.size(); ++i) {
        const InstrDef &d = a.isa().at(p.body[i].op);
        if (d.hasImm)
            EXPECT_LT(p.body[i].toggle, 0.6f);
        else
            EXPECT_FLOAT_EQ(p.body[i].toggle, 1.0f);
    }
}

TEST(DependencyDistancePass, FixedAndRandomModes)
{
    auto a = arch();
    Program p = skeleton(a, 512);
    InstructionMixPass mix({a.isa().find("add")});
    Rng rng(11);
    mix.apply(p, a, rng);

    auto fixed = DependencyDistancePass::fixed(7);
    fixed.apply(p, a, rng);
    for (size_t i = 0; i + 1 < p.body.size(); ++i)
        EXPECT_EQ(p.body[i].depDist, 7);

    auto rnd = DependencyDistancePass::random(2, 9);
    rnd.apply(p, a, rng);
    bool varied = false;
    for (size_t i = 0; i + 1 < p.body.size(); ++i) {
        EXPECT_GE(p.body[i].depDist, 2);
        EXPECT_LE(p.body[i].depDist, 9);
        varied |= p.body[i].depDist != p.body[0].depDist;
    }
    EXPECT_TRUE(varied);
}

TEST(DependencyDistancePass, BranchesLeftIndependent)
{
    auto a = arch();
    Program p = skeleton(a, 64);
    Rng rng(12);
    auto chain = DependencyDistancePass::chain();
    chain.apply(p, a, rng);
    EXPECT_EQ(p.body.back().depDist, 0);
}

TEST(DependencyDistancePassDeath, NegativeRangeFatal)
{
    EXPECT_EXIT(DependencyDistancePass::random(5, 2),
                testing::ExitedWithCode(1), "bad range");
}

TEST(BranchModelPass, InsertsPeriodicBranches)
{
    auto a = arch();
    Program p = skeleton(a, 256);
    InstructionMixPass mix({a.isa().find("add")});
    Rng rng(13);
    mix.apply(p, a, rng);
    BranchModelPass bp(8, 0.5f);
    bp.apply(p, a, rng);
    size_t branches = 0;
    for (size_t i = 0; i + 1 < p.body.size(); ++i) {
        const InstrDef &d = a.isa().at(p.body[i].op);
        if (d.isBranch()) {
            ++branches;
            EXPECT_FLOAT_EQ(p.body[i].takenRate, 0.5f);
        }
    }
    EXPECT_NEAR(branches, 256 / 8, 2);
}

TEST(BranchModelPassDeath, BadRateFatal)
{
    EXPECT_EXIT(BranchModelPass bp(8, 1.5f),
                testing::ExitedWithCode(1), "taken rate");
}

TEST(Arch, RegistryAndQueries)
{
    auto a = arch();
    EXPECT_EQ(a.isa().name(), "POWER7-like");
    EXPECT_EQ(a.uarch().name(), "POWER7-like");
    // stressing() consults bootstrapped properties.
    a.uarchMut().propsMut("lxvw4x").units = {"LSU", "L1"};
    auto vsu_loads = a.stressing(a.isa().loads(), "VSU");
    EXPECT_TRUE(vsu_loads.empty());
    auto lsu_loads = a.stressing(a.isa().loads(), "LSU");
    ASSERT_EQ(lsu_loads.size(), 1u);
    EXPECT_EQ(a.isa().at(lsu_loads[0]).name, "lxvw4x");
}

TEST(ArchDeath, UnknownArchitectureFatal)
{
    EXPECT_EXIT(Architecture::get("Alpha21264"),
                testing::ExitedWithCode(1), "unknown architecture");
}
