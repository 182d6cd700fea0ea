/**
 * @file
 * Unit tests for the ISA definition module.
 */

#include <gtest/gtest.h>

#include <set>

#include "isa/isa.hh"

using namespace mprobe;

TEST(IsaParser, ParsesMinimalDefinition)
{
    Isa isa = Isa::fromText("isa TEST\nversion 1.0\n"
                            "instr foo type=int width=32 srcs=1 "
                            "dsts=1 imm=1\n");
    EXPECT_EQ(isa.name(), "TEST");
    EXPECT_EQ(isa.version(), "1.0");
    ASSERT_EQ(isa.size(), 1u);
    const InstrDef &d = isa.byName("foo");
    EXPECT_EQ(d.cls, InstrClass::IntSimple);
    EXPECT_EQ(d.width, 32);
    EXPECT_TRUE(d.hasImm);
}

TEST(IsaParser, DefaultsApply)
{
    Isa isa = Isa::fromText("instr bar\n");
    const InstrDef &d = isa.byName("bar");
    EXPECT_EQ(d.cls, InstrClass::IntSimple);
    EXPECT_EQ(d.width, 64);
    EXPECT_EQ(d.srcs, 2);
    EXPECT_EQ(d.dsts, 1);
    EXPECT_FALSE(d.hasImm);
}

TEST(IsaParser, FlagsParsed)
{
    Isa isa = Isa::fromText(
        "instr stfdux type=store flags=float,update,indexed\n");
    const InstrDef &d = isa.byName("stfdux");
    EXPECT_TRUE(d.floatData);
    EXPECT_TRUE(d.update);
    EXPECT_TRUE(d.indexed);
    EXPECT_FALSE(d.vectorData);
}

TEST(IsaParser, CommentsAndBlanksIgnored)
{
    Isa isa = Isa::fromText("# comment\n\n  \ninstr a\n# x\ninstr b\n");
    EXPECT_EQ(isa.size(), 2u);
}

TEST(IsaParserDeath, DuplicateMnemonicFatal)
{
    EXPECT_EXIT(Isa::fromText("instr a\ninstr a\n"),
                testing::ExitedWithCode(1), "duplicate");
}

TEST(IsaParserDeath, UnknownDirectiveFatal)
{
    EXPECT_EXIT(Isa::fromText("bogus x\n"),
                testing::ExitedWithCode(1), "unknown directive");
}

TEST(IsaParserDeath, UnknownClassFatal)
{
    EXPECT_EXIT(Isa::fromText("instr a type=warp\n"),
                testing::ExitedWithCode(1), "unknown instruction");
}

TEST(IsaParserDeath, BadWidthFatal)
{
    EXPECT_EXIT(Isa::fromText("instr a width=0\n"),
                testing::ExitedWithCode(1), "bad width");
}

TEST(IsaParserDeath, UnknownFlagFatal)
{
    EXPECT_EXIT(Isa::fromText("instr a flags=wiggly\n"),
                testing::ExitedWithCode(1), "unknown instruction flag");
}

TEST(Isa, FindAndAt)
{
    const Isa &isa = builtinP7Isa();
    Isa::OpIndex idx = isa.find("add");
    ASSERT_GE(idx, 0);
    EXPECT_EQ(isa.at(idx).name, "add");
    EXPECT_EQ(isa.find("nonexistent"), -1);
}

TEST(Isa, RoundTripThroughText)
{
    const Isa &isa = builtinP7Isa();
    Isa again = Isa::fromText(isa.toText(), "<roundtrip>");
    ASSERT_EQ(again.size(), isa.size());
    for (size_t i = 0; i < isa.size(); ++i) {
        const InstrDef &a = isa.at(static_cast<Isa::OpIndex>(i));
        const InstrDef &b = again.at(static_cast<Isa::OpIndex>(i));
        EXPECT_EQ(a.name, b.name);
        EXPECT_EQ(a.cls, b.cls);
        EXPECT_EQ(a.width, b.width);
        EXPECT_EQ(a.srcs, b.srcs);
        EXPECT_EQ(a.dsts, b.dsts);
        EXPECT_EQ(a.hasImm, b.hasImm);
        EXPECT_EQ(a.update, b.update);
        EXPECT_EQ(a.algebraic, b.algebraic);
        EXPECT_EQ(a.vectorData, b.vectorData);
    }
}

TEST(Isa, SelectQueriesArePredicates)
{
    const Isa &isa = builtinP7Isa();
    auto loads = isa.loads();
    EXPECT_FALSE(loads.empty());
    for (auto op : loads)
        EXPECT_TRUE(isa.at(op).isLoad());
    auto stores = isa.stores();
    for (auto op : stores)
        EXPECT_TRUE(isa.at(op).isStore());
    auto mem = isa.memoryOps();
    EXPECT_EQ(mem.size(), loads.size() + stores.size());
}

TEST(Isa, ClassNamesRoundTrip)
{
    for (InstrClass c :
         {InstrClass::IntSimple, InstrClass::IntComplex,
          InstrClass::Load, InstrClass::Store, InstrClass::Float,
          InstrClass::Vector, InstrClass::Decimal,
          InstrClass::Branch, InstrClass::CondReg,
          InstrClass::System})
        EXPECT_EQ(parseInstrClass(instrClassName(c)), c);
}

// Every instruction the paper names must exist in the builtin ISA.
class PaperInstr : public testing::TestWithParam<const char *>
{
};

TEST_P(PaperInstr, PresentInBuiltinIsa)
{
    EXPECT_GE(builtinP7Isa().find(GetParam()), 0)
        << GetParam() << " missing";
}

INSTANTIATE_TEST_SUITE_P(
    Table3, PaperInstr,
    testing::Values("mulldo", "subf", "addic", "lxvw4x", "lvewx",
                    "lbz", "xvnmsubmdp", "xvmaddadp", "xstsqrtdp",
                    "add", "nor", "and", "ldux", "lwax", "lfsu",
                    "lhaux", "lwaux", "lhau", "stxvw4x", "stxsdx",
                    "stfd", "stfsux", "stfdux", "stfdu", "mullw",
                    "lxvd2x", "dcbt", "bdnz"));

TEST(IsaBuiltin, HasBroadCoverage)
{
    const Isa &isa = builtinP7Isa();
    EXPECT_GE(isa.size(), 180u);
    EXPECT_GE(isa.loads().size(), 30u);
    EXPECT_GE(isa.stores().size(), 20u);
    EXPECT_GE(isa.fpVectorOps().size(), 40u);
    EXPECT_GE(isa.branches().size(), 5u);
}

TEST(IsaBuiltin, UpdateFormsAreMarked)
{
    const Isa &isa = builtinP7Isa();
    EXPECT_TRUE(isa.byName("ldux").update);
    EXPECT_TRUE(isa.byName("lhaux").algebraic);
    EXPECT_TRUE(isa.byName("lhaux").update);
    EXPECT_FALSE(isa.byName("lbz").update);
    EXPECT_TRUE(isa.byName("stfdu").update);
}

TEST(IsaBuiltin, VsuDataQueries)
{
    const Isa &isa = builtinP7Isa();
    EXPECT_TRUE(isa.byName("stxvw4x").movesVsuData());
    EXPECT_TRUE(isa.byName("lfd").movesVsuData());
    EXPECT_FALSE(isa.byName("std").movesVsuData());
    EXPECT_TRUE(isa.byName("xvmaddadp").isFpVector());
    EXPECT_FALSE(isa.byName("xvmaddadp").isMemory());
}

TEST(IsaBuiltin, PrivilegedMarked)
{
    const Isa &isa = builtinP7Isa();
    EXPECT_TRUE(isa.byName("mtmsr").privileged);
    EXPECT_TRUE(isa.byName("tlbie").privileged);
    EXPECT_FALSE(isa.byName("add").privileged);
}

TEST(IsaBuiltin, PrefetchMarked)
{
    EXPECT_TRUE(builtinP7Isa().byName("dcbt").prefetch);
    EXPECT_TRUE(builtinP7Isa().byName("dcbtst").prefetch);
}

TEST(IsaBuiltin, EncodingsAreUnique)
{
    const Isa &isa = builtinP7Isa();
    std::set<uint32_t> encs;
    for (const auto &d : isa.all())
        EXPECT_TRUE(encs.insert(d.encoding).second)
            << d.name << " shares an encoding";
}

TEST(Isa, AddRejectsDuplicates)
{
    Isa isa("x");
    InstrDef d;
    d.name = "dup";
    isa.add(d);
    EXPECT_EXIT(isa.add(d), testing::ExitedWithCode(1), "duplicate");
}

TEST(IsaCandidates, NamedSetsAreThePreCannedQueries)
{
    const Isa &isa = builtinP7Isa();
    EXPECT_EQ(isa.candidates("loads", "--class"), isa.loads());
    EXPECT_EQ(isa.candidates("stores", "--class"), isa.stores());
    EXPECT_EQ(isa.candidates("memory", "--class"), isa.memoryOps());
    EXPECT_EQ(isa.candidates("integer", "--class"), isa.integerOps());
    EXPECT_EQ(isa.candidates("fpvector", "--class"), isa.fpVectorOps());
}

TEST(IsaCandidates, AllExcludesPrivilegedAndBranches)
{
    const Isa &isa = builtinP7Isa();
    auto all = isa.candidates("all", "--class");
    std::set<Isa::OpIndex> in(all.begin(), all.end());
    ASSERT_FALSE(isa.branches().empty());
    for (size_t i = 0; i < isa.size(); ++i) {
        auto op = static_cast<Isa::OpIndex>(i);
        const InstrDef &d = isa.at(op);
        EXPECT_EQ(in.count(op) == 1, !d.privileged && !d.isBranch())
            << d.name;
    }
    EXPECT_EQ(in.count(isa.find("mtmsr")), 0u);
    EXPECT_EQ(in.count(isa.find("add")), 1u);
}

TEST(IsaCandidates, MnemonicList)
{
    const Isa &isa = builtinP7Isa();
    std::vector<Isa::OpIndex> want = {isa.find("add"), isa.find("mulld"),
                                      isa.find("add")};
    EXPECT_EQ(isa.candidates("add, mulld,add", "--class"), want);
}

TEST(IsaCandidatesDeath, UnknownMnemonicFatal)
{
    EXPECT_EXIT(builtinP7Isa().candidates("add,nosuch", "--class"),
                testing::ExitedWithCode(1),
                "unknown instruction in --class 'add,nosuch'");
}
