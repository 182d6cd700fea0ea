/**
 * @file
 * Tests for the C / assembly emitter.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "microprobe/emitter.hh"
#include "microprobe/passes.hh"
#include "microprobe/synthesizer.hh"
#include "util/logging.hh"

using namespace mprobe;

namespace
{

Program
sampleProgram()
{
    Architecture a = Architecture::get("POWER7");
    Synthesizer s(a, 77);
    s.addPass<SkeletonPass>(32);
    s.addPass<InstructionMixPass>(
        std::vector<Isa::OpIndex>{a.isa().find("add"),
                                  a.isa().find("lbz"),
                                  a.isa().find("xvmaddadp")});
    s.addPass<MemoryModelPass>(MemDistribution{1, 0, 0, 0});
    s.add(std::make_unique<DependencyDistancePass>(
        DependencyDistancePass::fixed(2)));
    return s.synthesize("emit-test");
}

} // namespace

TEST(Emitter, AsmHasOneLinePerInstruction)
{
    Program p = sampleProgram();
    std::string asm_text = emitAsm(p);
    size_t lines = 0;
    std::istringstream in(asm_text);
    std::string l;
    while (std::getline(in, l))
        ++lines;
    EXPECT_EQ(lines, p.body.size());
}

TEST(Emitter, AsmMentionsMnemonics)
{
    Program p = sampleProgram();
    std::string s = emitAsm(p);
    EXPECT_NE(s.find("bdnz"), std::string::npos);
    // At least one of the mix instructions appears.
    EXPECT_TRUE(s.find("add") != std::string::npos ||
                s.find("lbz") != std::string::npos ||
                s.find("xvmaddadp") != std::string::npos);
}

TEST(Emitter, VectorOpsUseVsrNames)
{
    Architecture a = Architecture::get("POWER7");
    Synthesizer s(a, 5);
    s.addPass<SkeletonPass>(8);
    s.addPass<SequencePass>(
        std::vector<Isa::OpIndex>{a.isa().find("xvmaddadp")});
    Program p = s.synthesize("v");
    EXPECT_NE(emitAsm(p).find("vs"), std::string::npos);
}

TEST(Emitter, MemoryOpsAnnotatedWithStream)
{
    Program p = sampleProgram();
    EXPECT_NE(emitAsm(p).find("# stream"), std::string::npos);
}

TEST(Emitter, CFileIsSelfContained)
{
    Program p = sampleProgram();
    std::string c = emitC(p);
    EXPECT_NE(c.find("#include <stdint.h>"), std::string::npos);
    EXPECT_NE(c.find("__asm__ volatile"), std::string::npos);
    EXPECT_NE(c.find("for (;;)"), std::string::npos);
    EXPECT_NE(c.find("emit-test"), std::string::npos);
    EXPECT_NE(c.find("stream0"), std::string::npos);
}

TEST(Emitter, SaveWritesFile)
{
    Program p = sampleProgram();
    std::string path = testing::TempDir() + "/emit-test.c";
    saveC(p, path);
    std::ifstream f(path);
    ASSERT_TRUE(f.good());
    std::ostringstream os;
    os << f.rdbuf();
    EXPECT_EQ(os.str(), emitC(p));
    std::remove(path.c_str());
}

TEST(Emitter, SaveShortWriteIsFatal)
{
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full on this platform";
    Program p = sampleProgram();
    ScopedFatalThrows guard;
    EXPECT_THROW(saveC(p, "/dev/full"), FatalError);
}

TEST(Emitter, DependencyMaterializedAsRegisterReuse)
{
    // A chain (dep distance 1) must reuse the previous result
    // register as the first source.
    Architecture a = Architecture::get("POWER7");
    Synthesizer s(a, 6);
    s.addPass<SkeletonPass>(8);
    s.addPass<SequencePass>(
        std::vector<Isa::OpIndex>{a.isa().find("add")});
    s.add(std::make_unique<DependencyDistancePass>(
        DependencyDistancePass::chain()));
    Program p = s.synthesize("chain");
    std::string asm_text = emitAsm(p);
    // add r<k+1>, r<k>, ... pattern: the dest of line k appears in
    // line k+1. Spot-check: "add r3, r2" appears for slots 0->1.
    EXPECT_NE(asm_text.find("add r3, r2"), std::string::npos)
        << asm_text;
}
