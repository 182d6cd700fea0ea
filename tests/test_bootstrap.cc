/**
 * @file
 * Tests for the automatic bootstrap process (paper Section 2.1.2):
 * latency, throughput, stressed-unit and EPI discovery through
 * measurement only.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "microprobe/bootstrap.hh"

using namespace mprobe;

namespace
{

struct Fixture
{
    Architecture arch = Architecture::get("POWER7");
    Machine machine{arch.isa()};
    BootstrapOptions opts;

    Fixture()
    {
        opts.bodySize = 1024; // faster than 4K, same steady state
    }

    BootstrapEntry
    probe(const std::string &name)
    {
        return bootstrapInstruction(arch, machine,
                                    arch.isa().find(name), opts);
    }
};

bool
hasUnit(const BootstrapEntry &e, const std::string &u)
{
    return std::find(e.units.begin(), e.units.end(), u) !=
           e.units.end();
}

} // namespace

TEST(Bootstrap, AddDiscovered)
{
    Fixture f;
    auto e = f.probe("add");
    EXPECT_NEAR(e.latency, 1.0, 0.1);
    EXPECT_NEAR(e.throughput, 3.5, 0.15);
    EXPECT_TRUE(hasUnit(e, "FXU"));
    EXPECT_TRUE(hasUnit(e, "LSU")); // dual-issue simple integer
    EXPECT_GT(e.epiNj, 0.0);
    EXPECT_GT(e.powerWatts, 0.0);
}

TEST(Bootstrap, MulldoDiscovered)
{
    Fixture f;
    auto e = f.probe("mulldo");
    EXPECT_NEAR(e.latency, 4.0, 0.3);
    EXPECT_NEAR(e.throughput, 1.4, 0.1);
    EXPECT_TRUE(hasUnit(e, "FXU"));
    EXPECT_FALSE(hasUnit(e, "LSU"));
    EXPECT_FALSE(hasUnit(e, "VSU"));
}

TEST(Bootstrap, LoadDiscoveredWithCacheLevel)
{
    Fixture f;
    auto e = f.probe("lbz");
    EXPECT_NEAR(e.latency, 2.0, 0.2);
    EXPECT_NEAR(e.throughput, 1.68, 0.1);
    EXPECT_TRUE(hasUnit(e, "LSU"));
    EXPECT_TRUE(hasUnit(e, "L1"));
    EXPECT_FALSE(hasUnit(e, "FXU"));
}

TEST(Bootstrap, UpdateFormsReportExtraFxu)
{
    Fixture f;
    auto ldux = f.probe("ldux");
    EXPECT_TRUE(hasUnit(ldux, "LSU"));
    EXPECT_TRUE(hasUnit(ldux, "FXU"));

    // Algebraic + update: two FXU micro-ops -> "2FXU".
    auto lhaux = f.probe("lhaux");
    EXPECT_TRUE(hasUnit(lhaux, "LSU"));
    EXPECT_TRUE(hasUnit(lhaux, "2FXU"));
}

TEST(Bootstrap, VectorStoreStressesLsuAndVsu)
{
    Fixture f;
    auto e = f.probe("stxvw4x");
    EXPECT_TRUE(hasUnit(e, "LSU"));
    EXPECT_TRUE(hasUnit(e, "VSU"));
    EXPECT_NEAR(e.throughput, 0.48, 0.08);
}

TEST(Bootstrap, VsuComputeDiscovered)
{
    Fixture f;
    auto e = f.probe("xvmaddadp");
    EXPECT_NEAR(e.latency, 6.0, 0.4);
    EXPECT_NEAR(e.throughput, 2.0, 0.1);
    EXPECT_TRUE(hasUnit(e, "VSU"));
    EXPECT_FALSE(hasUnit(e, "FXU"));
}

TEST(Bootstrap, EpiOrderingWithinFxuCategory)
{
    // Table 3, FXU category: EPI(mulldo) > EPI(subf) > EPI(addic).
    Fixture f;
    double mulldo = f.probe("mulldo").epiNj;
    double subf = f.probe("subf").epiNj;
    double addic = f.probe("addic").epiNj;
    EXPECT_GT(mulldo, subf);
    EXPECT_GT(subf, addic);
}

TEST(Bootstrap, EpiVariationWithinSameIpcPair)
{
    // xvmaddadp vs xstsqrtdp: same IPC, notably different EPI
    // (the Section-5 within-category variation).
    Fixture f;
    auto a = f.probe("xvmaddadp");
    auto b = f.probe("xstsqrtdp");
    EXPECT_NEAR(a.throughput, b.throughput, 0.1);
    EXPECT_GT(a.epiNj, 1.3 * b.epiNj);
}

TEST(Bootstrap, PropsWrittenIntoUarch)
{
    Fixture f;
    f.probe("nor");
    const InstrProps &p = f.arch.uarch().props("nor");
    EXPECT_TRUE(p.complete());
    EXPECT_NEAR(p.throughput, 3.5, 0.2);
    EXPECT_TRUE(f.arch.uarch().stresses("nor", "FXU"));
}

TEST(Bootstrap, FullSweepSkipsPrivileged)
{
    Fixture f;
    f.opts.bodySize = 256;
    auto entries = bootstrapArchitecture(f.arch, f.machine, f.opts);
    size_t priv = 0;
    for (size_t i = 0; i < f.arch.isa().size(); ++i)
        priv += f.arch.isa()
                    .at(static_cast<Isa::OpIndex>(i))
                    .privileged;
    EXPECT_EQ(entries.size(), f.arch.isa().size() - priv);
    EXPECT_EQ(f.arch.uarch().bootstrappedCount(), entries.size());
    for (const auto &e : entries) {
        EXPECT_GT(e.throughput, 0.0) << e.mnemonic;
        EXPECT_GT(e.epiNj, 0.0) << e.mnemonic;
        EXPECT_FALSE(e.units.empty()) << e.mnemonic;
    }
}

TEST(Bootstrap, SerializedUarchReloadsProps)
{
    Fixture f;
    f.probe("lxvw4x");
    std::string text = f.arch.uarch().toText();
    UarchDef reloaded = UarchDef::fromText(text, "<t>");
    EXPECT_TRUE(reloaded.props("lxvw4x").complete());
    EXPECT_NEAR(reloaded.props("lxvw4x").throughput,
                f.arch.uarch().props("lxvw4x").throughput, 1e-9);
}

TEST(Bootstrap, ThreadCountDoesNotChangeResults)
{
    // Fresh architectures and machines per run, so neither run can
    // read the other's properties or memoized simulations.
    auto sweep = [](int threads, std::string &uarch_text) {
        Architecture arch = Architecture::get("POWER7");
        Machine machine{arch.isa()};
        BootstrapOptions opts;
        opts.bodySize = 256;
        opts.threads = threads;
        auto entries = bootstrapArchitecture(arch, machine, opts);
        uarch_text = arch.uarch().toText();
        return entries;
    };
    std::string serial_text, parallel_text;
    auto serial = sweep(1, serial_text);
    auto parallel = sweep(8, parallel_text);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        const BootstrapEntry &a = serial[i], &b = parallel[i];
        EXPECT_EQ(a.mnemonic, b.mnemonic) << i;
        EXPECT_EQ(a.latency, b.latency) << a.mnemonic;
        EXPECT_EQ(a.throughput, b.throughput) << a.mnemonic;
        EXPECT_EQ(a.epiNj, b.epiNj) << a.mnemonic;
        EXPECT_EQ(a.powerWatts, b.powerWatts) << a.mnemonic;
        EXPECT_EQ(a.units, b.units) << a.mnemonic;
        EXPECT_EQ(a.unitRates, b.unitRates) << a.mnemonic;
    }
    EXPECT_EQ(serial_text, parallel_text);
}

TEST(BootstrapDeath, BadRequestFailsOnceBeforeAnyWorker)
{
    // A configuration or body size the machine cannot take fails
    // with one message, not one per worker thread: the whole
    // stderr must be that one line.
    const std::pair<ChipConfig, size_t> bad[] = {
        {{9, 1}, 256}, {{8, 3}, 256}, {{8, 1}, 1}};
    for (const auto &[config, body] : bad) {
        Architecture arch = Architecture::get("POWER7");
        Machine machine{arch.isa()};
        BootstrapOptions opts;
        opts.config = config;
        opts.bodySize = body;
        opts.threads = 4;
        EXPECT_EXIT(bootstrapArchitecture(arch, machine, opts),
                    testing::ExitedWithCode(1),
                    "^fatal: bootstrap: [^\n]*\n$")
            << config.label() << " body " << body;
    }
}
