/**
 * @file
 * mprobe-gen: generate micro-benchmarks from the command line.
 *
 *   mprobe-gen --arch POWER7 --class loads --mem 0.33,0.33,0.34,0 \
 *              --dep random:1:32 --count 10 --out ./out
 *
 * Produces `ubench-<n>.c` files (and optionally runs each one on
 * the simulated machine to report its counters).
 */

#include <iostream>

#include "campaign/spec.hh"
#include "microprobe/emitter.hh"
#include "microprobe/passes.hh"
#include "microprobe/synthesizer.hh"
#include "util/args.hh"
#include "util/logging.hh"
#include "util/str.hh"

using namespace mprobe;

int
main(int argc, char **argv)
{
    ArgParser args;
    args.addOption("arch", "POWER7", "target architecture name");
    args.addOption("class", "integer",
                   "candidate set: loads|stores|memory|integer|"
                   "fpvector|all or comma-separated mnemonics");
    args.addOption("size", "4096", "loop body size");
    args.addOption("mem", "",
                   "L1,L2,L3,MEM hit distribution for memory ops "
                   "(e.g. 0.33,0.33,0.34,0)");
    args.addOption("dep", "random:1:32",
                   "dependency distances: none|chain|fixed:N|"
                   "random:LO:HI");
    args.addOption("data", "random",
                   "register/immediate init: zero|pattern|random");
    args.addOption("count", "1", "number of benchmarks");
    args.addOption("seed", "1", "generation seed");
    args.addOption("out", ".", "output directory");
    args.addFlag("run", "also run each benchmark (1 core, SMT-1) "
                        "and print counters");
    args.addFlag("quiet", "suppress status messages");
    args.parse(argc, argv,
               "Generate MicroProbe micro-benchmarks as C files.");

    if (args.getFlag("quiet"))
        setLogLevel(LogLevel::Quiet);

    Architecture arch = Architecture::get(args.get("arch"));
    auto cands = arch.isa().candidates(args.get("class"), "--class");

    DataPattern pat = DataPattern::Random;
    if (args.get("data") == "zero")
        pat = DataPattern::Zero;
    else if (args.get("data") == "pattern")
        pat = DataPattern::Alt01;
    else if (args.get("data") != "random")
        fatal("--data must be zero|pattern|random");

    Synthesizer synth(arch, parseUint64(args.get("seed"), "--seed"));
    synth.addPass<SkeletonPass>(parseBodySize(args.get("size"), "--size"));
    synth.addPass<InstructionMixPass>(cands);
    if (!args.get("mem").empty()) {
        auto f = split(args.get("mem"), ',');
        if (f.size() != 4)
            fatal("--mem needs four comma-separated shares");
        MemDistribution d{parseDouble(f[0], "--mem"),
                          parseDouble(f[1], "--mem"),
                          parseDouble(f[2], "--mem"),
                          parseDouble(f[3], "--mem")};
        synth.addPass<MemoryModelPass>(d);
    }
    synth.addPass<RegisterInitPass>(pat);
    synth.addPass<ImmediateInitPass>(pat);
    synth.add(std::make_unique<DependencyDistancePass>(
        DependencyDistancePass::parse(args.get("dep"), "--dep")));

    Machine machine = arch.machine();
    const long count = args.getInt("count");
    if (count < 1)
        fatal("--count must be >= 1");
    for (long i = 1; i <= count; ++i) {
        Program p = synth.synthesize();
        std::string path =
            args.get("out") + "/" + p.name + ".c";
        saveC(p, path);
        std::cout << "wrote " << path << "\n";
        if (args.getFlag("run")) {
            RunResult r = machine.run(p, ChipConfig{1, 1});
            double tot = r.chip.l1Hits + r.chip.l2Hits +
                         r.chip.l3Hits + r.chip.memAcc;
            std::cout << "  ipc " << r.coreIpc << "  power "
                      << r.sensorWatts << " W";
            if (tot > 0)
                std::cout << "  L1/L2/L3/MEM "
                          << r.chip.l1Hits / tot << "/"
                          << r.chip.l2Hits / tot << "/"
                          << r.chip.l3Hits / tot << "/"
                          << r.chip.memAcc / tot;
            std::cout << "\n";
        }
    }
    return 0;
}
