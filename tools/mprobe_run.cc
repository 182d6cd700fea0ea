/**
 * @file
 * mprobe-run: deploy a generated benchmark across configurations
 * and print the measured counters and power, one row per
 * configuration — the measurement loop of Section 3 as a tool.
 *
 *   mprobe-run --class fpvector --dep none --configs 1-1,8-4
 */

#include <iostream>

#include "campaign/spec.hh"
#include "microprobe/passes.hh"
#include "microprobe/synthesizer.hh"
#include "util/args.hh"
#include "util/logging.hh"
#include "util/str.hh"
#include "util/table.hh"

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
    args.addOption("dep", "none",
                   "dependency distances: none|chain|fixed:N|"
                   "random:LO:HI");
    args.addOption("configs", "all",
                   "comma-separated cores-smt list (e.g. 1-1,8-4) "
                   "or 'all' for the 24 paper configurations");
    args.addOption("seed", "1", "generation seed");
    args.addFlag("quiet", "suppress status messages");
    args.parse(argc, argv,
               "Run a generated micro-benchmark across CMP/SMT "
               "configurations.");

    if (args.getFlag("quiet"))
        setLogLevel(LogLevel::Quiet);

    Architecture arch = Architecture::get(args.get("arch"));
    Machine machine = arch.machine();
    std::vector<ChipConfig> configs =
        parseConfigList(args.get("configs"), "--configs");

    Synthesizer synth(arch, parseUint64(args.get("seed"), "--seed"));
    synth.addPass<SkeletonPass>(parseBodySize(args.get("size"), "--size"));
    synth.addPass<InstructionMixPass>(
        arch.isa().candidates(args.get("class"), "--class"));
    synth.addPass<MemoryModelPass>(MemDistribution{1, 0, 0, 0});
    synth.addPass<RegisterInitPass>(DataPattern::Random);
    synth.add(std::make_unique<DependencyDistancePass>(
        DependencyDistancePass::parse(args.get("dep"), "--dep")));
    Program p = synth.synthesize("mprobe-run");

    TextTable t({"Config", "IPC", "Power(W)", "Ginstr/s", "L1",
                 "L2", "L3", "MEM"});
    for (const auto &cfg : configs) {
        RunResult r = machine.run(p, cfg);
        double tot = r.chip.l1Hits + r.chip.l2Hits +
                     r.chip.l3Hits + r.chip.memAcc;
        auto share = [&](double v) {
            return tot > 0 ? TextTable::num(v / tot, 2) : "-";
        };
        t.addRow({cfg.label(), TextTable::num(r.coreIpc, 2),
                  TextTable::num(r.sensorWatts, 2),
                  TextTable::num(r.rate(r.chip.instrs) / 1e9, 2),
                  share(r.chip.l1Hits), share(r.chip.l2Hits),
                  share(r.chip.l3Hits), share(r.chip.memAcc)});
    }
    t.print(std::cout);
    return 0;
}
