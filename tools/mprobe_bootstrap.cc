/**
 * @file
 * mprobe-bootstrap: characterize an architecture and write the
 * completed micro-architecture definition file.
 *
 *   mprobe-bootstrap --arch POWER7 --out power7-full.uarch
 *
 * Runs the automatic bootstrap (two probing micro-benchmarks per
 * instruction; Section 2.1.2) and serializes the definition with
 * all discovered per-instruction properties, which later runs can
 * load with UarchDef::fromFile instead of re-measuring.
 */

#include <fstream>
#include <iostream>

#include "campaign/spec.hh"
#include "microprobe/bootstrap.hh"
#include "util/args.hh"
#include "util/logging.hh"

using namespace mprobe;

int
main(int argc, char **argv)
{
    ArgParser args;
    args.addOption("arch", "POWER7", "target architecture name");
    args.addOption("size", "2048",
                   "probe micro-benchmark body size");
    args.addOption("cores", "8", "measurement cores");
    args.addOption("smt", "1", "measurement SMT mode");
    args.addOption("out", "",
                   "output definition file (default: stdout)");
    args.addFlag("quiet", "suppress status messages");
    args.parse(argc, argv,
               "Bootstrap a micro-architecture definition by "
               "measurement.");

    if (args.getFlag("quiet"))
        setLogLevel(LogLevel::Quiet);

    Architecture arch = Architecture::get(args.get("arch"));
    Machine machine = arch.machine();

    BootstrapOptions bo;
    bo.bodySize = parseBodySize(args.get("size"), "--size");
    bo.config = parseConfig(cat(args.get("cores"), "-", args.get("smt")),
                            "--cores/--smt");
    auto entries = bootstrapArchitecture(arch, machine, bo);
    std::cerr << "characterized " << entries.size()
              << " instructions\n";

    std::string text = arch.uarch().toText();
    if (args.get("out").empty()) {
        std::cout << text;
    } else {
        std::ofstream f(args.get("out"));
        if (!f)
            fatal(cat("cannot write '", args.get("out"), "'"));
        f << text;
        f.close();
        if (!f)
            fatal(cat("short write to '", args.get("out"), "'"));
        std::cerr << "wrote " << args.get("out") << "\n";
    }
    return 0;
}
