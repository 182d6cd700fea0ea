/**
 * @file
 * Bootstrap implementation.
 */

#include "microprobe/bootstrap.hh"

#include <cmath>

#include "campaign/queue.hh"
#include "microprobe/passes.hh"
#include "microprobe/synthesizer.hh"
#include "util/logging.hh"

namespace mprobe
{

namespace
{

/** Build the probing micro-benchmark for one instruction. */
Program
probeBench(const Architecture &arch, Isa::OpIndex op, bool chained,
           const BootstrapOptions &opts)
{
    const InstrDef &d = arch.isa().at(op);
    Synthesizer synth(arch, opts.seed ^ static_cast<uint64_t>(op));
    synth.addPass<SkeletonPass>(opts.bodySize);
    synth.addPass<SequencePass>(std::vector<Isa::OpIndex>{op});
    if (d.isMemory() || d.prefetch) {
        // Probe benchmarks keep all accesses in the L1 so timing
        // and energy reflect the instruction, not the hierarchy.
        synth.addPass<MemoryModelPass>(MemDistribution{1, 0, 0, 0});
    }
    // Random data minimizes data-switching bias, "allowing fair
    // comparison between instructions" (Section 2.1.2).
    synth.addPass<RegisterInitPass>(DataPattern::Random);
    synth.addPass<ImmediateInitPass>(DataPattern::Random);
    if (chained)
        synth.add(std::make_unique<DependencyDistancePass>(
            DependencyDistancePass::chain()));
    else
        synth.add(std::make_unique<DependencyDistancePass>(
            DependencyDistancePass::none()));
    return synth.synthesize(
        cat("bootstrap-", d.name, chained ? "-chain" : "-free"));
}

/**
 * The measure step: synthesize and run one instruction's probes.
 * Reads @p arch without changing it, so instructions can be
 * measured concurrently.
 */
BootstrapEntry
measureInstruction(const Architecture &arch, const Machine &machine,
                   Isa::OpIndex op, const BootstrapOptions &opts)
{
    const InstrDef &d = arch.isa().at(op);

    Program chain = probeBench(arch, op, true, opts);
    Program free = probeBench(arch, op, false, opts);

    RunResult r_chain = machine.run(chain, opts.config);
    RunResult r_free = machine.run(free, opts.config);
    double idle = machine.idleWatts(opts.config);

    BootstrapEntry e;
    e.mnemonic = d.name;

    // Chained consecutive instances expose the result latency.
    double ipc_chain = r_chain.coreIpc;
    e.latency = ipc_chain > 1e-9 ? 1.0 / ipc_chain : 0.0;
    // Independent instances expose the sustained throughput.
    e.throughput = r_free.coreIpc;

    // Units stressed: per-unit finish rate per instruction.
    double instrs = std::max(r_free.chip.instrs, 1.0);
    auto rate = [&](double ops) { return ops / instrs; };
    struct UnitRate
    {
        const char *name;
        double r;
    };
    const UnitRate unit_rates[] = {
        {"FXU", rate(r_free.chip.fxuOps)},
        {"LSU", rate(r_free.chip.lsuOps)},
        {"VSU", rate(r_free.chip.vsuOps)},
        {"BRU", rate(r_free.chip.bruOps)},
        {"CRU", rate(r_free.chip.cruOps)},
    };
    for (const auto &ur : unit_rates) {
        if (ur.r < opts.unitThreshold)
            continue;
        long mult = std::lround(ur.r);
        if (mult >= 2)
            e.units.push_back(cat(mult, ur.name));
        else
            e.units.push_back(ur.name);
        e.unitRates.push_back(ur.r);
    }
    const UnitRate level_rates[] = {
        {"L1", rate(r_free.chip.l1Hits)},
        {"L2", rate(r_free.chip.l2Hits)},
        {"L3", rate(r_free.chip.l3Hits)},
        {"MEM", rate(r_free.chip.memAcc)},
    };
    for (const auto &lr : level_rates) {
        if (lr.r >= opts.unitThreshold) {
            e.units.push_back(lr.name);
            e.unitRates.push_back(lr.r);
        }
    }

    // EPI and sustained power from the sensor (dynamic = above
    // idle), using the dependency-free version (Section 2.1.2).
    e.powerWatts = std::max(r_free.sensorWatts - idle, 0.0);
    double instr_rate = r_free.rate(r_free.chip.instrs);
    e.epiNj =
        instr_rate > 0 ? e.powerWatts / instr_rate * 1e9 : 0.0;
    return e;
}

/** The record step: write @p e into the micro-architecture
 * definition. */
void
recordInstruction(Architecture &arch, const BootstrapEntry &e)
{
    InstrProps &p = arch.uarchMut().propsMut(e.mnemonic);
    p.latency = e.latency;
    p.throughput = e.throughput;
    p.epi = e.epiNj;
    p.avgPower = e.powerWatts;
    p.units = e.units;
}

} // namespace

BootstrapEntry
bootstrapInstruction(Architecture &arch, const Machine &machine,
                     Isa::OpIndex op, const BootstrapOptions &opts)
{
    BootstrapEntry e = measureInstruction(arch, machine, op, opts);
    recordInstruction(arch, e);
    return e;
}

std::vector<BootstrapEntry>
bootstrapArchitecture(Architecture &arch, const Machine &machine,
                      const BootstrapOptions &opts)
{
    // Checked here, not by each worker's first run, so a bad
    // request fails once.
    if (!opts.config.valid())
        fatal(cat("bootstrap: bad configuration ", opts.config.label(),
                  " (want 1-8 cores and SMT 1, 2 or 4)"));
    if (opts.bodySize < 2)
        fatal(cat("bootstrap: body size ", opts.bodySize,
                  " is below 2"));
    std::vector<Isa::OpIndex> ops;
    for (size_t i = 0; i < arch.isa().size(); ++i) {
        auto op = static_cast<Isa::OpIndex>(i);
        if (!(opts.skipPrivileged && arch.isa().at(op).privileged))
            ops.push_back(op);
    }
    // Measure every instruction on the pool (each writes only its
    // own slot), then record on this thread: no worker ever sees
    // the definition change under it.
    std::vector<BootstrapEntry> out(ops.size());
    parallelFor(
        resolveThreads(opts.threads, "bootstrap"), ops.size(),
        [&](size_t i) {
            out[i] = measureInstruction(arch, machine, ops[i], opts);
        },
        "bootstrap");
    for (const BootstrapEntry &e : out)
        recordInstruction(arch, e);
    inform(cat("bootstrap: characterized ", out.size(), " of ",
               arch.isa().size(), " instructions"));
    return out;
}

} // namespace mprobe
