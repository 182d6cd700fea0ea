/**
 * @file
 * Automatic micro-architecture bootstrap (paper Section 2.1.2).
 *
 * Completes a partial micro-architecture definition by measurement.
 * For every instruction of the ISA, two micro-benchmarks are
 * generated: an endless loop of 4K instances with a dependency chain
 * between consecutive instructions, and the same loop with no
 * dependencies. Running both and reading the per-unit counters, IPC
 * and the power sensor yields the instruction's latency (from the
 * chained IPC), throughput (from the independent IPC), the units it
 * stresses (from the unit counters) and its EPI and average
 * sustained power (from the sensor, with random data to make
 * comparisons fair, after Tiwari et al.).
 */

#ifndef MICROPROBE_BOOTSTRAP_HH
#define MICROPROBE_BOOTSTRAP_HH

#include <string>
#include <vector>

#include "microprobe/arch.hh"
#include "sim/machine.hh"

namespace mprobe
{

/** Bootstrap controls. */
struct BootstrapOptions
{
    /** Loop body size of the probing micro-benchmarks. */
    size_t bodySize = 4096;
    /** Configuration to measure on (the paper's Section-5 results
     * are for the 8-core SMT-1 configuration). */
    ChipConfig config{8, 1};
    /** Unit-counter rate per instruction above which the unit is
     * considered stressed (0.35 so dual-issue simple integers
     * report both FXU and LSU). */
    double unitThreshold = 0.35;
    /** Skip privileged instructions (not runnable in user mode). */
    bool skipPrivileged = true;
    /** RNG seed for the probing benchmarks. */
    uint64_t seed = 0xb0075ull;
    /**
     * Worker threads for the measurements, with
     * SuiteOptions::threads semantics. Each instruction's probes
     * derive their randomness from the seed and the opcode alone
     * and read the architecture without changing it, so any thread
     * count produces the bit-identical result; 0 = one worker per
     * hardware thread, 1 = serial reference.
     */
    int threads = 0;
};

/** Per-instruction bootstrap record (also written into the uarch). */
struct BootstrapEntry
{
    std::string mnemonic;
    double latency = 0.0;
    double throughput = 0.0;   //!< sustained core IPC, no deps
    double epiNj = 0.0;        //!< measured energy per instruction
    double powerWatts = 0.0;   //!< dynamic (above idle) power
    std::vector<std::string> units;
    /** Per-unit finish rate per instruction for every stressed
     * unit, parallel to units (distinguishes "FXU or LSU" ops,
     * whose rates split below 1, from "LSU and FXU" ops). */
    std::vector<double> unitRates;
};

/**
 * Run the bootstrap over every ISA instruction and fill the
 * architecture's per-instruction properties. The instructions are
 * measured on opts.threads workers; the properties are then
 * written on the caller's thread, in ISA order.
 *
 * @return one entry per characterized instruction, in ISA order.
 */
std::vector<BootstrapEntry>
bootstrapArchitecture(Architecture &arch, const Machine &machine,
                      const BootstrapOptions &opts =
                          BootstrapOptions());

/**
 * Characterize a single instruction and record its properties in
 * the architecture (used by tests and by targeted re-probing).
 */
BootstrapEntry bootstrapInstruction(
    Architecture &arch, const Machine &machine, Isa::OpIndex op,
    const BootstrapOptions &opts = BootstrapOptions());

} // namespace mprobe

#endif // MICROPROBE_BOOTSTRAP_HH
