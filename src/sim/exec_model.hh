/**
 * @file
 * Ground-truth execution and energy model of the simulated machine.
 *
 * This is the "silicon": per-instruction timing (latency, issue
 * interval, pipe usage) and per-instruction energy, including effects
 * that the counter-based estimators cannot observe directly —
 * per-instruction energy idiosyncrasies within a unit category and
 * data-dependent switching energy. MicroProbe never reads this
 * module; it can only discover its behaviour through performance
 * counters and the power sensor, exactly as the paper's framework
 * can only measure a real POWER7.
 */

#ifndef SIM_EXEC_MODEL_HH
#define SIM_EXEC_MODEL_HH

#include <cstdint>
#include <vector>

#include "isa/isa.hh"
#include "sim/program.hh"

namespace mprobe
{

/** Functional units of the simulated core. */
enum class Unit : int
{
    FXU = 0, //!< fixed point unit
    LSU = 1, //!< load/store unit
    VSU = 2, //!< vector-scalar unit
    BRU = 3, //!< branch unit
    CRU = 4, //!< condition register unit
    NumUnits = 5
};

constexpr int kNumUnits = static_cast<int>(Unit::NumUnits);

/** Unit name for messages and counter mapping. */
const char *unitName(Unit u);

/** Resolved ground-truth execution properties of one opcode. */
struct ExecInfo
{
    /** Bitmask of units whose pipes may execute the primary op. */
    uint32_t allowedUnits = 0;
    /** Pipes simultaneously occupied on the chosen unit. */
    int pipesNeeded = 1;
    /** Cycles a pipe stays occupied per op (may be fractional). */
    double issueInterval = 1.0;
    /** Result latency in cycles (memory ops override per level). */
    int latency = 1;
    /**
     * Extra fixed-point micro-operations (address update and/or sign
     * extension) issued alongside a memory op. They occupy FXU pipe
     * bandwidth and count toward the FXU activity counter.
     */
    int extraFxuOps = 0;
    /** Memory op moving VSU-domain data (occupies one VSU pipe). */
    bool usesVsuSteering = false;
    /** Performs a data-cache access. */
    bool isMem = false;
    /** Memory write (no result latency). */
    bool isStore = false;
    /** Base dynamic energy per op in nanojoules (hidden). */
    double energyNj = 0.0;
    /** Fraction of energyNj that scales with data activity. */
    double toggleSens = 0.3;

    /** True when @p u may execute the primary op. */
    bool
    allows(Unit u) const
    {
        return allowedUnits & (1u << static_cast<int>(u));
    }
};

/**
 * Precomputed ExecInfo for every opcode of an ISA.
 *
 * Built from class rules plus a curated per-mnemonic table for the
 * instructions the paper names, plus a deterministic per-mnemonic
 * energy jitter for everything else (real silicon shows large EPI
 * spreads within a category; Section 5 reports up to 78%).
 */
class ExecModel
{
  public:
    explicit ExecModel(const Isa &isa);

    /** Ground truth record for an opcode index. */
    const ExecInfo &info(int op) const;

    /**
     * Decode @p prog into its structure-of-arrays form for
     * simulateCoreDecoded, baking the two CoreSimOptions knobs
     * that enter per-instruction constants. The result holds one
     * slot range, which every hardware thread runs. @p out is
     * reused (its vectors keep their capacity), so a caller
     * decoding many programs through one DecodedProgram performs no
     * steady-state allocation.
     */
    void decode(const Program &prog, int mispredict_penalty,
                double transition_gate_nj,
                DecodedProgram &out) const;

    /**
     * Decode a heterogeneous SMT co-run: @p thread_progs[i] becomes
     * hardware thread i's slot range of @p out. A single program
     * decodes exactly as the one-program overload does.
     */
    void decode(const std::vector<const Program *> &thread_progs,
                int mispredict_penalty, double transition_gate_nj,
                DecodedProgram &out) const;

    /** Number of pipes of each unit on one core. */
    static int pipes(Unit u);

    /** Core dispatch width (instructions per cycle, all threads). */
    static constexpr int dispatchWidth = 6;

    /** Load-to-use latency per hit level (L1, L2, L3; memory is
     * configuration dependent and supplied by the machine). */
    static constexpr int loadToUse[3] = {2, 8, 26};

    /** Baseline main-memory latency in cycles (no contention). */
    static constexpr int memLatencyBase = 220;

  private:
    std::vector<ExecInfo> table;
};

} // namespace mprobe

#endif // SIM_EXEC_MODEL_HH
