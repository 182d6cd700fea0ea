/**
 * @file
 * Cycle-level SMT core model.
 *
 * An in-order, multi-issue core: up to dispatchWidth instructions
 * issue per cycle across the active hardware threads, constrained by
 * register dependencies (scoreboard), functional-unit pipe
 * availability (fractional issue intervals via a token scheme), and
 * the cache hierarchy for memory operations. All SMT threads of the
 * paper's deployments run the same micro-benchmark, one copy pinned
 * per hardware thread, so the core executes nThreads copies of one
 * Program against a shared cache hierarchy; a heterogeneous co-run
 * gives each hardware thread its own Program instead.
 *
 * One engine runs every simulation: simulateCoreDecoded, over the
 * structure-of-arrays DecodedProgram. simulateCore and
 * simulateCoreHetero validate their programs, decode them and call
 * it. Its cycle loop is compiled once per SMT width (1, 2 and 4)
 * and per memory path: the live path walks the cache hierarchy,
 * the traced path reads each access's hit level from the
 * program's AccessTrace. A stalled thread is not probed again
 * before its wake time, and the stall-skip target is computed only
 * in steps where nothing issued; both skips are exact under the
 * scheduler invariants in docs/MODEL.md.
 *
 * Because every micro-benchmark is an endless loop, the core reaches
 * a periodic steady state; the simulator warms up for a few
 * iterations and then measures a window of whole iterations, which is
 * what a 10-second wall-clock measurement of the real machine
 * observes (Section 3).
 */

#ifndef SIM_CORE_HH
#define SIM_CORE_HH

#include <memory>

#include "sim/arena.hh"
#include "sim/cache.hh"
#include "sim/counters.hh"
#include "sim/exec_model.hh"
#include "sim/program.hh"

namespace mprobe
{

/** Steady-state result of running a program on one core. */
struct CoreResult
{
    /** Counter deltas over the measurement window (all threads). */
    RunCounters window;
    /** Loop iterations measured per thread. */
    int iterations = 0;
    /** Hardware threads that ran. */
    int threads = 0;
};

/** Tunable knobs of a core simulation. */
struct CoreSimOptions
{
    /** Main-memory latency in cycles (contention-adjusted). */
    int memLatency = ExecModel::memLatencyBase;
    /** Cache geometries (L1, L2, L3); empty selects the default
     * POWER7-like hierarchy. */
    std::vector<CacheGeometry> cacheGeoms;
    /** Warm-up loop iterations per thread before measuring. */
    int warmupIters = 3;
    /** Measured loop iterations per thread. */
    int measureIters = 6;
    /** Enable the next-line hardware prefetcher. */
    bool prefetch = true;
    /** Mispredict penalty in cycles for conditional branches. */
    int mispredictPenalty = 12;
    /** Per-cycle unit-overlap energy coefficient (nJ), hidden. */
    double overlapNjPerCycle = 0.30;
    /** Per-instruction unit-transition energy (nJ), hidden: the
     * bypass network toggles when consecutive instructions of a
     * thread execute on different units. Only *high-energy* pairs
     * (both above transitionGateNj) pay it — wide operands through
     * long cross-unit bypass wires — which is why instruction
     * order matters most for stressmark-class code built from the
     * hottest instructions (Section 6's 17% spread) while ordinary
     * mixed workloads barely expose it. */
    double transitionNjPerInstr = 0.85;
    /** Both instructions of a transition must exceed this energy
     * for the transition cost to apply (hidden). */
    double transitionGateNj = 1.60;
};

/**
 * Simulate @p threads copies of @p prog on one core (decode, then
 * simulateCoreDecoded).
 *
 * @param exec ground-truth timing/energy tables for prog's ISA
 * @param prog the micro-benchmark loop
 * @param threads SMT ways running copies (1, 2 or 4)
 * @param opts simulation knobs
 */
CoreResult simulateCore(const ExecModel &exec, const Program &prog,
                        int threads,
                        const CoreSimOptions &opts = CoreSimOptions());

/**
 * Simulate a *heterogeneous* SMT deployment: one (possibly
 * different) program per hardware thread — the multi-threaded
 * stressmark exploration the paper leaves as future work (Section
 * 6, after Ganesan et al.'s MAMPO). All programs must share one
 * ISA; 1, 2 or 4 threads. The programs decode into one
 * DecodedProgram with a slot range per thread, so a co-run takes
 * the same engine as simulateCore: passing one program N times
 * yields exactly simulateCore(exec, prog, N, opts).
 */
CoreResult simulateCoreHetero(
    const ExecModel &exec,
    const std::vector<const Program *> &thread_progs,
    const CoreSimOptions &opts = CoreSimOptions());

/**
 * Reusable per-thread scratch state of the decoded simulator: the
 * bump arena behind all per-simulation arrays and a retained cache
 * hierarchy that is reset (not reconstructed) between simulations
 * sharing one geometry. One SimScratch must not be used from two
 * threads at once; Machine keeps one per thread, which run() and
 * every Machine::Batch on that thread share.
 */
class SimScratch
{
  public:
    /**
     * The retained hierarchy for (@p geoms, @p prefetch), reset
     * and ready for a fresh simulation. A geometry change rebuilds
     * it; the steady state of a campaign (one machine, one
     * geometry) never does.
     */
    CacheHierarchy &cache(const std::vector<CacheGeometry> &geoms,
                          bool prefetch);

    /** Arena for the per-simulation arrays. */
    SimArena arena;

  private:
    std::unique_ptr<CacheHierarchy> hier;
    std::vector<CacheGeometry> hierGeoms;
    bool hierPrefetch = true;
};

/**
 * The hit level of every demand access one hardware thread of a
 * single-program decode makes, in that thread's program order, for
 * warmupIters + measureIters + 1 loop iterations. The cache walk
 * that serves an access depends only on the program and the cache
 * configuration, not on the SMT width or the memory latency, so
 * one trace serves every core simulation of the program where it
 * is valid (docs/MODEL.md, "Access-level traces"). buildAccessTrace
 * records it and checks at which SMT widths replaying it is exact.
 */
struct AccessTrace
{
    /** Levels, 2 bits each: access k sits at bit 2 * (k % 32) of
     * word k / 32. */
    std::vector<uint64_t> levels;
    /** Accesses recorded. */
    size_t accesses = 0;
    /** Bit w is set when the trace is valid at SMT width w. */
    unsigned validWidths = 0;
    /** @name What the trace was recorded for (checked on use) */
    /**@{*/
    size_t bodySize = 0;
    std::vector<CacheGeometry> cacheGeoms;
    bool prefetch = true;
    /**@}*/

    /** Whether a simulation at @p threads SMT ways may replay it. */
    bool
    validAt(int threads) const
    {
        return (validWidths >> threads) & 1u;
    }

    /** The level of access @p k in the packed words @p words. */
    static HitLevel
    unpack(const uint64_t *words, size_t k)
    {
        return static_cast<HitLevel>((words[k >> 5] >> ((k & 31) * 2)) &
                                     3u);
    }

    /** The level of access @p k. */
    HitLevel at(size_t k) const { return unpack(levels.data(), k); }

    /** Bytes the trace holds. */
    size_t
    bytes() const
    {
        return sizeof(AccessTrace) + levels.size() * sizeof(uint64_t) +
               cacheGeoms.size() * sizeof(CacheGeometry);
    }
};

/**
 * Record the access trace of @p dec under @p opts' cache geometry,
 * prefetcher and iteration counts, on @p scratch's cache hierarchy.
 * The trace runs hardware thread 1's addresses. A co-run decode, a
 * decode whose memory slots walk no stream, or a geometry the
 * replay argument does not cover yields a trace valid at no width.
 */
AccessTrace buildAccessTrace(const DecodedProgram &dec,
                             const CoreSimOptions &opts,
                             SimScratch &scratch);

/** How a core simulation served its memory accesses. */
enum class TraceUse
{
    /** Walked the cache hierarchy (no trace, or not valid). */
    Live,
    /** Replayed the access trace. */
    Traced,
    /** Started on the trace, ran past its end, and was rerun on
     * the cache hierarchy. */
    Overflowed
};

/**
 * The core simulator: run @p threads hardware threads over a
 * decoded program on one core. A single-range decode runs one copy
 * per thread; a co-run decode (one slot range per thread, see
 * DecodedProgram::threadSlots) runs thread i over range i and must
 * carry exactly @p threads ranges. The inner loop touches no
 * ExecModel, Isa or heap state, and is bit-identical to the
 * per-Program reference loop kept in tests/reference_core.hh.
 * @p opts must carry the same mispredict penalty and transition
 * gate the decode baked in (checked).
 *
 * A @p trace of the same program and cache configuration (checked)
 * that is valid at @p threads replaces the cache walk; the result
 * is the same bit for bit. @p use, when given, reports which path
 * served the simulation.
 */
CoreResult simulateCoreDecoded(const DecodedProgram &dec,
                               int threads,
                               const CoreSimOptions &opts,
                               SimScratch &scratch,
                               const AccessTrace *trace = nullptr,
                               TraceUse *use = nullptr);

} // namespace mprobe

#endif // SIM_CORE_HH
