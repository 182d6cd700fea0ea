/**
 * @file
 * Chip-level machine model and power sensor.
 *
 * Plays the role of the paper's measurement platform (Section 3): an
 * 8-core, 4-way-SMT POWER7-like system whose processor power is read
 * through a TPMD-like sensor with milliwatt granularity. Deployment
 * follows the paper exactly: one copy of the micro-benchmark per
 * available hardware thread, pinned, run to a steady state.
 *
 * The chip power composes per-core dynamic energy (from the cycle
 * level core model) with hidden static terms: workload-independent
 * idle power, uncore power when active, a *convex* CMP term (the
 * linear-CMP assumption of the estimated models is an approximation,
 * mirroring the paper's Section 4.1.1 discussion), and a per-core SMT
 * enable effect.
 */

#ifndef SIM_MACHINE_HH
#define SIM_MACHINE_HH

#include <memory>
#include <string>
#include <utility>

#include "dvfs/op_point.hh"
#include "sim/core.hh"

namespace mprobe
{

/** A CMP/SMT configuration, e.g. "4-2" = 4 cores, 2-way SMT. */
struct ChipConfig
{
    int cores = 8;
    int smt = 1;

    /** All 24 configurations studied in the paper: 1-8 cores, SMT
     * 1, 2 or 4. */
    static std::vector<ChipConfig> all();

    /** Whether all() lists this configuration: what
     * parseConfigList and Machine::run accept. */
    bool valid() const;

    /** "cores-smt" label used across the paper's figures. */
    std::string label() const;

    /** Total hardware threads. */
    int threads() const { return cores * smt; }
};

/** Hidden chip-level ground-truth parameters. */
struct GroundTruthParams
{
    double clockGhz = 3.0;
    /** Workload-independent power (chip idle). */
    double idleWatts = 55.0;
    /** Constant uncore power once anything runs. */
    double uncoreActiveWatts = 6.0;
    /** CMP term: cmpLin*n + cmpCurve*n^cmpPow (convex in n). */
    double cmpLin = 0.90;
    double cmpCurve = 0.28;
    double cmpPow = 1.55;
    /** Extra power per core with SMT enabled ... */
    double smtEffectWatts = 0.50;
    /** ... nearly independent of 2-way vs 4-way (Section 4.1). */
    double smt4ExtraWatts = 0.05;
    /** Sensor noise (fraction of reading). */
    double sensorNoiseFrac = 0.0015;
    /** Shared-memory-bandwidth contention strength. */
    double memContentionK = 6.0;
    /**
     * @name Hidden V/f operating-point curve (DVFS ground truth)
     * The supply voltage at frequency f is
     *     V(f) = max(vddFloor, vddNominal + vddSlopePerGhz*(f - clockGhz)),
     * i.e. linear in f with a floor below which the silicon cannot
     * be undervolted further — the shape Papadimitriou et al.
     * characterize on real server parts. Dynamic power scales with
     * V^2*f, static power with V.
     */
    /**@{*/
    double vddNominal = kNominalVdd;
    double vddSlopePerGhz = kNominalVddSlopePerGhz;
    double vddFloor = kNominalVddFloor;
    /**@}*/
    /**
     * @name Hidden workload-dependent Vmin margin model
     * The minimum safe supply voltage at an operating point is
     *     Vmin(f, ipc) = vminBase + vminPerGhz*f + vminPerIpc*ipc,
     * growing with frequency (timing paths tighten) and with core
     * activity (voltage droop under load) — the workload-dependent
     * margin shape Papadimitriou et al. measure on real server
     * parts. A run at op.voltage < Vmin is marked unreliable
     * (RunResult::reliable / Sample::reliable) instead of returning
     * clean numbers; exactly at Vmin it is still reliable. The
     * defaults keep every on-curve point reliable: the curve's
     * floor (0.85 V) sits above Vmin for any reachable IPC.
     */
    /**@{*/
    double vminBase = 0.60;
    double vminPerGhz = 0.04;
    double vminPerIpc = 0.02;
    /**@}*/
};

/** Everything one deployment/measurement produces. */
struct RunResult
{
    ChipConfig config;
    /** Chip-wide counter deltas over the measurement window. */
    RunCounters chip;
    /** Window duration in seconds. */
    double seconds = 0.0;
    /** Sensor reading: average chip power in watts (noisy,
     * quantized to milliwatts). */
    double sensorWatts = 0.0;
    /** Per-core IPC over the window. */
    double coreIpc = 0.0;
    /** Operating point this run executed at (the machine's nominal
     * clock unless the caller swept it). */
    double freqGhz = 0.0;
    double voltage = 0.0;
    /**
     * False when the run's supply voltage sat below the workload's
     * hidden Vmin (see GroundTruthParams): the numbers are what a
     * margin-violating machine would report, not trustworthy
     * measurements. On-curve and at-Vmin runs are reliable.
     */
    bool reliable = true;
    /** Whether the operating point's voltage deviates from the
     * machine's V/f curve at its frequency (an undervolt/overvolt
     * experiment rather than a plain DVFS point). */
    bool offCurve = false;

    /**
     * @name Ground-truth oracle (tests and EXPERIMENTS.md only)
     * Never read by MicroProbe or by the power models.
     */
    /**@{*/
    double gtDynamicWatts = 0.0;
    double gtSmtWatts = 0.0;
    double gtCmpWatts = 0.0;
    double gtUncoreWatts = 0.0;
    double gtIdleWatts = 0.0;
    /** The workload's minimum safe voltage at this run's operating
     * point (the boundary `reliable` was judged against). */
    double gtVminVolts = 0.0;
    /**@}*/

    /** Chip-wide event rate (events/second) for a counter value. */
    double
    rate(double counter_value) const
    {
        return seconds > 0 ? counter_value / seconds : 0.0;
    }
};

/**
 * The simulated machine: deploy a micro-benchmark on a CMP/SMT
 * configuration and measure counters and power.
 *
 * Thread safety: run() and idleWatts() are const, and concurrent
 * calls on one Machine from campaign worker threads are safe as
 * long as nobody mutates simOptions() concurrently. Every core
 * simulation, from run() or a Batch, goes through one mutex-guarded
 * memo that copies of a Machine share (docs/MODEL.md, "The
 * core-simulation memo"). An entry is keyed by the program's content
 * and every simOptions() field but the configured memory latency; it
 * holds the program's finished core simulations by SMT mode and
 * effective memory latency, and a memory program's access trace,
 * replayed where it is valid. The memo never simulates under its
 * lock, and a hit returns exactly what a fresh simulation would.
 * Results depend only on (program, config, salt), so a parallel
 * campaign reproduces a serial one exactly.
 */
class Machine
{
  public:
    /** Build a machine executing programs over @p isa. */
    explicit Machine(const Isa &isa,
                     const GroundTruthParams &params =
                         GroundTruthParams());

    /**
     * Build a machine whose cache geometry and clock follow a
     * micro-architecture definition (for retargeting the framework
     * to e.g. the POWER7+-like chip with its larger L3).
     */
    Machine(const Isa &isa, const std::vector<CacheGeometry> &geoms,
            double clock_ghz,
            const GroundTruthParams &params = GroundTruthParams());

    /**
     * Deploy one copy of @p prog per hardware thread of @p cfg, warm
     * up, and measure a steady-state window at the nominal
     * operating point.
     *
     * @param salt extra seed material for the sensor noise so
     *             repeated measurements differ slightly, as on real
     *             hardware.
     */
    RunResult run(const Program &prog, const ChipConfig &cfg,
                  uint64_t salt = 0) const;

    /**
     * Deploy at an explicit DVFS operating point. Core and cache
     * latencies are clock-domain cycles and keep their cycle
     * counts; main-memory latency is fixed in nanoseconds, so its
     * cycle count scales with frequency — which is what makes
     * memory-bound workloads speed up sublinearly with f. Dynamic
     * power scales as V^2*f (energy per op scales with V^2, ops per
     * second with f), every static term as V. At the nominal point
     * this is bit-identical to the two-argument overload.
     */
    RunResult run(const Program &prog, const ChipConfig &cfg,
                  const OperatingPoint &op, uint64_t salt = 0) const;

    /**
     * Bytes the core-simulation memo holds before it is cleared.
     * Every entry is charged at least one CoreResult. A Table-2
     * campaign, plain or through --serve, holds about 0.5 MB.
     */
    static constexpr size_t kSimMemoCapBytes = 16 << 20;

    /**
     * Decode-once handle on one program: decodes it on construction
     * and serves run() for any number of CMP/SMT x operating-point
     * requests. It runs run()'s sequence over the decoded form, so
     * every core simulation comes from, or goes into, the machine's
     * memo, and results are bit-identical to Machine::run. A Batch
     * stores no result: it records the (SMT, memory latency) pairs
     * it has requested, for its counters. A first request counts in
     * batch_core_sims and a repeat in batch_memo_hits, whatever the
     * memo served. Not thread-safe; one Batch per worker thread.
     */
    class Batch
    {
      public:
        Batch(const Machine &machine, const Program &prog);

        /** Evaluate one request over the decoded program. */
        RunResult run(const ChipConfig &cfg,
                      const OperatingPoint &op, uint64_t salt = 0);

        /** Distinct (SMT, memory latency) pairs requested so far. */
        size_t simCount() const { return requested.size(); }

      private:
        const Machine &m;
        const Program &prog;
        /** Content digest of prog, half of its memo key. */
        uint64_t digest;
        DecodedProgram decoded;
        std::vector<std::pair<int, int>> requested;
    };

    /** Sensor reading with no workload: workload-independent power. */
    double idleWatts(const ChipConfig &cfg, uint64_t salt = 0) const;

    /** Idle power at an explicit operating point (scales with V). */
    double idleWatts(const ChipConfig &cfg, const OperatingPoint &op,
                     uint64_t salt = 0) const;

    /** Supply voltage of the hidden V/f curve at @p freq_ghz. */
    double voltageAt(double freq_ghz) const;

    /**
     * The operating point at @p freq_ghz (voltage from the V/f
     * curve); non-positive frequencies select the nominal clock.
     */
    OperatingPoint operatingPoint(double freq_ghz = 0.0) const;

    /** Nominal core clock in GHz (public knowledge, as on real
     * hardware; not an oracle). */
    double clockGhz() const { return params.clockGhz; }

    /** Simulation knobs (iterations, prefetcher, ...). */
    CoreSimOptions &simOptions() { return simOpts; }
    const CoreSimOptions &simOptions() const { return simOpts; }

    /** Ground-truth parameters (oracle; tests only). */
    const GroundTruthParams &groundTruth() const { return params; }

    /**
     * Stable identity of everything that determines measurement
     * results on this machine (ISA, ground-truth parameters,
     * simulation knobs). Campaign result-cache keys incorporate it
     * so cached samples are never replayed on a different machine.
     */
    uint64_t fingerprint() const;

    const Isa &isa() const { return *isaPtr; }

  private:
    const Isa *isaPtr;
    ExecModel exec;
    GroundTruthParams params;
    CoreSimOptions simOpts;
    /** Finished core simulations and access traces, shared by
     * run() and every Batch (machine.cc). */
    struct SimMemo;
    std::shared_ptr<SimMemo> memo;
    /** A program on its way through the run sequence (machine.cc). */
    struct Subject;

    double staticCmpWatts(int cores) const;
    double sensorize(double watts, uint64_t seed) const;
    /** The hidden workload-dependent minimum safe voltage at
     * @p freq_ghz for a workload running at @p core_ipc. */
    double vminAt(double freq_ghz, double core_ipc) const;

    /** The run sequence of run() and Batch::run: validation, the
     * first pass, the contended rerun and finishRun. */
    RunResult runSequence(Subject &s, const ChipConfig &cfg,
                          const OperatingPoint &op, uint64_t salt) const;
    /** The core simulation of @p s at (@p smt, @p lat_mem): from the
     * memo, or simulated on the calling thread's scratch, replaying
     * the program's access trace where it is valid, traced as
     * sim.core, and put in the memo. */
    CoreResult coreAt(Subject &s, int smt, int lat_mem) const;
    /** Decode @p prog for this machine's options, traced as
     * sim.decode. */
    void decodeTraced(const Program &prog, DecodedProgram &out) const;
    /** Power composition and sensor readout from a finished core
     * simulation. */
    RunResult finishRun(const Program &prog, const ChipConfig &cfg,
                        const OperatingPoint &op, uint64_t salt,
                        const CoreResult &core) const;
};

} // namespace mprobe

#endif // SIM_MACHINE_HH
