/**
 * @file
 * Machine model implementation.
 */

#include "sim/machine.hh"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/hash.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace mprobe
{

std::vector<ChipConfig>
ChipConfig::all()
{
    std::vector<ChipConfig> out;
    for (int c = 1; c <= 8; ++c)
        for (int s : {1, 2, 4})
            out.push_back({c, s});
    return out;
}

std::string
ChipConfig::label() const
{
    return cat(cores, "-", smt);
}

Machine::Machine(const Isa &isa, const GroundTruthParams &p)
    : isaPtr(&isa), exec(isa), params(p)
{
}

Machine::Machine(const Isa &isa,
                 const std::vector<CacheGeometry> &geoms,
                 double clock_ghz, const GroundTruthParams &p)
    : isaPtr(&isa), exec(isa), params(p)
{
    params.clockGhz = clock_ghz;
    simOpts.cacheGeoms = geoms;
}

double
Machine::staticCmpWatts(int cores) const
{
    return params.cmpLin * cores +
           params.cmpCurve * std::pow(cores, params.cmpPow);
}

double
Machine::sensorize(double watts, uint64_t seed) const
{
    Rng rng(seed);
    double noisy =
        watts * (1.0 + params.sensorNoiseFrac * rng.gaussian());
    // TPMD readings have milliwatt granularity (Section 3).
    return std::round(noisy * 1000.0) / 1000.0;
}

double
Machine::voltageAt(double freq_ghz) const
{
    return std::max(params.vddFloor,
                    params.vddNominal +
                        params.vddSlopePerGhz *
                            (freq_ghz - params.clockGhz));
}

OperatingPoint
Machine::operatingPoint(double freq_ghz) const
{
    if (freq_ghz <= 0.0)
        freq_ghz = params.clockGhz;
    return {freq_ghz, voltageAt(freq_ghz)};
}

double
Machine::vminAt(double freq_ghz, double core_ipc) const
{
    return params.vminBase + params.vminPerGhz * freq_ghz +
           params.vminPerIpc * core_ipc;
}

namespace
{

/**
 * Mix a swept frequency into a sensor seed. The nominal point
 * leaves the seed untouched so every pre-DVFS measurement (and its
 * cache entry) stays bit-identical.
 */
uint64_t
mixFreqSeed(uint64_t seed, double freq_ghz, double nominal_ghz)
{
    if (freq_ghz == nominal_ghz)
        return seed;
    return hashCombine(
        seed, static_cast<uint64_t>(std::llround(freq_ghz * 1e6)));
}

} // namespace

double
Machine::idleWatts(const ChipConfig &cfg, uint64_t salt) const
{
    return idleWatts(cfg, operatingPoint(), salt);
}

double
Machine::idleWatts(const ChipConfig &cfg, const OperatingPoint &op,
                   uint64_t salt) const
{
    uint64_t seed = 0x1d1efeedull ^
                    (static_cast<uint64_t>(cfg.cores) << 8) ^
                    (static_cast<uint64_t>(cfg.smt) << 16) ^ salt;
    seed = mixFreqSeed(seed, op.freqGhz, params.clockGhz);
    double vr = op.voltage / voltageAt(params.clockGhz);
    return sensorize(params.idleWatts * vr, seed);
}

RunResult
Machine::run(const Program &prog, const ChipConfig &cfg,
             uint64_t salt) const
{
    return run(prog, cfg, operatingPoint(), salt);
}

void
Machine::validateRun(const Program &prog, const ChipConfig &cfg,
                     const OperatingPoint &op) const
{
    if (cfg.cores < 1 || cfg.cores > 8)
        fatal(cat("bad core count ", cfg.cores));
    if (cfg.smt != 1 && cfg.smt != 2 && cfg.smt != 4)
        fatal(cat("bad SMT mode ", cfg.smt));
    if (op.freqGhz <= 0.0 || op.voltage <= 0.0)
        fatal(cat("bad operating point ", op.freqGhz, " GHz @ ",
                  op.voltage, " V"));
    if (prog.isa != isaPtr)
        fatal(cat("program '", prog.name,
                  "' was generated for a different ISA"));
}

int
Machine::firstPassMemLatency(double lat_scale) const
{
    return std::max(
        1, static_cast<int>(
               std::lround(simOpts.memLatency * lat_scale)));
}

int
Machine::contendedMemLatency(const CoreResult &core,
                             const ChipConfig &cfg,
                             double lat_scale) const
{
    // Shared-memory contention: when several cores stream from
    // memory, the effective latency grows with aggregate demand.
    double mem_per_cycle =
        core.window.cycles > 0
            ? core.window.memAcc / core.window.cycles
            : 0.0;
    if (cfg.cores <= 1 || mem_per_cycle <= 1e-3)
        return 0;
    double factor = 1.0 + params.memContentionK * mem_per_cycle *
                              (cfg.cores - 1);
    return std::max(
        1, static_cast<int>(std::lround(
               ExecModel::memLatencyBase * lat_scale * factor)));
}

RunResult
Machine::run(const Program &prog, const ChipConfig &cfg,
             const OperatingPoint &op, uint64_t salt) const
{
    validateRun(prog, cfg, op);

    // Decoding a ~1 K-instruction body is noise next to the
    // millions of simulated cycles it feeds, so a single run
    // decodes fresh every time (only Batch assumes a stable
    // program identity); the thread-local scratch still removes
    // all steady-state allocation and cache-array construction.
    thread_local DecodedProgram decoded;
    thread_local SimScratch scratch;
    exec.decode(prog, simOpts.mispredictPenalty,
                simOpts.transitionGateNj, decoded);

    // Main-memory latency is fixed in nanoseconds; its cycle count
    // follows the core clock. Core/cache latencies are clock-domain
    // cycles and stay put. lat_scale is exactly 1.0 at the nominal
    // point, so the pre-DVFS path is reproduced bit for bit. The
    // first pass runs at the uncontended memory latency.
    double lat_scale = op.freqGhz / params.clockGhz;
    CoreSimOptions opts = simOpts;
    opts.memLatency = firstPassMemLatency(lat_scale);
    CoreResult core =
        simulateCoreDecoded(decoded, cfg.smt, opts, scratch);

    int contended = contendedMemLatency(core, cfg, lat_scale);
    if (contended > 0) {
        opts.memLatency = contended;
        core = simulateCoreDecoded(decoded, cfg.smt, opts, scratch);
    }
    return finishRun(prog, cfg, op, salt, core);
}

RunResult
Machine::finishRun(const Program &prog, const ChipConfig &cfg,
                   const OperatingPoint &op, uint64_t salt,
                   const CoreResult &core) const
{
    obs::TraceSpan span("sim.power");
    RunResult res;
    res.config = cfg;
    res.chip = core.window;
    res.chip *= static_cast<double>(cfg.cores);
    // Cycles are per core, not summed across cores.
    res.chip.cycles = core.window.cycles;
    res.coreIpc = core.window.ipc();
    res.seconds =
        core.window.cycles / (op.freqGhz * 1e9);
    res.freqGhz = op.freqGhz;
    res.voltage = op.voltage;
    res.offCurve = op.voltage != voltageAt(op.freqGhz);

    // The hidden margin model: at or above Vmin the measurement is
    // clean; below it the numbers still come back (real undervolted
    // parts keep running for a while) but flagged unreliable.
    res.gtVminVolts = vminAt(op.freqGhz, res.coreIpc);
    res.reliable = op.voltage >= res.gtVminVolts;

    // Hidden chip power composition. Dynamic energy per op scales
    // with V^2 (vr is 1.0 at the nominal point); every static term
    // scales with V.
    double vr = op.voltage / voltageAt(params.clockGhz);
    double dyn = vr * vr * cfg.cores * core.window.energyNj *
                 1e-9 / std::max(res.seconds, 1e-15);
    double smt_w =
        cfg.smt > 1
            ? vr * cfg.cores *
                  (params.smtEffectWatts +
                   (cfg.smt == 4 ? params.smt4ExtraWatts : 0.0))
            : 0.0;
    double cmp_w = vr * staticCmpWatts(cfg.cores);
    double total = dyn + smt_w + cmp_w +
                   vr * params.uncoreActiveWatts +
                   vr * params.idleWatts;

    uint64_t seed = hashStr(prog.name) ^
                    (static_cast<uint64_t>(cfg.cores) << 32) ^
                    (static_cast<uint64_t>(cfg.smt) << 40) ^ salt;
    seed = mixFreqSeed(seed, op.freqGhz, params.clockGhz);
    res.sensorWatts = sensorize(total, seed);

    res.gtDynamicWatts = dyn;
    res.gtSmtWatts = smt_w;
    res.gtCmpWatts = cmp_w;
    res.gtUncoreWatts = vr * params.uncoreActiveWatts;
    res.gtIdleWatts = vr * params.idleWatts;
    return res;
}

Machine::Batch::Batch(const Machine &machine, const Program &p)
    : m(machine), prog(p)
{
    obs::TraceSpan span("sim.decode");
    span.note("instructions", static_cast<double>(p.size()));
    m.exec.decode(p, m.simOpts.mispredictPenalty,
                  m.simOpts.transitionGateNj, decoded);
}

const CoreResult &
Machine::Batch::simAt(int smt, int lat_mem)
{
    // A batch visits only a handful of distinct (smt, latency)
    // pairs (three SMT modes at nominal frequency, plus one entry
    // per distinct swept/contended latency), so a linear scan
    // beats any map.
    for (const MemoEntry &e : memo)
        if (e.smt == smt && e.latMem == lat_mem) {
            obs::counter("batch_memo_hits").add();
            return e.core;
        }
    obs::counter("batch_core_sims").add();
    CoreSimOptions opts = m.simOpts;
    opts.memLatency = lat_mem;
    {
        obs::TraceSpan span("sim.core");
        span.note("smt", smt);
        span.note("lat_mem", lat_mem);
        memo.push_back(
            {smt, lat_mem,
             simulateCoreDecoded(decoded, smt, opts, scratch)});
    }
    obs::gauge("arena_high_water_bytes")
        .max(static_cast<double>(scratch.arena.capacityBytes()));
    return memo.back().core;
}

RunResult
Machine::Batch::run(const ChipConfig &cfg, const OperatingPoint &op,
                    uint64_t salt)
{
    m.validateRun(prog, cfg, op);

    double lat_scale = op.freqGhz / m.params.clockGhz;
    const CoreResult *core =
        &simAt(cfg.smt, m.firstPassMemLatency(lat_scale));
    int contended = m.contendedMemLatency(*core, cfg, lat_scale);
    if (contended > 0)
        core = &simAt(cfg.smt, contended);
    return m.finishRun(prog, cfg, op, salt, *core);
}

uint64_t
Machine::fingerprint() const
{
    Hasher h;
    // The full instruction definitions, not just the ISA name: a
    // definition-file variant with the same name and opcode count
    // must not replay another ISA's cached samples.
    h.add(isaPtr->name()).add(isaPtr->size());
    for (size_t i = 0; i < isaPtr->size(); ++i) {
        const InstrDef &d =
            isaPtr->at(static_cast<Isa::OpIndex>(i));
        h.add(d.name).add(static_cast<int>(d.cls)).add(d.width);
        h.add(d.srcs).add(d.dsts).add(d.hasImm);
        h.add(d.vectorData).add(d.floatData).add(d.decimalData);
        h.add(d.update).add(d.algebraic).add(d.indexed);
        h.add(d.conditional).add(d.privileged).add(d.prefetch);
    }
    h.add(params.clockGhz)
        .add(params.idleWatts)
        .add(params.uncoreActiveWatts)
        .add(params.cmpLin)
        .add(params.cmpCurve)
        .add(params.cmpPow)
        .add(params.smtEffectWatts)
        .add(params.smt4ExtraWatts)
        .add(params.sensorNoiseFrac)
        .add(params.memContentionK);
    // The V/f-curve parameters are hashed only when they deviate
    // from the defaults: default-curve machines keep the exact
    // pre-DVFS fingerprint, so existing cache directories upgrade
    // miss-free (job keys already distinguish swept frequencies).
    GroundTruthParams defaults;
    if (params.vddNominal != defaults.vddNominal ||
        params.vddSlopePerGhz != defaults.vddSlopePerGhz ||
        params.vddFloor != defaults.vddFloor)
        h.add(params.vddNominal)
            .add(params.vddSlopePerGhz)
            .add(params.vddFloor);
    // Same discipline for the Vmin margin model: default-margin
    // machines keep the pre-undervolting fingerprint.
    if (params.vminBase != defaults.vminBase ||
        params.vminPerGhz != defaults.vminPerGhz ||
        params.vminPerIpc != defaults.vminPerIpc)
        h.add(params.vminBase)
            .add(params.vminPerGhz)
            .add(params.vminPerIpc);
    h.add(simOpts.memLatency)
        .add(simOpts.warmupIters)
        .add(simOpts.measureIters)
        .add(simOpts.prefetch)
        .add(simOpts.mispredictPenalty)
        .add(simOpts.overlapNjPerCycle)
        .add(simOpts.transitionNjPerInstr)
        .add(simOpts.transitionGateNj);
    for (const auto &g : simOpts.cacheGeoms)
        h.add(g.sizeBytes).add(g.assoc).add(g.lineBytes);
    return h.digest();
}

} // namespace mprobe
