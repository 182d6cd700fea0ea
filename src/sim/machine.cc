/**
 * @file
 * Machine model implementation.
 */

#include "sim/machine.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <tuple>
#include <type_traits>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/hash.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/thread_annotations.hh"

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

bool
ChipConfig::valid() const
{
    static const std::vector<ChipConfig> kAll = all();
    return std::any_of(kAll.begin(), kAll.end(), [&](const ChipConfig &c) {
        return c.cores == cores && c.smt == smt;
    });
}

std::string
ChipConfig::label() const
{
    return cat(cores, "-", smt);
}

namespace
{

/**
 * A fast digest over 8-byte words for the run() memo key: four
 * independent multiply-rotate lanes (xxHash64's round). It hashes a
 * 2,048-instruction body ~16x faster than the byte-at-a-time
 * Hasher, which would cost a fifth of the body's SMT-1 simulation.
 * It keys an in-process memo and is never persisted, so it may
 * change between builds.
 */
class WordDigest
{
  public:
    /** Mix one word. */
    WordDigest &
    add(uint64_t w)
    {
        lanes[0] = round(lanes[0], w);
        return *this;
    }

    /** Mix @p bytes raw bytes, preceded by their count. */
    void
    addBytes(const void *data, size_t bytes)
    {
        add(bytes);
        const auto *p = static_cast<const unsigned char *>(data);
        for (; bytes >= 32; bytes -= 32, p += 32)
            for (int i = 0; i < 4; ++i)
                lanes[i] = round(lanes[i], load(p + 8 * i, 8));
        while (bytes > 0) {
            size_t n = std::min<size_t>(bytes, 8);
            add(load(p, n));
            p += n;
            bytes -= n;
        }
    }

    uint64_t
    digest() const
    {
        uint64_t h = rotl(lanes[0], 1) + rotl(lanes[1], 7) +
                     rotl(lanes[2], 12) + rotl(lanes[3], 18);
        h = (h ^ (h >> 33)) * kP2;
        h = (h ^ (h >> 29)) * kP3;
        return h ^ (h >> 32);
    }

  private:
    static constexpr uint64_t kP1 = 0x9e3779b185ebca87ull;
    static constexpr uint64_t kP2 = 0xc2b2ae3d27d4eb4full;
    static constexpr uint64_t kP3 = 0x165667b19e3779f9ull;

    uint64_t lanes[4] = {kP1 + kP2, kP2, 0, 0 - kP1};

    static uint64_t
    rotl(uint64_t x, int r)
    {
        return (x << r) | (x >> (64 - r));
    }
    static uint64_t
    round(uint64_t acc, uint64_t w)
    {
        return rotl(acc + w * kP2, 31) * kP1;
    }
    /** Up to 8 bytes as one zero-padded host-order word. */
    static uint64_t
    load(const unsigned char *p, size_t n)
    {
        uint64_t w = 0;
        std::memcpy(&w, p, n);
        return w;
    }
};

uint64_t
doubleBits(double v)
{
    uint64_t w;
    std::memcpy(&w, &v, sizeof w);
    return w;
}

/**
 * Digest of everything in a Program the core simulation reads: the
 * raw bytes of the body and of every memory stream. The name is
 * left out: the simulator only prints it in panic messages, and the
 * sensor seed takes it in finishRun, outside the memo.
 */
uint64_t
programDigest(const Program &prog)
{
    static_assert(sizeof(ProgInst) == 20 &&
                      std::is_trivially_copyable_v<ProgInst>,
                  "ProgInst must stay padding-free for its raw "
                  "bytes to be its content");
    WordDigest d;
    d.addBytes(prog.body.data(), prog.body.size() * sizeof(ProgInst));
    d.add(prog.streams.size());
    for (const MemStream &s : prog.streams)
        d.addBytes(s.lines.data(), s.lines.size() * sizeof(uint64_t));
    return d.digest();
}

/** Digest of every CoreSimOptions field (lint-checked coverage). */
uint64_t
simOptionsDigest(const CoreSimOptions &o)
{
    WordDigest d;
    d.add(static_cast<uint64_t>(o.memLatency))
        .add(static_cast<uint64_t>(o.warmupIters))
        .add(static_cast<uint64_t>(o.measureIters))
        .add(o.prefetch)
        .add(static_cast<uint64_t>(o.mispredictPenalty))
        .add(doubleBits(o.overlapNjPerCycle))
        .add(doubleBits(o.transitionNjPerInstr))
        .add(doubleBits(o.transitionGateNj))
        .add(o.cacheGeoms.size());
    for (const CacheGeometry &g : o.cacheGeoms)
        d.add(g.sizeBytes)
            .add(static_cast<uint64_t>(g.assoc))
            .add(static_cast<uint64_t>(g.lineBytes));
    return d.digest();
}

} // namespace

/**
 * The finished core simulations of run(), keyed by what a core
 * simulation is a pure function of (docs/MODEL.md, "The run()
 * memo"). Lookups and inserts hold the mutex; simulations never do.
 * Two threads that miss one key both simulate, and the second
 * insert is dropped: the two results are identical.
 */
struct Machine::RunMemo
{
    struct Key
    {
        uint64_t program;
        uint64_t options;
        int smt;
        int latMem;

        bool
        operator<(const Key &o) const
        {
            return std::tie(program, options, smt, latMem) <
                   std::tie(o.program, o.options, o.smt, o.latMem);
        }
    };

    bool
    find(const Key &key, CoreResult &out)
    {
        MutexLock lock(mutex);
        auto it = entries.find(key);
        if (it == entries.end())
            return false;
        out = it->second;
        return true;
    }

    void
    insert(const Key &key, const CoreResult &core)
    {
        MutexLock lock(mutex);
        if (entries.size() >= kRunMemoCap)
            entries.clear();
        entries.emplace(key, core);
    }

  private:
    Mutex mutex;
    std::map<Key, CoreResult> entries GUARDED_BY(mutex);
};

/**
 * Each memory program's access trace (docs/MODEL.md, "Access-level
 * traces"), keyed by the program's content digest and the options
 * digest at memory latency 0: the cache walk a trace records never
 * reads the latency. A program's first simulation at SMT 1 leaves
 * only a mark, so programs simulated once (bootstrap probes, search
 * candidates) never pay for a trace; its second simulation, or its
 * first at SMT 2 or 4, builds the trace outside the lock. Two
 * threads that miss one key both build, and the second insert is
 * dropped: the two traces are identical.
 */
struct Machine::TraceMemo
{
    struct Key
    {
        uint64_t program;
        uint64_t options;

        bool
        operator<(const Key &o) const
        {
            return std::tie(program, options) <
                   std::tie(o.program, o.options);
        }
    };

    /** The trace of @p key for a simulation at @p smt ways, made by
     * @p build when it is due one; null before that. */
    template <typename Build>
    std::shared_ptr<const AccessTrace>
    get(const Key &key, int smt, Build build)
    {
        {
            MutexLock lock(mutex);
            auto it = entries.find(key);
            if (it != entries.end() && it->second)
                return it->second;
            if (it == entries.end() && smt < 2) {
                insert(key, nullptr);
                return nullptr;
            }
        }
        auto trace = std::make_shared<const AccessTrace>(build());
        MutexLock lock(mutex);
        insert(key, trace);
        return trace;
    }

  private:
    /** Bytes charged for a key and its map node. */
    static constexpr size_t kEntryBytes = 96;

    void
    insert(const Key &key, std::shared_ptr<const AccessTrace> trace)
        REQUIRES(mutex)
    {
        const size_t add = trace ? trace->bytes() : 0;
        if (bytes + kEntryBytes + add > kTraceMemoCapBytes) {
            entries.clear();
            bytes = 0;
        }
        auto [it, fresh] = entries.emplace(key, nullptr);
        if (fresh)
            bytes += kEntryBytes;
        if (!it->second && trace) {
            it->second = std::move(trace);
            bytes += add;
        }
    }

    Mutex mutex;
    std::map<Key, std::shared_ptr<const AccessTrace>> entries
        GUARDED_BY(mutex);
    size_t bytes GUARDED_BY(mutex) = 0;
};

namespace
{

/** Register the access-trace counters, so a run that replays or
 * overflows no trace still reports them, as 0. */
void
registerTraceCounters()
{
    obs::counter("core_sims_traced");
    obs::counter("trace_builds");
    obs::counter("trace_overflows");
}

/** Whether a memory slot of @p dec walks a stream. */
bool
walksStreams(const DecodedProgram &dec)
{
    return std::any_of(dec.stream.begin(), dec.stream.end(),
                       [](int32_t sid) { return sid >= 0; });
}

} // namespace

Machine::Machine(const Isa &isa, const GroundTruthParams &p)
    : isaPtr(&isa), exec(isa), params(p),
      runMemo(std::make_shared<RunMemo>()),
      traceMemo(std::make_shared<TraceMemo>())
{
    registerTraceCounters();
}

Machine::Machine(const Isa &isa,
                 const std::vector<CacheGeometry> &geoms,
                 double clock_ghz, const GroundTruthParams &p)
    : isaPtr(&isa), exec(isa), params(p),
      runMemo(std::make_shared<RunMemo>()),
      traceMemo(std::make_shared<TraceMemo>())
{
    registerTraceCounters();
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

/**
 * The calling thread's simulator scratch, shared by run() and every
 * Batch the thread drives. Each simulation resets its arena and
 * resets, not rebuilds, its cache hierarchy, so a worker thread
 * builds one hierarchy, not one per Batch.
 */
SimScratch &
threadScratch()
{
    thread_local SimScratch scratch;
    return scratch;
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
    if (!cfg.valid())
        fatal(cat("bad configuration ", cfg.label(),
                  " (want 1-8 cores and SMT 1, 2 or 4)"));
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
    // Scales the machine's configured latency, like the first pass:
    // contention must never make a raised latency faster.
    return std::max(
        1, static_cast<int>(std::lround(
               simOpts.memLatency * lat_scale * factor)));
}

RunResult
Machine::run(const Program &prog, const ChipConfig &cfg,
             const OperatingPoint &op, uint64_t salt) const
{
    validateRun(prog, cfg, op);

    // A core simulation is a pure function of the program's
    // content, the SMT width, the effective memory latency and the
    // simulation options, so run() calls share finished ones
    // through the machine's memo (the 8 core counts of one SMT
    // mode, a repeated design point, a re-measured job). A miss
    // decodes, at most once per call, into thread-local scratch
    // that keeps steady-state simulation allocation-free, and
    // simulates outside the memo's lock.
    thread_local DecodedProgram decoded;
    bool have_decode = false;
    const uint64_t prog_digest = programDigest(prog);
    const uint64_t opts_digest = simOptionsDigest(simOpts);
    auto simAt = [&](int lat_mem) {
        const RunMemo::Key key{prog_digest, opts_digest, cfg.smt, lat_mem};
        CoreResult core;
        if (runMemo->find(key, core)) {
            obs::counter("run_memo_hits").add();
            return core;
        }
        if (!have_decode) {
            decodeTraced(prog, decoded);
            have_decode = true;
        }
        obs::counter("run_core_sims").add();
        core = simulateTraced(decoded, prog_digest, cfg.smt, lat_mem);
        runMemo->insert(key, core);
        return core;
    };

    // Main-memory latency is fixed in nanoseconds; its cycle count
    // follows the core clock. Core/cache latencies are clock-domain
    // cycles and stay put. lat_scale is exactly 1.0 at the nominal
    // point, so the pre-DVFS path is reproduced bit for bit. The
    // first pass runs at the uncontended memory latency.
    double lat_scale = op.freqGhz / params.clockGhz;
    CoreResult core = simAt(firstPassMemLatency(lat_scale));
    int contended = contendedMemLatency(core, cfg, lat_scale);
    if (contended > 0)
        core = simAt(contended);
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

void
Machine::decodeTraced(const Program &prog, DecodedProgram &out) const
{
    obs::TraceSpan span("sim.decode");
    span.note("instructions", static_cast<double>(prog.size()));
    exec.decode(prog, simOpts.mispredictPenalty,
                simOpts.transitionGateNj, out);
}

CoreResult
Machine::simulateTraced(const DecodedProgram &dec, uint64_t prog_digest,
                        int smt, int lat_mem) const
{
    SimScratch &scratch = threadScratch();
    obs::TraceSpan span("sim.core");
    span.note("smt", smt);
    span.note("lat_mem", lat_mem);
    CoreSimOptions opts = simOpts;
    std::shared_ptr<const AccessTrace> trace;
    if (walksStreams(dec)) {
        opts.memLatency = 0;
        trace = traceMemo->get(
            {prog_digest, simOptionsDigest(opts)}, smt, [&]() {
                obs::counter("trace_builds").add();
                return buildAccessTrace(dec, opts, scratch);
            });
    }
    opts.memLatency = lat_mem;
    TraceUse use = TraceUse::Live;
    CoreResult core =
        simulateCoreDecoded(dec, smt, opts, scratch, trace.get(), &use);
    if (use == TraceUse::Traced)
        obs::counter("core_sims_traced").add();
    else if (use == TraceUse::Overflowed)
        obs::counter("trace_overflows").add();
    obs::gauge("arena_high_water_bytes")
        .max(static_cast<double>(scratch.arena.capacityBytes()));
    return core;
}

Machine::Batch::Batch(const Machine &machine, const Program &p)
    : m(machine), prog(p), digest(programDigest(p))
{
    m.decodeTraced(p, decoded);
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
    CoreResult core = m.simulateTraced(decoded, digest, smt, lat_mem);
    memo.push_back({smt, lat_mem, core});
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
