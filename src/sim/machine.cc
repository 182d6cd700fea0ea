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
#include <utility>

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
 * A fast digest over 8-byte words for the memo key: four
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
 * The machine's core-simulation memo (docs/MODEL.md, "The
 * core-simulation memo"). An entry is keyed by what a core
 * simulation reads besides its SMT width and memory latency: the
 * program's content digest and the options digest at memory latency
 * 0. It holds the program's finished simulations by (SMT, latency)
 * and, once one is due, a memory program's access trace. Entries are
 * made by a program's first finished simulation, so a program
 * simulated once at SMT 1 (a bootstrap probe, a search candidate)
 * leaves only that mark and never pays for a trace. Lookups and
 * inserts hold the mutex; simulations and trace builds never do. Two
 * threads that miss one result both simulate, and the second insert
 * is dropped: the two results are identical, as are two traces.
 */
struct Machine::SimMemo
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

    /**
     * Copy the finished simulation of @p key at (@p smt, @p lat_mem)
     * into @p core. On a miss, @p trace gets the entry's trace, and
     * @p trace_due says whether a trace is due: the program was
     * simulated before, or this simulation runs at SMT 2 or 4.
     */
    bool
    find(const Key &key, int smt, int lat_mem, CoreResult &core,
         std::shared_ptr<const AccessTrace> &trace, bool &trace_due)
    {
        MutexLock lock(mutex);
        auto it = entries.find(key);
        trace_due = it != entries.end() || smt >= 2;
        if (it == entries.end())
            return false;
        for (const Done &d : it->second.done)
            if (d.smt == smt && d.latMem == lat_mem) {
                core = d.core;
                return true;
            }
        trace = it->second.trace;
        return false;
    }

    /** Record @p core, and @p trace when the entry has none. */
    void
    insert(const Key &key, int smt, int lat_mem, const CoreResult &core,
           std::shared_ptr<const AccessTrace> trace)
    {
        MutexLock lock(mutex);
        const size_t trace_bytes = trace ? trace->bytes() : 0;
        // At most a new entry, a result and the trace.
        const size_t most = kEntryBytes + sizeof(Done) + trace_bytes;
        if (bytes + most > kSimMemoCapBytes) {
            entries.clear();
            bytes = 0;
        }
        auto [it, fresh] = entries.try_emplace(key);
        Entry &e = it->second;
        if (fresh)
            bytes += kEntryBytes;
        if (!e.trace && trace) {
            e.trace = std::move(trace);
            bytes += trace_bytes;
        }
        for (const Done &d : e.done)
            if (d.smt == smt && d.latMem == lat_mem)
                return;
        e.done.push_back({smt, lat_mem, core});
        bytes += sizeof(Done);
    }

  private:
    /** One finished core simulation. */
    struct Done
    {
        int smt;
        int latMem;
        CoreResult core;
    };
    struct Entry
    {
        /** A handful of (SMT, latency) pairs: three SMT modes, times
         * the swept and contended latencies; a linear scan beats any
         * map. */
        std::vector<Done> done;
        std::shared_ptr<const AccessTrace> trace;
    };
    /** Bytes charged for a key, its entry and its map node. */
    static constexpr size_t kEntryBytes = 96;

    Mutex mutex;
    std::map<Key, Entry> entries GUARDED_BY(mutex);
    size_t bytes GUARDED_BY(mutex) = 0;
};

/** A program on its way through the run sequence. */
struct Machine::Subject
{
    const Program &prog;
    SimMemo::Key key;
    /** The decode, made on the first memo miss when not ready. */
    DecodedProgram &decoded;
    bool decodedReady;
    /** A Batch's requested (SMT, latency) pairs; null for run(). */
    std::vector<std::pair<int, int>> *requested;
};

namespace
{

/** The options half of a memo key: simOptionsDigest at memory
 * latency 0. A core simulation reads the effective latency, which
 * an entry keys its results by, never the configured one. */
uint64_t
memoOptionsDigest(CoreSimOptions opts)
{
    opts.memLatency = 0;
    return simOptionsDigest(opts);
}

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
      memo(std::make_shared<SimMemo>())
{
    registerTraceCounters();
}

Machine::Machine(const Isa &isa,
                 const std::vector<CacheGeometry> &geoms,
                 double clock_ghz, const GroundTruthParams &p)
    : isaPtr(&isa), exec(isa), params(p),
      memo(std::make_shared<SimMemo>())
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
 * The calling thread's simulator scratch, on which every core
 * simulation and trace build of the thread runs. Each simulation
 * resets its arena and resets, not rebuilds, its cache hierarchy, so
 * a worker thread builds one hierarchy, not one per program.
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

RunResult
Machine::run(const Program &prog, const ChipConfig &cfg,
             const OperatingPoint &op, uint64_t salt) const
{
    // A memo miss decodes, at most once per call, into thread-local
    // scratch that keeps steady-state simulation allocation-free.
    thread_local DecodedProgram decoded;
    const SimMemo::Key key{programDigest(prog), memoOptionsDigest(simOpts)};
    Subject s{prog, key, decoded, false, nullptr};
    return runSequence(s, cfg, op, salt);
}

RunResult
Machine::runSequence(Subject &s, const ChipConfig &cfg,
                     const OperatingPoint &op, uint64_t salt) const
{
    if (!cfg.valid())
        fatal(cat("bad configuration ", cfg.label(),
                  " (want 1-8 cores and SMT 1, 2 or 4)"));
    if (op.freqGhz <= 0.0 || op.voltage <= 0.0)
        fatal(cat("bad operating point ", op.freqGhz, " GHz @ ",
                  op.voltage, " V"));
    if (s.prog.isa != isaPtr)
        fatal(cat("program '", s.prog.name,
                  "' was generated for a different ISA"));

    // Main-memory latency is fixed in nanoseconds; its cycle count
    // follows the core clock. Core/cache latencies are clock-domain
    // cycles and stay put. lat_scale is exactly 1.0 at the nominal
    // point, so the pre-DVFS path is reproduced bit for bit. The
    // first pass runs at the uncontended memory latency.
    auto cycles = [](double latency) {
        return std::max(1, static_cast<int>(std::lround(latency)));
    };
    const double lat_scale = op.freqGhz / params.clockGhz;
    const double lat = simOpts.memLatency * lat_scale;
    CoreResult core = coreAt(s, cfg.smt, cycles(lat));
    // Shared-memory contention: when several cores stream from
    // memory, the effective latency grows with aggregate demand, and
    // the core simulation reruns at it. It scales the machine's
    // configured latency, like the first pass: contention must never
    // make a raised latency faster.
    double mem_per_cycle =
        core.window.cycles > 0
            ? core.window.memAcc / core.window.cycles
            : 0.0;
    double factor = 1.0 + params.memContentionK * mem_per_cycle *
                              (cfg.cores - 1);
    if (cfg.cores > 1 && mem_per_cycle > 1e-3)
        core = coreAt(s, cfg.smt, cycles(lat * factor));
    return finishRun(s.prog, cfg, op, salt, core);
}

CoreResult
Machine::coreAt(Subject &s, int smt, int lat_mem) const
{
    if (s.requested) {
        // A Batch counts its requests by (SMT, latency) pair,
        // whatever the memo serves them from.
        std::vector<std::pair<int, int>> &r = *s.requested;
        const std::pair<int, int> pair{smt, lat_mem};
        if (std::find(r.begin(), r.end(), pair) != r.end()) {
            static obs::Counter &repeats = obs::counter("batch_memo_hits");
            repeats.add();
        } else {
            static obs::Counter &firsts = obs::counter("batch_core_sims");
            firsts.add();
            r.push_back(pair);
        }
    }
    CoreResult hit;
    std::shared_ptr<const AccessTrace> trace;
    bool trace_due = false;
    if (memo->find(s.key, smt, lat_mem, hit, trace, trace_due)) {
        static obs::Counter &hits = obs::counter("run_memo_hits");
        hits.add();
        return hit;
    }
    if (!s.decodedReady) {
        decodeTraced(s.prog, s.decoded);
        s.decodedReady = true;
    }
    static obs::Counter &sims = obs::counter("run_core_sims");
    sims.add();
    SimScratch &scratch = threadScratch();
    obs::TraceSpan span("sim.core");
    span.note("smt", smt);
    span.note("lat_mem", lat_mem);
    CoreSimOptions opts = simOpts;
    opts.memLatency = lat_mem;
    if (!trace && trace_due && walksStreams(s.decoded)) {
        static obs::Counter &builds = obs::counter("trace_builds");
        builds.add();
        AccessTrace built = buildAccessTrace(s.decoded, opts, scratch);
        trace = std::make_shared<const AccessTrace>(std::move(built));
    }
    TraceUse use = TraceUse::Live;
    CoreResult core =
        simulateCoreDecoded(s.decoded, smt, opts, scratch, trace.get(), &use);
    if (use == TraceUse::Traced) {
        static obs::Counter &traced = obs::counter("core_sims_traced");
        traced.add();
    } else if (use == TraceUse::Overflowed) {
        static obs::Counter &overflows = obs::counter("trace_overflows");
        overflows.add();
    }
    static obs::Gauge &arena_high = obs::gauge("arena_high_water_bytes");
    arena_high.max(static_cast<double>(scratch.arena.capacityBytes()));
    memo->insert(s.key, smt, lat_mem, core, std::move(trace));
    return core;
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

Machine::Batch::Batch(const Machine &machine, const Program &p)
    : m(machine), prog(p), digest(programDigest(p))
{
    m.decodeTraced(p, decoded);
}

RunResult
Machine::Batch::run(const ChipConfig &cfg, const OperatingPoint &op,
                    uint64_t salt)
{
    const SimMemo::Key key{digest, memoOptionsDigest(m.simOpts)};
    Subject s{prog, key, decoded, true, &requested};
    return m.runSequence(s, cfg, op, salt);
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
