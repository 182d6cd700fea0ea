/**
 * @file
 * SMT core simulation loop.
 */

#include "sim/core.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace mprobe
{

namespace
{

constexpr double kEps = 1e-9;

/** Extra energy per access served beyond the L1 (ground truth). */
constexpr double kCacheEnergyNj[4] = {0.0, 1.1, 3.0, 7.5};

/** Hard cap so a malformed program cannot hang the simulator. */
constexpr double kMaxCycles = 200e6;

/** Address transform giving each hardware thread disjoint lines. */
inline uint64_t
threadAddr(uint64_t addr, int tid)
{
    return addr + (static_cast<uint64_t>(tid) << 10) +
           (static_cast<uint64_t>(tid) << 40);
}

/** Per-thread state of the decoded simulator (arena-backed). */
struct DecodedThread
{
    size_t pc = 0;
    /** The thread's loop body: slots [begin, end). */
    size_t begin = 0;
    size_t end = 0;
    long iter = 0;
    int lastUnit = -1;
    bool lastHigh = false;
    double blockUntil = 0.0;
    double mispredictDebt = 0.0;
    double *readyAt = nullptr;    // per body slot
    uint32_t *cursors = nullptr;  // per stream
};

} // namespace

CacheHierarchy &
SimScratch::cache(const std::vector<CacheGeometry> &geoms,
                  bool prefetch)
{
    bool same = hier && hierPrefetch == prefetch &&
                hierGeoms.size() == geoms.size();
    if (same) {
        for (size_t i = 0; i < geoms.size(); ++i)
            if (hierGeoms[i].sizeBytes != geoms[i].sizeBytes ||
                hierGeoms[i].assoc != geoms[i].assoc ||
                hierGeoms[i].lineBytes != geoms[i].lineBytes) {
                same = false;
                break;
            }
    }
    if (!same) {
        hier.reset(new CacheHierarchy(geoms, prefetch));
        hierGeoms = geoms;
        hierPrefetch = prefetch;
    } else {
        hier->reset();
    }
    return *hier;
}

CoreResult
simulateCoreDecoded(const DecodedProgram &dec, int threads,
                    const CoreSimOptions &opts, SimScratch &scratch)
{
    if (threads != 1 && threads != 2 && threads != 4)
        fatal(cat("simulateCore: bad SMT thread count ", threads));
    const size_t ranges = dec.threadSlots.size();
    if (ranges != 1 && ranges != static_cast<size_t>(threads))
        panic(cat("simulateCoreDecoded: ", ranges,
                  " slot ranges for ", threads,
                  " threads in the decode of ", dec.name));
    for (const DecodedProgram::SlotRange &r : dec.threadSlots)
        if (r.begin >= r.end)
            fatal("simulateCore: empty program");
    if (opts.mispredictPenalty != dec.mispredictPenalty ||
        opts.transitionGateNj != dec.transitionGateNj)
        panic(cat("simulateCoreDecoded: options drifted from the "
                  "decode of ",
                  dec.name));

    const int lat_mem = opts.memLatency;
    CacheHierarchy &cache =
        opts.cacheGeoms.empty()
            ? scratch.cache(CacheHierarchy::p7Geometry(),
                            opts.prefetch)
            : scratch.cache(opts.cacheGeoms, opts.prefetch);

    scratch.arena.reset();
    const size_t n = dec.bodySize;
    const size_t n_streams = dec.streamLen.size();
    DecodedThread ts[4];
    for (int i = 0; i < threads; ++i) {
        DecodedThread &t = ts[i];
        t = DecodedThread();
        const DecodedProgram::SlotRange &r =
            dec.threadSlots[ranges == 1 ? 0 : static_cast<size_t>(i)];
        t.pc = t.begin = r.begin;
        t.end = r.end;
        t.lastHigh = 0.0 >= dec.transitionGateNj;
        t.readyAt = scratch.arena.alloc<double>(n);
        std::fill(t.readyAt, t.readyAt + n, 0.0);
        t.cursors = scratch.arena.alloc<uint32_t>(n_streams);
        std::fill(t.cursors, t.cursors + n_streams, 0u);
    }

    // Flattened per-unit pipe tokens; offsets/counts mirror
    // ExecModel::pipes (FXU 2, LSU 2, VSU 4, BRU 1, CRU 1).
    constexpr int off[kNumUnits] = {0, 2, 4, 8, 9};
    constexpr int cnt[kNumUnits] = {2, 2, 4, 1, 1};
    double pipes[10];
    for (double &nf : pipes)
        nf = -1.0;

    const int32_t *dep_src = dec.depSrc.data();
    const int32_t *stream_id = dec.stream.data();
    const int8_t *unit_first = dec.unitFirst.data();
    const int8_t *unit_second = dec.unitSecond.data();
    const int8_t *pipes_needed = dec.pipesNeeded.data();
    const int8_t *extra_fxu = dec.extraFxuOps.data();
    const uint8_t *flags = dec.flags.data();
    const uint8_t *high_energy = dec.highEnergy.data();
    const double *issue_interval = dec.issueInterval.data();
    const double *latency = dec.latency.data();
    const double *act_energy = dec.actEnergyNj.data();
    const double *mispredict_inc = dec.mispredictInc.data();
    const uint64_t *stream_lines = dec.streamLines.data();
    const uint32_t *stream_off = dec.streamOffset.data();
    const uint32_t *stream_len = dec.streamLen.data();

    RunCounters live;
    RunCounters snapshot;
    double snapshot_time = 0.0;
    bool measuring = false;

    const long warm = opts.warmupIters;
    const long target = warm + opts.measureIters;

    double now = 0.0;
    uint64_t cycle_count = 0;

    auto allReached = [&](long it) {
        for (int i = 0; i < threads; ++i)
            if (ts[i].iter < it)
                return false;
        return true;
    };

    for (;;) {
        int dispatch_left = ExecModel::dispatchWidth;
        uint32_t issued_units = 0;
        bool any_issued = false;
        double min_blocker = 1e300;

        int start = static_cast<int>(cycle_count %
                                     static_cast<uint64_t>(threads));
        for (int k = 0; k < threads && dispatch_left > 0; ++k) {
            int tid = (start + k) % threads;
            DecodedThread &t = ts[tid];
            while (dispatch_left > 0) {
                if (t.blockUntil > now + kEps) {
                    min_blocker = std::min(min_blocker, t.blockUntil);
                    break;
                }
                const size_t pc = t.pc;

                int32_t src = dep_src[pc];
                if (src >= 0 && t.readyAt[src] > now + kEps) {
                    min_blocker =
                        std::min(min_blocker, t.readyAt[src]);
                    break;
                }

                // Pick an execution unit with enough free pipes
                // (ascending unit order).
                const int need = pipes_needed[pc];
                const int u0 = unit_first[pc];
                const int u1 = unit_second[pc];
                int chosen = -1;
                {
                    const double *p = pipes + off[u0];
                    int free_pipes = 0;
                    for (int w = 0; w < cnt[u0]; ++w)
                        if (p[w] <= now + kEps)
                            ++free_pipes;
                    if (free_pipes >= need)
                        chosen = u0;
                }
                if (chosen < 0 && u1 >= 0) {
                    const double *p = pipes + off[u1];
                    int free_pipes = 0;
                    for (int w = 0; w < cnt[u1]; ++w)
                        if (p[w] <= now + kEps)
                            ++free_pipes;
                    if (free_pipes >= need)
                        chosen = u1;
                }
                if (chosen < 0) {
                    // Structural stall: track the earliest pipe on
                    // any allowed unit.
                    for (int w = 0; w < cnt[u0]; ++w)
                        min_blocker = std::min(min_blocker,
                                               pipes[off[u0] + w]);
                    if (u1 >= 0)
                        for (int w = 0; w < cnt[u1]; ++w)
                            min_blocker =
                                std::min(min_blocker,
                                         pipes[off[u1] + w]);
                    break;
                }

                // Occupy the pipes (token scheme preserves
                // fractional issue intervals under an integer clock).
                const uint8_t fl = flags[pc];
                double ii = issue_interval[pc];
                if (chosen == static_cast<int>(Unit::LSU) &&
                    !(fl & DecodedProgram::kMem)) {
                    // Simple integer ops borrow LSU address-gen
                    // slots at reduced bandwidth.
                    ii = 4.0 / 3.0;
                }
                double *cp = pipes + off[chosen];
                int occupied = 0;
                for (int w = 0; w < cnt[chosen]; ++w) {
                    if (occupied == need)
                        break;
                    if (cp[w] <= now + kEps) {
                        cp[w] =
                            std::max(cp[w], now - 1.0 + kEps) + ii;
                        ++occupied;
                    }
                }

                // Execute.
                double lat = latency[pc];
                if (fl & DecodedProgram::kMem) {
                    int l = 0;
                    const int32_t sid = stream_id[pc];
                    if (sid >= 0) {
                        const uint32_t len = stream_len[sid];
                        uint32_t &cur = t.cursors[sid];
                        uint64_t addr = threadAddr(
                            stream_lines[stream_off[sid] +
                                         cur % len],
                            tid);
                        cur = (cur + 1) % len;
                        l = static_cast<int>(cache.access(addr));
                    }
                    switch (l) {
                      case 0: live.l1Hits += 1; break;
                      case 1: live.l2Hits += 1; break;
                      case 2: live.l3Hits += 1; break;
                      default: live.memAcc += 1; break;
                    }
                    double mem_lat =
                        l < 3 ? ExecModel::loadToUse[l] : lat_mem;
                    if (fl & DecodedProgram::kStore) {
                        lat = 1.0;
                        // Store-queue back-pressure: deep misses
                        // hold the pipe longer.
                        cp[0] += mem_lat * 0.125;
                    } else {
                        lat = mem_lat;
                    }
                    live.energyNj += kCacheEnergyNj[l];
                }
                t.readyAt[pc] = now + lat;

                // Secondary micro-ops (address update / sign
                // extension on the FXU; store data steering on the
                // VSU). Best effort: they consume bandwidth but do
                // not gate issue.
                for (int xo = 0; xo < extra_fxu[pc]; ++xo) {
                    double *fp =
                        pipes + off[static_cast<int>(Unit::FXU)];
                    int best = 0;
                    for (int w = 1;
                         w < cnt[static_cast<int>(Unit::FXU)]; ++w)
                        if (fp[w] < fp[best])
                            best = w;
                    fp[best] =
                        std::max(fp[best], now - 1.0 + kEps) + 1.0;
                    live.fxuOps += 1;
                }
                if (fl & DecodedProgram::kVsuSteer) {
                    double *vp =
                        pipes + off[static_cast<int>(Unit::VSU)];
                    int best = 0;
                    for (int w = 1;
                         w < cnt[static_cast<int>(Unit::VSU)]; ++w)
                        if (vp[w] < vp[best])
                            best = w;
                    vp[best] =
                        std::max(vp[best], now - 1.0 + kEps) + 1.0;
                    live.vsuOps += 1;
                }

                // Counters.
                live.instrs += 1;
                switch (static_cast<Unit>(chosen)) {
                  case Unit::FXU: live.fxuOps += 1; break;
                  case Unit::LSU: live.lsuOps += 1; break;
                  case Unit::VSU: live.vsuOps += 1; break;
                  case Unit::BRU: live.bruOps += 1; break;
                  case Unit::CRU: live.cruOps += 1; break;
                  default: break;
                }
                if (fl & DecodedProgram::kMem) {
                    if (fl & DecodedProgram::kStore)
                        live.stores += 1;
                    else
                        live.loads += 1;
                }

                // Data-dependent dynamic energy (pre-multiplied at
                // decode).
                live.energyNj += act_energy[pc];

                if (chosen <= static_cast<int>(Unit::VSU)) {
                    issued_units |= 1u << chosen;
                    if (t.lastUnit >= 0 && t.lastUnit != chosen &&
                        t.lastHigh && high_energy[pc]) {
                        live.energyNj += opts.transitionNjPerInstr;
                        live.transitionNj +=
                            opts.transitionNjPerInstr;
                    }
                    t.lastUnit = chosen;
                    t.lastHigh = high_energy[pc];
                }
                any_issued = true;
                --dispatch_left;

                // Conditional-branch mispredictions (deterministic
                // fractional accounting of the expected penalty).
                if (fl & DecodedProgram::kCondBranch) {
                    t.mispredictDebt += mispredict_inc[pc];
                    double whole = std::floor(t.mispredictDebt);
                    if (whole >= 1.0) {
                        t.blockUntil = now + whole;
                        t.mispredictDebt -= whole;
                    }
                }

                // Advance, wrapping at the end of the thread's
                // own loop body.
                ++t.pc;
                if (t.pc == t.end) {
                    t.pc = t.begin;
                    ++t.iter;
                }
            }
        }

        // Hidden unit-overlap power: cycles in which several
        // different units fire cost extra (simultaneous switching on
        // shared dispatch/bypass resources). This is what makes
        // instruction *order* matter for power (Section 6).
        int u_cnt = __builtin_popcount(issued_units);
        if (u_cnt >= 2) {
            double e = opts.overlapNjPerCycle *
                       std::pow(u_cnt - 1.0, 1.5);
            live.energyNj += e;
            live.overlapNj += e;
        }

        ++cycle_count;
        if (any_issued || min_blocker <= now + 1.0 + kEps) {
            now += 1.0;
        } else if (min_blocker > 1e299) {
            panic(cat("deadlocked simulation in ", dec.name));
        } else {
            now = std::ceil(min_blocker - kEps);
        }

        if (!measuring && allReached(warm)) {
            measuring = true;
            snapshot = live;
            snapshot_time = now;
        }
        if (measuring && allReached(target))
            break;
        if (now > kMaxCycles)
            panic(cat("simulation of ", dec.name,
                      " exceeded cycle cap"));
    }

    CoreResult res;
    res.window = live - snapshot;
    res.window.cycles = now - snapshot_time;
    res.iterations = static_cast<int>(target - warm);
    res.threads = threads;
    return res;
}

namespace
{

/** Validate, decode and run: the shared body of simulateCore and
 * simulateCoreHetero. */
CoreResult
decodeAndSimulate(const ExecModel &exec,
                  const std::vector<const Program *> &progs,
                  int threads, const CoreSimOptions &opts)
{
    if (threads != 1 && threads != 2 && threads != 4)
        fatal(cat("simulateCore: bad SMT thread count ", threads));
    const Isa *isa = nullptr;
    for (const Program *p : progs) {
        if (!p || p->body.empty())
            fatal("simulateCore: empty program");
        if (!p->isa)
            panic("simulateCore: program without ISA");
        if (isa && p->isa != isa)
            fatal("simulateCore: heterogeneous deployment must "
                  "share one ISA");
        isa = p->isa;
    }
    DecodedProgram dec;
    exec.decode(progs, opts.mispredictPenalty, opts.transitionGateNj,
                dec);
    SimScratch scratch;
    return simulateCoreDecoded(dec, threads, opts, scratch);
}

} // namespace

CoreResult
simulateCore(const ExecModel &exec, const Program &prog, int threads,
             const CoreSimOptions &opts)
{
    return decodeAndSimulate(exec, {&prog}, threads, opts);
}

CoreResult
simulateCoreHetero(const ExecModel &exec,
                   const std::vector<const Program *> &thread_progs,
                   const CoreSimOptions &opts)
{
    return decodeAndSimulate(exec, thread_progs,
                             static_cast<int>(thread_progs.size()),
                             opts);
}

} // namespace mprobe
