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

/** A time nothing reaches: "no bound found" for every earliest-time
 * scan, and the free time of the pipe slots that are never free. */
constexpr double kNever = 1e300;

// Flattened per-unit pipe tokens. Every unit but the VSU has two
// slots: FXU and LSU have two pipes (ExecModel::pipes), and BRU and
// CRU have one pipe plus a slot that is never free (kNever), so a
// one-pipe op picks its pipe and a unit's earliest free time is
// found without a loop. The VSU has four pipes.
constexpr int kPipeOff[kNumUnits] = {0, 2, 4, 8, 10};
constexpr int kPipeCnt[kNumUnits] = {2, 2, 4, 2, 2};
constexpr int kNumPipes = 12;
constexpr int kFxu = static_cast<int>(Unit::FXU);
constexpr int kVsu = static_cast<int>(Unit::VSU);

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
    /** Earliest time the thread can issue again, recorded when it
     * stalls; the loop does not probe it before then. */
    double wake = 0.0;
    double *readyAt = nullptr;    // per body slot
    uint32_t *cursors = nullptr;  // per stream
    /** The thread's next access in the access trace (traced loop). */
    size_t traceAt = 0;
};

/** Units that fired in a step, by its mask of FXU, LSU and VSU. */
constexpr int kUnitsFired[8] = {0, 1, 1, 2, 1, 2, 2, 3};

/** Pipes of unit @p u free at @p horizon; lowers @p busy to the
 * earliest free time of the others. */
inline int
scanPipes(const double *pipes, int u, double horizon, double &busy)
{
    const double *p = pipes + kPipeOff[u];
    int free_pipes = 0;
    for (int w = 0; w < kPipeCnt[u]; ++w) {
        if (p[w] <= horizon)
            ++free_pipes;
        else
            busy = std::min(busy, p[w]);
    }
    return free_pipes;
}

/** Earliest free time of any pipe of unit @p u, free ones included. */
inline double
earliestPipe(const double *pipes, int u)
{
    const double *p = pipes + kPipeOff[u];
    double t = std::min(p[0], p[1]);
    if (u == kVsu)
        t = std::min(t, std::min(p[2], p[3]));
    return t;
}

/**
 * The cycle loop at a fixed SMT width @p N (1, 2 or 4), over threads
 * @p ts set up by simulateCoreDecoded, into @p res. A fixed width
 * unrolls the per-thread loops and makes the dispatch rotation a
 * wrapping counter, which advances on every scheduler step,
 * including steps that issue nothing.
 *
 * The live loop (@p Traced false) serves each memory access from
 * @p cache. The traced loop reads each thread's next hit level from
 * @p trace instead and never touches a cache; it returns false,
 * with @p res unset, when a thread needs an access past the trace's
 * end.
 *
 * Two skips keep the result bit-identical to probing every thread
 * in every step. They rest on the scheduler invariants listed in
 * docs/MODEL.md: pipe free times never decrease, and a thread's
 * blockUntil, readyAt and pc change only when that thread issues.
 * (1) A stalled thread records its wake time: its blockUntil, its
 * source's readyAt, or the earliest busy pipe of its allowed units.
 * It cannot issue before then, so steps before then do not probe
 * it. (2) A step in which nothing issued changed no state, so its
 * stall-skip target is computed after the step, and only in such
 * steps, by the original per-thread rules.
 */
template <int N, bool Traced>
bool
runCoreLoop(const DecodedProgram &dec, const CoreSimOptions &opts,
            CacheHierarchy *cache, const AccessTrace *trace,
            DecodedThread *ts, CoreResult &res)
{
    const int lat_mem = opts.memLatency;

    double pipes[kNumPipes];
    for (double &nf : pipes)
        nf = -1.0;
    pipes[kPipeOff[static_cast<int>(Unit::BRU)] + 1] = kNever;
    pipes[kPipeOff[static_cast<int>(Unit::CRU)] + 1] = kNever;
    // Each unit's earliest pipe free time, kept current at every
    // pipe write (docs/MODEL.md, "Scheduler invariants").
    double earliest[kNumUnits];
    for (int u = 0; u < kNumUnits; ++u)
        earliest[u] = earliestPipe(pipes, u);

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
    const uint64_t *trace_levels = Traced ? trace->levels.data() : nullptr;
    const size_t trace_len = Traced ? trace->accesses : 0;

    // Hidden unit-overlap energy of a step in which 2 or 3 of the
    // FXU, LSU and VSU fire (the only units that count).
    double overlap_nj[4] = {0.0, 0.0, 0.0, 0.0};
    for (int u_cnt = 2; u_cnt <= 3; ++u_cnt)
        overlap_nj[u_cnt] =
            opts.overlapNjPerCycle * std::pow(u_cnt - 1.0, 1.5);

    RunCounters live;
    RunCounters snapshot;
    double snapshot_time = 0.0;
    bool measuring = false;

    const long warm = opts.warmupIters;
    const long target = warm + opts.measureIters;
    // Threads whose iteration count has reached warm / target.
    int at_warm = warm <= 0 ? N : 0;
    int at_target = target <= 0 ? N : 0;

    double now = 0.0;
    // The thread that probes first: the step count modulo N.
    int first = 0;

    for (;;) {
        const double horizon = now + kEps;
        unsigned ready = 0;
        for (int i = 0; i < N; ++i)
            ready |= static_cast<unsigned>(ts[i].wake <= horizon) << i;

        int dispatch_left = ExecModel::dispatchWidth;
        uint32_t issued_units = 0;
        // The ready threads in rotation order: bit k of order is
        // thread first + k (mod N).
        unsigned order = ((ready >> first) | (ready << (N - first))) &
                         ((1u << N) - 1);
        while (order != 0 && dispatch_left > 0) {
            int tid = first + __builtin_ctz(order);
            order &= order - 1;
            if (tid >= N)
                tid -= N;
            DecodedThread &t = ts[tid];
            while (dispatch_left > 0) {
                if (t.blockUntil > horizon) {
                    t.wake = t.blockUntil;
                    break;
                }
                const size_t pc = t.pc;

                int32_t src = dep_src[pc];
                if (src >= 0 && t.readyAt[src] > horizon) {
                    t.wake = t.readyAt[src];
                    break;
                }

                // Pick an execution unit with enough free pipes
                // (ascending unit order). A one-pipe op needs one
                // free pipe, which its unit has exactly when the
                // unit's earliest free time is due; if neither unit
                // has one, every pipe of both is busy, and the
                // earlier earliest time is the wake.
                const int need = pipes_needed[pc];
                const int u0 = unit_first[pc];
                const int u1 = unit_second[pc];
                int chosen = -1;
                if (need == 1) {
                    if (earliest[u0] <= horizon)
                        chosen = u0;
                    else if (u1 >= 0 && earliest[u1] <= horizon)
                        chosen = u1;
                    if (chosen < 0) {
                        t.wake = u1 >= 0 ? std::min(earliest[u0],
                                                    earliest[u1])
                                         : earliest[u0];
                        break;
                    }
                } else {
                    double busy = kNever;
                    if (scanPipes(pipes, u0, horizon, busy) >= need)
                        chosen = u0;
                    else if (u1 >= 0 &&
                             scanPipes(pipes, u1, horizon, busy) >= need)
                        chosen = u1;
                    if (chosen < 0) {
                        // Structural stall: the free pipes are too
                        // few, so a busy pipe must free up first.
                        t.wake = busy;
                        break;
                    }
                }

                // Occupy the pipes (token scheme preserves
                // fractional issue intervals under an integer clock),
                // the first free ones in slot order.
                const uint8_t fl = flags[pc];
                double ii = issue_interval[pc];
                if (chosen == static_cast<int>(Unit::LSU) &&
                    !(fl & DecodedProgram::kMem)) {
                    // Simple integer ops borrow LSU address-gen
                    // slots at reduced bandwidth.
                    ii = 4.0 / 3.0;
                }
                double *cp = pipes + kPipeOff[chosen];
                if (need == 1 && chosen != kVsu) {
                    const int w = cp[0] <= horizon ? 0 : 1;
                    cp[w] = std::max(cp[w], now - 1.0 + kEps) + ii;
                } else {
                    int occupied = 0;
                    for (int w = 0; w < kPipeCnt[chosen]; ++w) {
                        if (occupied == need)
                            break;
                        if (cp[w] <= horizon) {
                            cp[w] =
                                std::max(cp[w], now - 1.0 + kEps) + ii;
                            ++occupied;
                        }
                    }
                }
                earliest[chosen] = earliestPipe(pipes, chosen);

                // Execute.
                double lat = latency[pc];
                if (fl & DecodedProgram::kMem) {
                    int l = 0;
                    const int32_t sid = stream_id[pc];
                    if (sid >= 0) {
                        if constexpr (Traced) {
                            const size_t k = t.traceAt++;
                            if (k == trace_len)
                                return false;
                            l = static_cast<int>(
                                AccessTrace::unpack(trace_levels, k));
                        } else {
                            uint32_t &cur = t.cursors[sid];
                            uint64_t addr = threadAddr(
                                stream_lines[stream_off[sid] + cur], tid);
                            if (++cur == stream_len[sid])
                                cur = 0;
                            l = static_cast<int>(cache->access(addr));
                        }
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
                        earliest[chosen] = earliestPipe(pipes, chosen);
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
                    double *fp = pipes + kPipeOff[kFxu];
                    const int best = fp[1] < fp[0] ? 1 : 0;
                    fp[best] =
                        std::max(fp[best], now - 1.0 + kEps) + 1.0;
                    earliest[kFxu] = std::min(fp[0], fp[1]);
                    live.fxuOps += 1;
                }
                if (fl & DecodedProgram::kVsuSteer) {
                    double *vp = pipes + kPipeOff[kVsu];
                    int best = 0;
                    for (int w = 1; w < kPipeCnt[kVsu]; ++w)
                        if (vp[w] < vp[best])
                            best = w;
                    vp[best] =
                        std::max(vp[best], now - 1.0 + kEps) + 1.0;
                    earliest[kVsu] = earliestPipe(pipes, kVsu);
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
                    at_warm += t.iter == warm;
                    at_target += t.iter == target;
                }
            }
        }

        // Hidden unit-overlap power: cycles in which several
        // different units fire cost extra (simultaneous switching on
        // shared dispatch/bypass resources). This is what makes
        // instruction *order* matter for power (Section 6).
        const int u_cnt = kUnitsFired[issued_units];
        if (u_cnt >= 2) {
            live.energyNj += overlap_nj[u_cnt];
            live.overlapNj += overlap_nj[u_cnt];
        }

        if (++first == N)
            first = 0;
        if (dispatch_left < ExecModel::dispatchWidth) {
            now += 1.0;
        } else {
            // Nothing issued, so every thread stalled on the state
            // it started the step with. Each thread's stall bound:
            // its mispredict block, else its pending source, else
            // the earliest pipe of its allowed units. Free pipes
            // count there, so a free but insufficient pipe forces a
            // one-cycle advance.
            double min_blocker = kNever;
            for (int i = 0; i < N; ++i) {
                const DecodedThread &t = ts[i];
                const int32_t src = dep_src[t.pc];
                if (t.blockUntil > horizon) {
                    min_blocker = std::min(min_blocker, t.blockUntil);
                } else if (src >= 0 && t.readyAt[src] > horizon) {
                    min_blocker = std::min(min_blocker, t.readyAt[src]);
                } else {
                    const int u0 = unit_first[t.pc];
                    const int u1 = unit_second[t.pc];
                    min_blocker = std::min(min_blocker, earliest[u0]);
                    if (u1 >= 0)
                        min_blocker = std::min(min_blocker, earliest[u1]);
                }
            }
            if (min_blocker <= now + 1.0 + kEps)
                now += 1.0;
            else if (min_blocker > 1e299)
                panic(cat("deadlocked simulation in ", dec.name));
            else
                now = std::ceil(min_blocker - kEps);
        }

        if (!measuring && at_warm == N) {
            measuring = true;
            snapshot = live;
            snapshot_time = now;
        }
        if (measuring && at_target == N)
            break;
        if (now > kMaxCycles)
            panic(cat("simulation of ", dec.name,
                      " exceeded cycle cap"));
    }

    res.window = live - snapshot;
    res.window.cycles = now - snapshot_time;
    res.iterations = static_cast<int>(target - warm);
    res.threads = N;
    return true;
}

/** runCoreLoop at the width @p threads (1, 2 or 4). */
template <bool Traced>
bool
runAtWidth(int threads, const DecodedProgram &dec,
           const CoreSimOptions &opts, CacheHierarchy *cache,
           const AccessTrace *trace, DecodedThread *ts, CoreResult &res)
{
    switch (threads) {
      case 1: return runCoreLoop<1, Traced>(dec, opts, cache, trace, ts, res);
      case 2: return runCoreLoop<2, Traced>(dec, opts, cache, trace, ts, res);
      default: return runCoreLoop<4, Traced>(dec, opts, cache, trace, ts, res);
    }
}

/** Fresh per-thread state for a simulation of @p threads threads,
 * its arrays from @p arena (reset first). */
void
initThreads(const DecodedProgram &dec, int threads, SimArena &arena,
            DecodedThread *ts)
{
    arena.reset();
    const size_t ranges = dec.threadSlots.size();
    const size_t n = dec.bodySize;
    const size_t n_streams = dec.streamLen.size();
    for (int i = 0; i < threads; ++i) {
        DecodedThread &t = ts[i];
        t = DecodedThread();
        const DecodedProgram::SlotRange &r =
            dec.threadSlots[ranges == 1 ? 0 : static_cast<size_t>(i)];
        t.pc = t.begin = r.begin;
        t.end = r.end;
        t.lastHigh = 0.0 >= dec.transitionGateNj;
        t.readyAt = arena.alloc<double>(n);
        std::fill(t.readyAt, t.readyAt + n, 0.0);
        t.cursors = arena.alloc<uint32_t>(n_streams);
        std::fill(t.cursors, t.cursors + n_streams, 0u);
    }
}

/** Whether two hierarchies have the same levels. */
bool
sameGeometry(const std::vector<CacheGeometry> &a,
             const std::vector<CacheGeometry> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (a[i].sizeBytes != b[i].sizeBytes || a[i].assoc != b[i].assoc ||
            a[i].lineBytes != b[i].lineBytes)
            return false;
    return true;
}

/**
 * Whether, at every level of @p geoms, each set that holds lines of
 * two or more of @p n threads walking @p addrs holds at most assoc
 * lines in total.
 */
bool
sharedSetsFit(const std::vector<uint64_t> &addrs,
              const std::vector<CacheGeometry> &geoms, int n)
{
    const uint64_t line_bytes = static_cast<uint64_t>(geoms[0].lineBytes);
    std::vector<uint64_t> lines;
    for (uint64_t a : addrs)
        lines.push_back(a / line_bytes);
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
    std::vector<uint64_t> keys; // set * 4 + thread, one per line
    for (const CacheGeometry &g : geoms) {
        const uint64_t set_mask = g.sets() - 1;
        keys.clear();
        for (int t = 0; t < n; ++t)
            for (uint64_t line : lines)
                keys.push_back(
                    ((threadAddr(line * line_bytes, t) / line_bytes) &
                     set_mask) * 4 +
                    static_cast<uint64_t>(t));
        std::sort(keys.begin(), keys.end());
        for (size_t i = 0, j = 0; i < keys.size(); i = j) {
            unsigned owners = 0;
            for (j = i; j < keys.size() && keys[j] / 4 == keys[i] / 4; ++j)
                owners |= 1u << (keys[j] % 4);
            const bool shared = (owners & (owners - 1)) != 0;
            if (shared && j - i > static_cast<size_t>(g.assoc))
                return false;
        }
    }
    return true;
}

} // namespace

CacheHierarchy &
SimScratch::cache(const std::vector<CacheGeometry> &geoms,
                  bool prefetch)
{
    if (!hier || hierPrefetch != prefetch ||
        !sameGeometry(hierGeoms, geoms)) {
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
                    const CoreSimOptions &opts, SimScratch &scratch,
                    const AccessTrace *trace, TraceUse *use)
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

    if (trace && (trace->bodySize != dec.bodySize ||
                  trace->prefetch != opts.prefetch ||
                  !sameGeometry(trace->cacheGeoms, opts.cacheGeoms)))
        panic(cat("simulateCoreDecoded: the access trace was recorded "
                  "for another program or cache configuration than ",
                  dec.name));

    DecodedThread ts[4];
    CoreResult res;
    const bool traced = trace && ranges == 1 && trace->validAt(threads);
    if (traced) {
        initThreads(dec, threads, scratch.arena, ts);
        if (runAtWidth<true>(threads, dec, opts, nullptr, trace, ts,
                             res)) {
            if (use)
                *use = TraceUse::Traced;
            return res;
        }
    }
    if (use)
        *use = traced ? TraceUse::Overflowed : TraceUse::Live;

    CacheHierarchy &cache =
        opts.cacheGeoms.empty()
            ? scratch.cache(CacheHierarchy::p7Geometry(),
                            opts.prefetch)
            : scratch.cache(opts.cacheGeoms, opts.prefetch);
    initThreads(dec, threads, scratch.arena, ts);
    runAtWidth<false>(threads, dec, opts, &cache, nullptr, ts, res);
    return res;
}

AccessTrace
buildAccessTrace(const DecodedProgram &dec, const CoreSimOptions &opts,
                 SimScratch &scratch)
{
    AccessTrace trace;
    trace.bodySize = dec.bodySize;
    trace.cacheGeoms = opts.cacheGeoms;
    trace.prefetch = opts.prefetch;
    if (dec.threadSlots.size() != 1)
        return trace;
    const std::vector<CacheGeometry> geoms =
        opts.cacheGeoms.empty() ? CacheHierarchy::p7Geometry()
                                : opts.cacheGeoms;

    // The rules every width needs (docs/MODEL.md, "Access-level
    // traces"): thread offsets are whole lines, line 0 and line 1
    // fall in different sets, every address is below 2^39, and no
    // program reads both line 0 and line 1, the line the
    // prefetcher's start-up fill brings in.
    const uint64_t line_bytes = static_cast<uint64_t>(geoms[0].lineBytes);
    bool valid = line_bytes <= 1024;
    for (const CacheGeometry &g : geoms)
        valid = valid && g.sets() >= 2;
    bool line0 = false, line1 = false;
    for (uint64_t a : dec.streamLines) {
        valid = valid && a < (1ull << 39);
        line0 = line0 || a / line_bytes == 0;
        line1 = line1 || a / line_bytes == 1;
    }
    const DecodedProgram::SlotRange r = dec.threadSlots[0];
    auto accesses = [&](size_t pc) {
        return (dec.flags[pc] & DecodedProgram::kMem) && dec.stream[pc] >= 0;
    };
    size_t per_iter = 0;
    for (size_t pc = r.begin; pc < r.end; ++pc)
        per_iter += accesses(pc);
    if (!valid || (line0 && line1) || per_iter == 0)
        return trace;

    // Hardware thread 1's accesses, in its program order. Its
    // offset keeps the start-up prefetch from firing.
    CacheHierarchy &cache = scratch.cache(geoms, opts.prefetch);
    std::vector<uint32_t> cursors(dec.streamLen.size(), 0u);
    const long iters =
        std::max(1L, static_cast<long>(opts.warmupIters) +
                         opts.measureIters + 1);
    trace.levels.assign((per_iter * static_cast<size_t>(iters) + 31) / 32,
                        0);
    for (long it = 0; it < iters; ++it)
        for (size_t pc = r.begin; pc < r.end; ++pc) {
            if (!accesses(pc))
                continue;
            const int32_t sid = dec.stream[pc];
            uint32_t &cur = cursors[static_cast<size_t>(sid)];
            const uint64_t addr =
                dec.streamLines[dec.streamOffset[sid] + cur];
            if (++cur == dec.streamLen[sid])
                cur = 0;
            const size_t k = trace.accesses++;
            trace.levels[k >> 5] |=
                static_cast<uint64_t>(cache.access(threadAddr(addr, 1)))
                << ((k & 31) * 2);
        }

    trace.validWidths = 1u << 1;
    if (cache.prefetchFills() == 0)
        for (int n : {2, 4})
            if (sharedSetsFit(dec.streamLines, geoms, n))
                trace.validWidths |= 1u << n;
    return trace;
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
