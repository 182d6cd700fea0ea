/**
 * @file
 * Reference core simulator (tests only).
 *
 * The per-Program simulation loop the decoded engine replaced,
 * kept verbatim as the reference implementation: it walks each
 * thread's Program directly, looking up ExecModel and Isa records
 * per dispatched instruction. simulateCoreDecoded must reproduce
 * every CoreResult field of it bit for bit, on homogeneous runs and
 * heterogeneous co-runs alike (test_core_identity). It runs on the
 * frozen cache hierarchy of reference_cache.hh, so the check covers
 * the cache model as well as the cycle loop.
 */

#ifndef TESTS_REFERENCE_CORE_HH
#define TESTS_REFERENCE_CORE_HH

#include <algorithm>
#include <cmath>
#include <vector>

#include "reference_cache.hh"
#include "sim/core.hh"
#include "util/logging.hh"

namespace mprobe
{
namespace reference
{

constexpr double kEps = 1e-9;

/** Extra energy per access served beyond the L1 (ground truth). */
constexpr double kCacheEnergyNj[4] = {0.0, 1.1, 3.0, 7.5};

/** Hard cap so a malformed program cannot hang the simulator. */
constexpr double kMaxCycles = 200e6;

struct ThreadState
{
    const Program *prog = nullptr;
    size_t pc = 0;
    long iter = 0;
    int lastUnit = -1;
    double lastEnergyNj = 0.0;
    double blockUntil = 0.0;
    double mispredictDebt = 0.0;
    std::vector<double> readyAt;    // per body slot
    std::vector<size_t> cursors;    // per stream
};

/** Address transform giving each hardware thread disjoint lines. */
inline uint64_t
threadAddr(uint64_t addr, int tid)
{
    return addr + (static_cast<uint64_t>(tid) << 10) +
           (static_cast<uint64_t>(tid) << 40);
}

inline CoreResult
simulateCoreHetero(const ExecModel &exec,
                   const std::vector<const Program *> &thread_progs,
                   const CoreSimOptions &opts)
{
    const int threads = static_cast<int>(thread_progs.size());
    if (threads != 1 && threads != 2 && threads != 4)
        fatal(cat("simulateCore: bad SMT thread count ", threads));
    const Isa *isa = nullptr;
    for (const Program *p : thread_progs) {
        if (!p || p->body.empty())
            fatal("simulateCore: empty program");
        if (!p->isa)
            panic("simulateCore: program without ISA");
        if (isa && p->isa != isa)
            fatal("simulateCore: heterogeneous deployment must "
                  "share one ISA");
        isa = p->isa;
    }

    const int lat_mem = opts.memLatency;

    reference::CacheHierarchy cache(
        opts.cacheGeoms.empty() ? mprobe::CacheHierarchy::p7Geometry()
                                : opts.cacheGeoms,
        opts.prefetch);

    std::vector<ThreadState> ts(static_cast<size_t>(threads));
    for (int i = 0; i < threads; ++i) {
        ThreadState &t = ts[static_cast<size_t>(i)];
        t.prog = thread_progs[static_cast<size_t>(i)];
        t.readyAt.assign(t.prog->body.size(), 0.0);
        t.cursors.assign(t.prog->streams.size(), 0);
    }

    // Per-unit pipe tokens: nextFree time per pipe.
    std::vector<double> pipe[kNumUnits];
    for (int u = 0; u < kNumUnits; ++u)
        pipe[u].assign(
            static_cast<size_t>(ExecModel::pipes(
                static_cast<Unit>(u))),
            -1.0);

    RunCounters live;        // running totals since t=0
    RunCounters snapshot;    // totals at end of warm-up
    double snapshot_time = 0.0;
    bool measuring = false;

    const long warm = opts.warmupIters;
    const long target = warm + opts.measureIters;

    double now = 0.0;
    uint64_t cycle_count = 0;

    auto allReached = [&](long it) {
        for (const auto &t : ts)
            if (t.iter < it)
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
            ThreadState &t = ts[static_cast<size_t>(tid)];
            const Program &prog = *t.prog;
            const size_t n = prog.body.size();
            while (dispatch_left > 0) {
                if (t.blockUntil > now + kEps) {
                    min_blocker = std::min(min_blocker, t.blockUntil);
                    break;
                }
                const ProgInst &pi = prog.body[t.pc];
                const ExecInfo &ei = exec.info(pi.op);

                if (pi.depDist > 0) {
                    size_t src =
                        (t.pc + n -
                         static_cast<size_t>(pi.depDist) % n) % n;
                    if (t.readyAt[src] > now + kEps) {
                        min_blocker =
                            std::min(min_blocker, t.readyAt[src]);
                        break;
                    }
                }

                // Pick an execution unit with enough free pipes.
                int chosen = -1;
                for (int u = 0; u < kNumUnits; ++u) {
                    if (!ei.allows(static_cast<Unit>(u)))
                        continue;
                    int free_pipes = 0;
                    for (double nf : pipe[u])
                        if (nf <= now + kEps)
                            ++free_pipes;
                    if (free_pipes >= ei.pipesNeeded) {
                        chosen = u;
                        break;
                    }
                }
                if (chosen < 0) {
                    // Structural stall: track the earliest pipe on
                    // any allowed unit.
                    for (int u = 0; u < kNumUnits; ++u) {
                        if (!ei.allows(static_cast<Unit>(u)))
                            continue;
                        for (double nf : pipe[u])
                            min_blocker = std::min(min_blocker, nf);
                    }
                    break;
                }

                // Occupy the pipes (token scheme preserves
                // fractional issue intervals under an integer clock).
                double ii = ei.issueInterval;
                if (chosen == static_cast<int>(Unit::LSU) &&
                    !ei.isMem) {
                    // Simple integer ops borrow LSU address-gen
                    // slots at reduced bandwidth.
                    ii = 4.0 / 3.0;
                }
                int occupied = 0;
                for (double &nf : pipe[chosen]) {
                    if (occupied == ei.pipesNeeded)
                        break;
                    if (nf <= now + kEps) {
                        nf = std::max(nf, now - 1.0 + kEps) + ii;
                        ++occupied;
                    }
                }

                // Execute.
                double lat = ei.latency;
                if (ei.isMem) {
                    HitLevel lvl = HitLevel::L1;
                    if (pi.stream >= 0) {
                        MemStream const &ms = prog.streams[
                            static_cast<size_t>(pi.stream)];
                        size_t &cur = t.cursors[
                            static_cast<size_t>(pi.stream)];
                        uint64_t addr = threadAddr(
                            ms.lines[cur % ms.lines.size()], tid);
                        cur = (cur + 1) % ms.lines.size();
                        lvl = cache.access(addr);
                    }
                    int l = static_cast<int>(lvl);
                    switch (lvl) {
                      case HitLevel::L1: live.l1Hits += 1; break;
                      case HitLevel::L2: live.l2Hits += 1; break;
                      case HitLevel::L3: live.l3Hits += 1; break;
                      case HitLevel::Mem: live.memAcc += 1; break;
                    }
                    double mem_lat =
                        l < 3 ? ExecModel::loadToUse[l] : lat_mem;
                    if (ei.isStore) {
                        lat = 1.0;
                        // Store-queue back-pressure: deep misses
                        // hold the pipe longer.
                        pipe[chosen][0] += mem_lat * 0.125;
                    } else {
                        lat = mem_lat;
                    }
                    live.energyNj += kCacheEnergyNj[l];
                }
                t.readyAt[t.pc] = now + lat;

                // Secondary micro-ops (address update / sign
                // extension on the FXU; store data steering on the
                // VSU). Best effort: they consume bandwidth but do
                // not gate issue.
                int fxu = static_cast<int>(Unit::FXU);
                for (int xo = 0; xo < ei.extraFxuOps; ++xo) {
                    auto it = std::min_element(pipe[fxu].begin(),
                                               pipe[fxu].end());
                    *it = std::max(*it, now - 1.0 + kEps) + 1.0;
                    live.fxuOps += 1;
                }
                if (ei.usesVsuSteering) {
                    int vsu = static_cast<int>(Unit::VSU);
                    auto it = std::min_element(pipe[vsu].begin(),
                                               pipe[vsu].end());
                    *it = std::max(*it, now - 1.0 + kEps) + 1.0;
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
                if (ei.isMem) {
                    if (ei.isStore)
                        live.stores += 1;
                    else
                        live.loads += 1;
                }

                // Data-dependent dynamic energy.
                double act = 1.0 - ei.toggleSens +
                             ei.toggleSens * pi.toggle;
                live.energyNj += ei.energyNj * act;

                if (chosen <= static_cast<int>(Unit::VSU)) {
                    issued_units |= 1u << chosen;
                    if (t.lastUnit >= 0 && t.lastUnit != chosen &&
                        t.lastEnergyNj >= opts.transitionGateNj &&
                        ei.energyNj >= opts.transitionGateNj) {
                        live.energyNj += opts.transitionNjPerInstr;
                        live.transitionNj +=
                            opts.transitionNjPerInstr;
                    }
                    t.lastUnit = chosen;
                    t.lastEnergyNj = ei.energyNj;
                }
                any_issued = true;
                --dispatch_left;

                // Conditional-branch mispredictions (deterministic
                // fractional accounting of the expected penalty).
                const InstrDef &idef = isa->at(pi.op);
                if (idef.isBranch() && pi.takenRate > 0.0f &&
                    pi.takenRate < 1.0f) {
                    double p = pi.takenRate;
                    t.mispredictDebt +=
                        opts.mispredictPenalty * 2.0 * p * (1.0 - p);
                    double whole = std::floor(t.mispredictDebt);
                    if (whole >= 1.0) {
                        t.blockUntil = now + whole;
                        t.mispredictDebt -= whole;
                    }
                }

                // Advance, wrapping at the loop end.
                ++t.pc;
                if (t.pc == n) {
                    t.pc = 0;
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
            panic(cat("deadlocked simulation in ",
                      thread_progs[0]->name));
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
            panic(cat("simulation of ", thread_progs[0]->name,
                      " exceeded cycle cap"));
    }

    CoreResult res;
    res.window = live - snapshot;
    res.window.cycles = now - snapshot_time;
    res.iterations = static_cast<int>(target - warm);
    res.threads = threads;
    return res;
}

inline CoreResult
simulateCore(const ExecModel &exec, const Program &prog, int threads,
             const CoreSimOptions &opts)
{
    if (threads != 1 && threads != 2 && threads != 4)
        fatal(cat("simulateCore: bad SMT thread count ", threads));
    std::vector<const Program *> progs(
        static_cast<size_t>(threads), &prog);
    return reference::simulateCoreHetero(exec, progs, opts);
}

} // namespace reference
} // namespace mprobe

#endif // TESTS_REFERENCE_CORE_HH
