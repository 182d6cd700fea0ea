/**
 * @file
 * Standard pass implementations.
 */

#include "microprobe/passes.hh"

#include <algorithm>
#include <cmath>

#include "microprobe/arch.hh"
#include "util/logging.hh"

namespace mprobe
{

// ---------------------------------------------------------------
// SkeletonPass

SkeletonPass::SkeletonPass(size_t body_size,
                           const std::string &loop_branch)
    : bodySize(body_size), loopBranch(loop_branch)
{
    if (body_size < 2)
        fatal("SkeletonPass: body must have at least 2 slots");
}

std::string
SkeletonPass::name() const
{
    return cat("skeleton(endless loop of ", bodySize,
               " instructions)");
}

void
SkeletonPass::apply(Program &prog, const Architecture &arch,
                    Rng &) const
{
    prog.isa = &arch.isa();
    prog.body.clear();
    prog.streams.clear();
    Isa::OpIndex filler = arch.isa().find("ori");
    if (filler < 0)
        filler = 0;
    Isa::OpIndex branch = arch.isa().find(loopBranch);
    if (branch < 0)
        fatal(cat("SkeletonPass: loop branch '", loopBranch,
                  "' not in ISA"));
    prog.body.assign(bodySize, ProgInst{filler, 0, -1, 1.0f, 1.0f});
    // Closing count-down branch: always taken (endless loop).
    prog.body.back() = ProgInst{branch, 0, -1, 1.0f, 1.0f};
}

// ---------------------------------------------------------------
// InstructionMixPass

InstructionMixPass::InstructionMixPass(
    std::vector<Isa::OpIndex> candidates, std::vector<double> weights)
    : cands(std::move(candidates)), wts(std::move(weights))
{
    if (cands.empty())
        fatal("InstructionMixPass: empty candidate set");
    if (!wts.empty() && wts.size() != cands.size())
        fatal(cat("InstructionMixPass: ", wts.size(),
                  " weights for ", cands.size(), " candidates"));
    // apply() binary-searches the running sums, which only a
    // non-negative, finite weight vector keeps sorted.
    for (double w : wts)
        if (!std::isfinite(w) || w < 0.0)
            fatal(cat("InstructionMixPass: bad weight ", w,
                      " (want finite and >= 0)"));
}

std::string
InstructionMixPass::name() const
{
    return cat("distribution(", cands.size(), " candidates)");
}

void
InstructionMixPass::apply(Program &prog, const Architecture &,
                          Rng &rng) const
{
    if (prog.body.empty())
        fatal("InstructionMixPass: run SkeletonPass first");
    // Running sums, added left to right exactly as a linear scan
    // accumulates them, so the binary search below picks what that
    // scan would: the first candidate whose running sum exceeds r.
    std::vector<double> upto(cands.size());
    double total = 0.0;
    for (size_t i = 0; i < cands.size(); ++i) {
        total += wts.empty() ? 1.0 : wts[i];
        upto[i] = total;
    }
    if (total <= 0.0)
        fatal("InstructionMixPass: weights sum to zero");

    // All slots except the closing branch.
    for (size_t s = 0; s + 1 < prog.body.size(); ++s) {
        double r = rng.uniform() * total;
        auto it = std::upper_bound(upto.begin(), upto.end(), r);
        // r can round up to the total itself: candidate 0, as the
        // scan's fall-through always chose.
        size_t pick = it == upto.end()
                          ? 0
                          : static_cast<size_t>(it - upto.begin());
        prog.body[s].op = cands[pick];
    }
}

// ---------------------------------------------------------------
// SequencePass

SequencePass::SequencePass(std::vector<Isa::OpIndex> sequence)
    : seq(std::move(sequence))
{
    if (seq.empty())
        fatal("SequencePass: empty sequence");
}

std::string
SequencePass::name() const
{
    return cat("sequence(", seq.size(), " instructions replicated)");
}

void
SequencePass::apply(Program &prog, const Architecture &, Rng &) const
{
    if (prog.body.empty())
        fatal("SequencePass: run SkeletonPass first");
    for (size_t s = 0; s + 1 < prog.body.size(); ++s)
        prog.body[s].op = seq[s % seq.size()];
}

// ---------------------------------------------------------------
// MemoryModelPass

MemoryModelPass::MemoryModelPass(MemDistribution d,
                                 int streams_per_level)
    : dist(d), streamsPerLevel(streams_per_level)
{
    double sum = d.l1 + d.l2 + d.l3 + d.mem;
    if (sum < 0.999 || sum > 1.001)
        fatal(cat("MemoryModelPass: distribution sums to ", sum));
    if (streams_per_level < 1 || streams_per_level > 2)
        fatal("MemoryModelPass: 1 or 2 streams per level");
}

std::string
MemoryModelPass::name() const
{
    return cat("memory(L1=", dist.l1, " L2=", dist.l2, " L3=",
               dist.l3, " MEM=", dist.mem, ")");
}

void
MemoryModelPass::apply(Program &prog, const Architecture &arch,
                       Rng &) const
{
    if (!prog.isa)
        fatal("MemoryModelPass: run SkeletonPass first");
    AnalyticalCacheModel model(arch.uarch());

    // Collect memory slots (loads, stores, prefetch touches).
    std::vector<size_t> mem_slots;
    for (size_t s = 0; s + 1 < prog.body.size(); ++s) {
        const InstrDef &d = prog.isa->at(prog.body[s].op);
        if (d.isMemory() || d.prefetch)
            mem_slots.push_back(s);
    }
    if (mem_slots.empty())
        return;

    // Streams per level actually needed.
    int stream_ids[4] = {-1, -1, -1, -1};
    auto ensure_stream = [&](int level) {
        if (stream_ids[level] >= 0)
            return;
        stream_ids[level] = static_cast<int>(prog.streams.size());
        for (int k = 0; k < streamsPerLevel; ++k) {
            TargetedStream ts = model.makeStream(
                static_cast<HitLevel>(level), k);
            prog.streams.push_back(std::move(ts.stream));
        }
    };

    // Largest-remainder apportionment of slots to levels, then
    // spread assignments evenly through the body (interleaving the
    // levels rather than clustering them).
    size_t n = mem_slots.size();
    size_t counts[4];
    size_t assigned = 0;
    double rema[4];
    for (int l = 0; l < 4; ++l) {
        double want = dist.at(l) * static_cast<double>(n);
        counts[l] = static_cast<size_t>(want);
        rema[l] = want - static_cast<double>(counts[l]);
        assigned += counts[l];
    }
    while (assigned < n) {
        int best = 0;
        for (int l = 1; l < 4; ++l)
            if (rema[l] > rema[best])
                best = l;
        ++counts[best];
        rema[best] = -1.0;
        ++assigned;
    }

    size_t done[4] = {0, 0, 0, 0};
    int rr = 0;
    for (size_t i = 0; i < n; ++i) {
        // Pick the level furthest behind its quota.
        int pick = -1;
        double worst = -1e300;
        for (int l = 0; l < 4; ++l) {
            if (done[l] >= counts[l])
                continue;
            double deficit =
                static_cast<double>(counts[l]) *
                    static_cast<double>(i + 1) /
                    static_cast<double>(n) -
                static_cast<double>(done[l]);
            if (deficit > worst) {
                worst = deficit;
                pick = l;
            }
        }
        if (pick < 0)
            panic("MemoryModelPass: apportionment underflow");
        ensure_stream(pick);
        int sid = stream_ids[pick];
        if (streamsPerLevel > 1)
            sid += rr++ % streamsPerLevel;
        prog.body[mem_slots[i]].stream = sid;
        ++done[pick];
    }
}

// ---------------------------------------------------------------
// Register / immediate initialization

float
RegisterInitPass::toggleOf(DataPattern p)
{
    switch (p) {
      case DataPattern::Zero:   return 0.02f;
      case DataPattern::Alt01:  return 0.55f;
      case DataPattern::Random: return 1.00f;
    }
    panic("toggleOf: bad pattern");
}

RegisterInitPass::RegisterInitPass(DataPattern pattern) : pat(pattern)
{
}

std::string
RegisterInitPass::name() const
{
    return "init-registers";
}

void
RegisterInitPass::apply(Program &prog, const Architecture &,
                        Rng &) const
{
    float t = toggleOf(pat);
    for (auto &pi : prog.body)
        pi.toggle = t;
}

ImmediateInitPass::ImmediateInitPass(DataPattern pattern)
    : pat(pattern)
{
}

std::string
ImmediateInitPass::name() const
{
    return "init-immediates";
}

void
ImmediateInitPass::apply(Program &prog, const Architecture &,
                         Rng &) const
{
    if (!prog.isa)
        fatal("ImmediateInitPass: run SkeletonPass first");
    float t = RegisterInitPass::toggleOf(pat);
    for (auto &pi : prog.body) {
        if (prog.isa->at(pi.op).hasImm) {
            // Immediates feed one operand: average with the
            // register-side activity.
            pi.toggle = 0.5f * pi.toggle + 0.5f * t;
        }
    }
}

// ---------------------------------------------------------------
// DependencyDistancePass

DependencyDistancePass::DependencyDistancePass(int l, int h)
    : lo(l), hi(h)
{
    if (l < 0 || h < l)
        fatal(cat("DependencyDistancePass: bad range [", l, ",", h,
                  "]"));
}

DependencyDistancePass
DependencyDistancePass::chain()
{
    return DependencyDistancePass(1, 1);
}

DependencyDistancePass
DependencyDistancePass::none()
{
    return DependencyDistancePass(0, 0);
}

DependencyDistancePass
DependencyDistancePass::fixed(int d)
{
    return DependencyDistancePass(d, d);
}

DependencyDistancePass
DependencyDistancePass::random(int l, int h)
{
    return DependencyDistancePass(l, h);
}

std::string
DependencyDistancePass::name() const
{
    if (lo == hi)
        return cat("dependency-distance(", lo, ")");
    return cat("dependency-distance(random ", lo, "..", hi, ")");
}

void
DependencyDistancePass::apply(Program &prog, const Architecture &,
                              Rng &rng) const
{
    if (!prog.isa)
        fatal("DependencyDistancePass: run SkeletonPass first");
    for (auto &pi : prog.body) {
        const InstrDef &d = prog.isa->at(pi.op);
        if (d.isBranch()) {
            pi.depDist = 0;
            continue;
        }
        pi.depDist = lo == hi
                         ? lo
                         : static_cast<int>(rng.range(lo, hi));
    }
}

// ---------------------------------------------------------------
// UnrollPass

UnrollPass::UnrollPass(int f) : factor(f)
{
    if (f < 2)
        fatal("UnrollPass: factor must be >= 2");
}

std::string
UnrollPass::name() const
{
    return cat("unroll(x", factor, ")");
}

void
UnrollPass::apply(Program &prog, const Architecture &, Rng &) const
{
    if (!prog.isa || prog.body.empty())
        fatal("UnrollPass: run SkeletonPass first");
    // Body without the closing branch, replicated; one branch back.
    std::vector<ProgInst> inner(prog.body.begin(),
                                prog.body.end() - 1);
    ProgInst branch = prog.body.back();
    std::vector<ProgInst> out;
    out.reserve(inner.size() * static_cast<size_t>(factor) + 1);
    for (int k = 0; k < factor; ++k)
        out.insert(out.end(), inner.begin(), inner.end());
    out.push_back(branch);
    prog.body = std::move(out);
}

// ---------------------------------------------------------------
// SubstitutionPass

SubstitutionPass::SubstitutionPass(std::string from,
                                   std::vector<std::string> to)
    : fromName(std::move(from)), toNames(std::move(to))
{
    if (toNames.empty())
        fatal("SubstitutionPass: empty replacement sequence");
}

std::string
SubstitutionPass::name() const
{
    std::string seq;
    for (const auto &n : toNames)
        seq += (seq.empty() ? "" : "+") + n;
    return cat("substitute(", fromName, " -> ", seq, ")");
}

void
SubstitutionPass::apply(Program &prog, const Architecture &arch,
                        Rng &) const
{
    if (!prog.isa)
        fatal("SubstitutionPass: run SkeletonPass first");
    Isa::OpIndex from = arch.isa().find(fromName);
    if (from < 0)
        fatal(cat("SubstitutionPass: unknown instruction '",
                  fromName, "'"));
    std::vector<Isa::OpIndex> to;
    for (const auto &n : toNames) {
        Isa::OpIndex op = arch.isa().find(n);
        if (op < 0)
            fatal(cat("SubstitutionPass: unknown instruction '", n,
                      "'"));
        to.push_back(op);
    }
    std::vector<ProgInst> out;
    out.reserve(prog.body.size());
    for (const auto &pi : prog.body) {
        if (pi.op != from) {
            out.push_back(pi);
            continue;
        }
        for (size_t k = 0; k < to.size(); ++k) {
            ProgInst np = pi;
            np.op = to[k];
            if (k > 0) {
                // Later replacement instructions chain on the
                // first and carry no memory binding.
                np.depDist = 1;
                np.stream = -1;
            }
            const InstrDef &nd = arch.isa().at(np.op);
            if (!nd.isMemory() && !nd.prefetch)
                np.stream = -1;
            out.push_back(np);
        }
    }
    prog.body = std::move(out);
}

// ---------------------------------------------------------------
// BranchModelPass

BranchModelPass::BranchModelPass(size_t p, float taken_rate,
                                 const std::string &branch)
    : period(p), takenRate(taken_rate), branchName(branch)
{
    if (p < 2)
        fatal("BranchModelPass: period must be >= 2");
    if (taken_rate < 0.0f || taken_rate > 1.0f)
        fatal("BranchModelPass: taken rate out of [0,1]");
}

std::string
BranchModelPass::name() const
{
    return cat("branch(every ", period, ", taken ", takenRate, ")");
}

void
BranchModelPass::apply(Program &prog, const Architecture &arch,
                       Rng &) const
{
    if (prog.body.empty())
        fatal("BranchModelPass: run SkeletonPass first");
    Isa::OpIndex br = arch.isa().find(branchName);
    if (br < 0)
        fatal(cat("BranchModelPass: branch '", branchName,
                  "' not in ISA"));
    for (size_t s = period - 1; s + 1 < prog.body.size();
         s += period) {
        prog.body[s] =
            ProgInst{br, 0, -1, prog.body[s].toggle, takenRate};
    }
}

} // namespace mprobe
