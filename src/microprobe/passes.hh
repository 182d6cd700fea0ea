/**
 * @file
 * Repository of standard synthesizer passes.
 *
 * These are the configurable building blocks of generation policies:
 * program skeleton, instruction distribution (weighted mix or exact
 * sequence), memory behaviour through the analytical cache model,
 * branch behaviour, data initialization, and ILP via dependency
 * distances.
 */

#ifndef MICROPROBE_PASSES_HH
#define MICROPROBE_PASSES_HH

#include <map>
#include <memory>
#include <vector>

#include "microprobe/cache_model.hh"
#include "microprobe/pass.hh"

namespace mprobe
{

/**
 * Pass 1: define the program skeleton — a single endless loop of
 * @p bodySize instructions (filler + closing branch), the common
 * shape of every micro-benchmark in the paper (Table 2).
 */
class SkeletonPass : public Pass
{
  public:
    explicit SkeletonPass(size_t body_size = 4096,
                          const std::string &loop_branch = "bdnz");

    std::string name() const override;
    void apply(Program &prog, const Architecture &arch,
               Rng &rng) const override;

  private:
    size_t bodySize;
    std::string loopBranch;
};

/**
 * Pass 2 (mix form): fill the non-branch slots with instructions
 * drawn from weighted candidates. Equal weights when none given.
 */
class InstructionMixPass : public Pass
{
  public:
    explicit InstructionMixPass(std::vector<Isa::OpIndex> candidates,
                                std::vector<double> weights = {});

    std::string name() const override;
    void apply(Program &prog, const Architecture &arch,
               Rng &rng) const override;

  private:
    std::vector<Isa::OpIndex> cands;
    std::vector<double> wts;
};

/**
 * Pass 2 (sequence form): replicate an exact instruction sequence
 * across the body — the shape used for the max-power stressmarks
 * (Section 6: "the sequence of 6 instructions that when replicated
 * within an endless loop of 4K instructions ... maximizes power").
 */
class SequencePass : public Pass
{
  public:
    explicit SequencePass(std::vector<Isa::OpIndex> sequence);

    std::string name() const override;
    void apply(Program &prog, const Architecture &arch,
               Rng &rng) const override;

  private:
    std::vector<Isa::OpIndex> seq;
};

/**
 * Pass 3: model the memory behaviour. Assigns every memory
 * instruction to a guaranteed-hit-level stream so the program's
 * accesses follow the requested distribution across the hierarchy
 * (e.g. "L1 = 33%, L2 = 33%, L3 = 34%" in Figure 2).
 */
class MemoryModelPass : public Pass
{
  public:
    explicit MemoryModelPass(MemDistribution dist,
                             int streams_per_level = 1);

    std::string name() const override;
    void apply(Program &prog, const Architecture &arch,
               Rng &rng) const override;

    const MemDistribution &distribution() const { return dist; }

  private:
    MemDistribution dist;
    int streamsPerLevel;
};

/** Data initialization patterns for registers and immediates. */
enum class DataPattern
{
    Zero,    //!< all zeroes: minimal switching
    Alt01,   //!< 0b01010101... constant pattern
    Random   //!< random values: maximal fair switching (default for
             //!< EPI comparisons, after Tiwari et al.)
};

/** Pass 4: initialize register contents (sets data activity). */
class RegisterInitPass : public Pass
{
  public:
    explicit RegisterInitPass(DataPattern pattern);

    std::string name() const override;
    void apply(Program &prog, const Architecture &arch,
               Rng &rng) const override;

    /** Toggle factor a pattern induces. */
    static float toggleOf(DataPattern p);

  private:
    DataPattern pat;
};

/** Pass 5: initialize immediate operands (immediates only). */
class ImmediateInitPass : public Pass
{
  public:
    explicit ImmediateInitPass(DataPattern pattern);

    std::string name() const override;
    void apply(Program &prog, const Architecture &arch,
               Rng &rng) const override;

  private:
    DataPattern pat;
};

/**
 * Pass 6: model instruction-level parallelism via register
 * allocation — assigns the dependency distance of every instruction.
 */
class DependencyDistancePass : public Pass
{
  public:
    /** Serial chain: every instruction depends on its predecessor. */
    static DependencyDistancePass chain();
    /** Independent instructions (max ILP). */
    static DependencyDistancePass none();
    /** Fixed distance @p d. */
    static DependencyDistancePass fixed(int d);
    /** Uniformly random distance in [lo, hi] ("randomly", Fig. 2). */
    static DependencyDistancePass random(int lo, int hi);
    /**
     * One of the four above by name, as mprobe_gen's and mprobe_run's
     * `--dep` take it: none, chain, fixed:N or random:LO:HI. Any
     * other form is fatal() with @p context.
     */
    static DependencyDistancePass parse(const std::string &spec,
                                        const std::string &context);

    std::string name() const override;
    void apply(Program &prog, const Architecture &arch,
               Rng &rng) const override;

  private:
    DependencyDistancePass(int lo, int hi);
    int lo;
    int hi;
};

/**
 * Loop-unrolling pass (the Section-2.2 worked example: "evaluate
 * the effect on performance of unrolling the loop"). Replicates the
 * loop body @p factor times, preserving relative dependency
 * distances and keeping a single closing branch.
 */
class UnrollPass : public Pass
{
  public:
    explicit UnrollPass(int factor);

    std::string name() const override;
    void apply(Program &prog, const Architecture &arch,
               Rng &rng) const override;

  private:
    int factor;
};

/**
 * Instruction-substitution pass (the Section-2.2 worked example:
 * "the effect on power of using a load immediate and an add
 * instruction instead of two add immediate instructions").
 * Replaces every occurrence of one mnemonic with a replacement
 * sequence; the first replacement instruction inherits the
 * original's dependency distance and stream binding.
 */
class SubstitutionPass : public Pass
{
  public:
    SubstitutionPass(std::string from,
                     std::vector<std::string> to);

    std::string name() const override;
    void apply(Program &prog, const Architecture &arch,
               Rng &rng) const override;

  private:
    std::string fromName;
    std::vector<std::string> toNames;
};

/**
 * Branch-behaviour pass: convert every @p period'th body slot into a
 * conditional branch with the given taken rate, controlling the
 * level of (mis)speculation.
 */
class BranchModelPass : public Pass
{
  public:
    BranchModelPass(size_t period, float taken_rate,
                    const std::string &branch = "bc");

    std::string name() const override;
    void apply(Program &prog, const Architecture &arch,
               Rng &rng) const override;

  private:
    size_t period;
    float takenRate;
    std::string branchName;
};

} // namespace mprobe

#endif // MICROPROBE_PASSES_HH
