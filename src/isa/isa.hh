/**
 * @file
 * ISA registry: parsing, lookup and query interface.
 *
 * Definitions are supplied "using readable text files ... constructed
 * using the information from ISA definition manuals" (paper Section
 * 2.1.1). The format is line oriented:
 *
 *     isa POWER7-like
 *     version 2.06B
 *     # mnemonic then key=value attributes; unset keys take defaults
 *     instr add   type=int    width=64 srcs=2 dsts=1
 *     instr lbz   type=load   width=8  srcs=1 dsts=1 imm=1
 *     instr stfdu type=store  width=64 flags=float,update
 *
 * Recognised keys: type, width, srcs, dsts, imm, flags, enc.
 * Recognised flags: vector, float, decimal, update, algebraic,
 * indexed, cond, priv, prefetch.
 */

#ifndef ISA_ISA_HH
#define ISA_ISA_HH

#include <functional>
#include <string>
#include <vector>

#include "isa/instr_def.hh"

namespace mprobe
{

/**
 * An instruction-set architecture: a named collection of InstrDef
 * records with query helpers used by generation policies
 * (e.g. "select the loads", Figure 2 line 13).
 */
class Isa
{
  public:
    /** Opcode index: position of an instruction within the ISA. */
    using OpIndex = int;

    /** An empty ISA with the given name. */
    explicit Isa(std::string name = "anonymous");

    /** Parse a definition from text; fatal() on malformed input. */
    static Isa fromText(const std::string &text,
                        const std::string &origin = "<string>");

    /** Parse a definition file; fatal() if unreadable/malformed. */
    static Isa fromFile(const std::string &path);

    /** ISA name from the `isa` directive. */
    const std::string &name() const { return isaName; }

    /** Version string from the `version` directive (may be empty). */
    const std::string &version() const { return isaVersion; }

    /** Add one instruction; fatal() on duplicate mnemonics. */
    OpIndex add(const InstrDef &def);

    /** Number of instructions. */
    size_t size() const { return defs.size(); }

    /** Instruction record by opcode index; panics when out of range. */
    const InstrDef &at(OpIndex idx) const;

    /** All instruction records. */
    const std::vector<InstrDef> &all() const { return defs; }

    /** Opcode index by mnemonic, or -1 when absent. */
    OpIndex find(const std::string &mnemonic) const;

    /** Instruction record by mnemonic; fatal() when absent. */
    const InstrDef &byName(const std::string &mnemonic) const;

    /**
     * Generic query: opcode indices of instructions satisfying the
     * predicate, e.g. `isa.select([](auto &i){ return i.isLoad(); })`.
     */
    std::vector<OpIndex>
    select(const std::function<bool(const InstrDef &)> &pred) const;

    /** @name Common pre-canned queries */
    /**@{*/
    std::vector<OpIndex> loads() const;
    std::vector<OpIndex> stores() const;
    std::vector<OpIndex> memoryOps() const;
    std::vector<OpIndex> branches() const;
    std::vector<OpIndex> integerOps() const;
    std::vector<OpIndex> fpVectorOps() const;
    /**@}*/

    /**
     * A candidate set by name, as mprobe_gen's and mprobe_run's
     * `--class` take it: loads, stores, memory, integer, fpvector,
     * all (every instruction but privileged ones and branches), or
     * else a comma-separated mnemonic list. An unknown mnemonic is
     * fatal() with @p context.
     */
    std::vector<OpIndex> candidates(const std::string &set,
                                    const std::string &context) const;

    /** Render the ISA back to definition-file text. */
    std::string toText() const;

  private:
    std::string isaName;
    std::string isaVersion;
    std::vector<InstrDef> defs;
};

/**
 * The built-in P7-like ISA definition used throughout the case
 * studies. Contains every instruction named in the paper plus a broad
 * complement of fixed point, memory, floating point, vector, decimal,
 * branch and system instructions (~190 total).
 */
const Isa &builtinP7Isa();

/** The raw definition text behind builtinP7Isa() (for tests/tools). */
const std::string &builtinP7IsaText();

} // namespace mprobe

#endif // ISA_ISA_HH
