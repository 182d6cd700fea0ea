/**
 * @file
 * The Architecture module (paper Figure 1, Section 2.1).
 *
 * Bundles the ISA definition and the micro-architecture definition
 * behind one queryable facade, so generation policies can write the
 * equivalent of the paper's Figure-2 script:
 *
 *     Architecture arch = Architecture::get("POWER7");
 *     auto loads = arch.isa().loads();
 *     auto loads_vsu = arch.stressing(loads, "VSU");
 */

#ifndef MICROPROBE_ARCH_HH
#define MICROPROBE_ARCH_HH

#include <memory>
#include <string>
#include <vector>

#include "isa/isa.hh"
#include "sim/machine.hh"
#include "uarch/uarch.hh"

namespace mprobe
{

/** ISA + micro-architecture, the target of generation policies. */
class Architecture
{
  public:
    /** Assemble from an ISA and a (possibly partial) uarch def. */
    Architecture(const Isa &isa, UarchDef uarch);

    /**
     * Named registry lookup mirroring
     * `MP.arch.get_architecture("POWER7")` in the paper's script.
     * "POWER7" (or "POWER7-like") returns the builtin definitions;
     * anything else is fatal().
     */
    static Architecture get(const std::string &name);

    const Isa &isa() const { return *isaPtr; }
    const UarchDef &uarch() const { return uarchDef; }
    UarchDef &uarchMut() { return uarchDef; }

    /**
     * The measurement machine of this architecture: its ISA, cache
     * geometries and nominal clock. Every tool, the campaign service
     * and the golden tests measure on it.
     */
    Machine machine() const;

    /**
     * Filter @p candidates down to the instructions whose
     * (bootstrapped) unit mapping includes @p unit — the query used
     * in Figure 2 lines 14-16.
     */
    std::vector<Isa::OpIndex>
    stressing(const std::vector<Isa::OpIndex> &candidates,
              const std::string &unit) const;

    /** Instructions with complete bootstrapped properties. */
    std::vector<Isa::OpIndex> characterized() const;

  private:
    const Isa *isaPtr;
    UarchDef uarchDef;
};

} // namespace mprobe

#endif // MICROPROBE_ARCH_HH
