/**
 * @file
 * Architecture facade implementation.
 */

#include "microprobe/arch.hh"

#include "util/logging.hh"

namespace mprobe
{

Architecture::Architecture(const Isa &isa, UarchDef uarch)
    : isaPtr(&isa), uarchDef(std::move(uarch))
{
}

Architecture
Architecture::get(const std::string &name)
{
    if (name == "POWER7" || name == "POWER7-like")
        return Architecture(builtinP7Isa(), builtinP7Uarch());
    if (name == "POWER7+" || name == "POWER7+-like")
        return Architecture(builtinP7Isa(), builtinP7PlusUarch());
    fatal(cat("unknown architecture '", name,
              "'; available: POWER7, POWER7+"));
}

Machine
Architecture::machine() const
{
    return Machine(*isaPtr, uarchDef.cacheGeometries(), uarchDef.clockGhz());
}

std::vector<Isa::OpIndex>
Architecture::stressing(const std::vector<Isa::OpIndex> &candidates,
                        const std::string &unit) const
{
    std::vector<Isa::OpIndex> out;
    for (auto idx : candidates)
        if (uarchDef.stresses(isaPtr->at(idx).name, unit))
            out.push_back(idx);
    return out;
}

std::vector<Isa::OpIndex>
Architecture::characterized() const
{
    std::vector<Isa::OpIndex> out;
    for (size_t i = 0; i < isaPtr->size(); ++i) {
        if (uarchDef
                .props(isaPtr->at(static_cast<Isa::OpIndex>(i)).name)
                .complete())
            out.push_back(static_cast<Isa::OpIndex>(i));
    }
    return out;
}

} // namespace mprobe
