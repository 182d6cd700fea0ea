/**
 * @file
 * ISA registry implementation and definition-file parser.
 */

#include "isa/isa.hh"

#include <fstream>
#include <sstream>

#include "util/logging.hh"
#include "util/str.hh"

namespace mprobe
{

const char *
instrClassName(InstrClass cls)
{
    switch (cls) {
      case InstrClass::IntSimple:  return "int";
      case InstrClass::IntComplex: return "int_complex";
      case InstrClass::Load:       return "load";
      case InstrClass::Store:      return "store";
      case InstrClass::Float:      return "float";
      case InstrClass::Vector:     return "vector";
      case InstrClass::Decimal:    return "decimal";
      case InstrClass::Branch:     return "branch";
      case InstrClass::CondReg:    return "condreg";
      case InstrClass::System:     return "system";
    }
    panic("instrClassName: bad class");
}

InstrClass
parseInstrClass(const std::string &s)
{
    std::string t = toLower(trim(s));
    if (t == "int")         return InstrClass::IntSimple;
    if (t == "int_complex") return InstrClass::IntComplex;
    if (t == "load")        return InstrClass::Load;
    if (t == "store")       return InstrClass::Store;
    if (t == "float")       return InstrClass::Float;
    if (t == "vector")      return InstrClass::Vector;
    if (t == "decimal")     return InstrClass::Decimal;
    if (t == "branch")      return InstrClass::Branch;
    if (t == "condreg")     return InstrClass::CondReg;
    if (t == "system")      return InstrClass::System;
    fatal(cat("unknown instruction class '", s, "'"));
}

Isa::Isa(std::string name) : isaName(std::move(name)) {}

namespace
{

void
applyFlag(InstrDef &def, const std::string &flag,
          const std::string &context)
{
    std::string f = toLower(trim(flag));
    if (f == "vector")         def.vectorData = true;
    else if (f == "float")     def.floatData = true;
    else if (f == "decimal")   def.decimalData = true;
    else if (f == "update")    def.update = true;
    else if (f == "algebraic") def.algebraic = true;
    else if (f == "indexed")   def.indexed = true;
    else if (f == "cond")      def.conditional = true;
    else if (f == "priv")      def.privileged = true;
    else if (f == "prefetch")  def.prefetch = true;
    else if (f == "-" || f.empty()) { /* no flags */ }
    else
        fatal(cat("unknown instruction flag '", flag, "' in ",
                  context));
}

} // namespace

Isa
Isa::fromText(const std::string &text, const std::string &origin)
{
    Isa isa;
    std::istringstream in(text);
    std::string line;
    int lineno = 0;
    uint32_t next_enc = 1;
    while (std::getline(in, line)) {
        ++lineno;
        std::string context = cat(origin, ":", lineno);
        std::string s = trim(line);
        if (s.empty() || s[0] == '#')
            continue;
        auto fields = splitWs(s);
        const std::string &kw = fields[0];
        if (kw == "isa") {
            if (fields.size() < 2)
                fatal(cat("missing ISA name in ", context));
            isa.isaName = fields[1];
            continue;
        }
        if (kw == "version") {
            if (fields.size() < 2)
                fatal(cat("missing version in ", context));
            isa.isaVersion = fields[1];
            continue;
        }
        if (kw != "instr")
            fatal(cat("unknown directive '", kw, "' in ", context));
        if (fields.size() < 2)
            fatal(cat("instr with no mnemonic in ", context));

        InstrDef def;
        def.name = fields[1];
        def.encoding = (next_enc++ << 16);
        for (size_t i = 2; i < fields.size(); ++i) {
            auto kv = split(fields[i], '=');
            if (kv.size() != 2)
                fatal(cat("expected key=value, got '", fields[i],
                          "' in ", context));
            const std::string &key = kv[0];
            const std::string &val = kv[1];
            if (key == "type") {
                def.cls = parseInstrClass(val);
            } else if (key == "width") {
                def.width = static_cast<int>(parseInt(val, context));
            } else if (key == "srcs") {
                def.srcs = static_cast<int>(parseInt(val, context));
            } else if (key == "dsts") {
                def.dsts = static_cast<int>(parseInt(val, context));
            } else if (key == "imm") {
                def.hasImm = parseInt(val, context) != 0;
            } else if (key == "enc") {
                def.encoding = static_cast<uint32_t>(
                    parseInt(val, context));
            } else if (key == "flags") {
                for (const auto &f : split(val, ','))
                    applyFlag(def, f, context);
            } else {
                fatal(cat("unknown instr key '", key, "' in ",
                          context));
            }
        }
        if (def.width <= 0 || def.width > 128)
            fatal(cat("bad width ", def.width, " in ", context));
        if (isa.find(def.name) >= 0)
            fatal(cat("duplicate instruction '", def.name, "' in ",
                      context));
        isa.add(def);
    }
    return isa;
}

Isa
Isa::fromFile(const std::string &path)
{
    std::ifstream f(path);
    if (!f)
        fatal(cat("cannot open ISA definition '", path, "'"));
    std::ostringstream os;
    os << f.rdbuf();
    return fromText(os.str(), path);
}

Isa::OpIndex
Isa::add(const InstrDef &def)
{
    if (find(def.name) >= 0)
        fatal(cat("duplicate instruction '", def.name, "'"));
    defs.push_back(def);
    return static_cast<OpIndex>(defs.size()) - 1;
}

const InstrDef &
Isa::at(OpIndex idx) const
{
    if (idx < 0 || static_cast<size_t>(idx) >= defs.size())
        panic(cat("Isa::at: bad opcode index ", idx));
    return defs[static_cast<size_t>(idx)];
}

Isa::OpIndex
Isa::find(const std::string &mnemonic) const
{
    for (size_t i = 0; i < defs.size(); ++i)
        if (defs[i].name == mnemonic)
            return static_cast<OpIndex>(i);
    return -1;
}

const InstrDef &
Isa::byName(const std::string &mnemonic) const
{
    OpIndex idx = find(mnemonic);
    if (idx < 0)
        fatal(cat("unknown instruction '", mnemonic, "' in ISA ",
                  isaName));
    return at(idx);
}

std::vector<Isa::OpIndex>
Isa::select(const std::function<bool(const InstrDef &)> &pred) const
{
    std::vector<OpIndex> out;
    for (size_t i = 0; i < defs.size(); ++i)
        if (pred(defs[i]))
            out.push_back(static_cast<OpIndex>(i));
    return out;
}

std::vector<Isa::OpIndex>
Isa::loads() const
{
    return select([](const InstrDef &d) { return d.isLoad(); });
}

std::vector<Isa::OpIndex>
Isa::stores() const
{
    return select([](const InstrDef &d) { return d.isStore(); });
}

std::vector<Isa::OpIndex>
Isa::memoryOps() const
{
    return select([](const InstrDef &d) { return d.isMemory(); });
}

std::vector<Isa::OpIndex>
Isa::branches() const
{
    return select([](const InstrDef &d) { return d.isBranch(); });
}

std::vector<Isa::OpIndex>
Isa::integerOps() const
{
    return select([](const InstrDef &d) { return d.isInteger(); });
}

std::vector<Isa::OpIndex>
Isa::fpVectorOps() const
{
    return select([](const InstrDef &d) { return d.isFpVector(); });
}

std::vector<Isa::OpIndex>
Isa::candidates(const std::string &set, const std::string &context) const
{
    if (set == "loads")
        return loads();
    if (set == "stores")
        return stores();
    if (set == "memory")
        return memoryOps();
    if (set == "integer")
        return integerOps();
    if (set == "fpvector")
        return fpVectorOps();
    if (set == "all")
        return select([](const InstrDef &d) {
            return !d.privileged && !d.isBranch();
        });
    std::vector<OpIndex> out;
    for (const auto &name : split(set, ',')) {
        out.push_back(find(trim(name)));
        if (out.back() < 0)
            fatal(cat("unknown instruction in ", context, " '", set, "'"));
    }
    return out;
}

std::string
Isa::toText() const
{
    std::ostringstream os;
    os << "isa " << isaName << "\n";
    if (!isaVersion.empty())
        os << "version " << isaVersion << "\n";
    for (const auto &d : defs) {
        os << "instr " << d.name << " type=" << instrClassName(d.cls)
           << " width=" << d.width << " srcs=" << d.srcs
           << " dsts=" << d.dsts;
        if (d.hasImm)
            os << " imm=1";
        std::string flags;
        auto addf = [&](bool on, const char *f) {
            if (on)
                flags += (flags.empty() ? "" : ",") + std::string(f);
        };
        addf(d.vectorData, "vector");
        addf(d.floatData, "float");
        addf(d.decimalData, "decimal");
        addf(d.update, "update");
        addf(d.algebraic, "algebraic");
        addf(d.indexed, "indexed");
        addf(d.conditional, "cond");
        addf(d.privileged, "priv");
        addf(d.prefetch, "prefetch");
        if (!flags.empty())
            os << " flags=" << flags;
        os << "\n";
    }
    return os.str();
}

} // namespace mprobe
