/**
 * @file
 * Result-cache implementation.
 */

#include "campaign/cache.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/fileio.hh"
#include "util/logging.hh"
#include "util/str.hh"

namespace mprobe
{

namespace fs = std::filesystem;

std::string
sampleToText(const Sample &s)
{
    std::ostringstream os;
    os.precision(17);
    os << "workload " << s.workload << "\n"
       << "config " << s.config.cores << "-" << s.config.smt << "\n"
       // freq precedes the required tail fields deliberately: a
       // file truncated anywhere after it is missing one of them
       // and parses as corrupt, so a swept entry can never tear
       // into a "valid" nominal-frequency hit.
       << "freq " << s.freqGhz << "\n"
       // vdd and reliable sit before the required tail for the same
       // tear-safety reason as freq.
       << "vdd " << s.vddVolts << "\n"
       << "reliable " << (s.reliable ? 1 : 0) << "\n"
       << "rates";
    for (double r : s.rates)
        os << " " << r;
    os << "\n"
       << "power " << s.powerWatts << "\n"
       << "gips " << s.instrGips << "\n"
       << "ipc " << s.coreIpc << "\n";
    return os.str();
}

bool
sampleFromText(const std::string &text, Sample &out)
{
    std::istringstream in(text);
    std::string line;
    bool saw_workload = false, saw_config = false, saw_power = false;
    bool saw_gips = false, saw_ipc = false;
    // Pre-DVFS entries carry no frequency field: they were measured
    // at the nominal clock, so they load as that default instead of
    // missing — upgrading a cache directory re-runs nothing.
    out.freqGhz = kNominalFreqGhz;
    // Pre-undervolting entries carry no vdd field: they were
    // measured on-curve, so after the parse loop (once freq is
    // known) the voltage is reconstructed from the default curve.
    bool saw_vdd = false;
    out.reliable = true;
    while (std::getline(in, line)) {
        std::string s = trim(line);
        if (s.empty())
            continue;
        auto sp = s.find(' ');
        std::string key = s.substr(0, sp);
        std::string val =
            sp == std::string::npos ? "" : trim(s.substr(sp + 1));
        try {
            if (key == "workload") {
                out.workload = val;
                saw_workload = true;
            } else if (key == "config") {
                auto parts = split(val, '-');
                if (parts.size() != 2)
                    return false;
                out.config.cores = std::stoi(parts[0]);
                out.config.smt = std::stoi(parts[1]);
                // A configuration without at least one core and one
                // SMT thread cannot have been measured: such an
                // entry (e.g. a torn "config 0-0") is corrupt, not
                // a hit that feeds ChipConfig{0,0} downstream.
                if (out.config.cores < 1 || out.config.smt < 1)
                    return false;
                saw_config = true;
            } else if (key == "rates") {
                out.rates.clear();
                for (const auto &r : splitWs(val))
                    out.rates.push_back(std::stod(r));
            } else if (key == "power") {
                out.powerWatts = std::stod(val);
                saw_power = true;
            } else if (key == "gips") {
                out.instrGips = std::stod(val);
                saw_gips = true;
            } else if (key == "ipc") {
                out.coreIpc = std::stod(val);
                saw_ipc = true;
            } else if (key == "freq") {
                out.freqGhz = std::stod(val);
                // No measurement happens at a non-positive clock:
                // such an entry is corrupt, not a 0-GHz hit.
                if (out.freqGhz <= 0.0)
                    return false;
            } else if (key == "vdd") {
                out.vddVolts = std::stod(val);
                // No measurement happens at a non-positive supply
                // voltage: such an entry is corrupt.
                if (out.vddVolts <= 0.0)
                    return false;
                saw_vdd = true;
            } else if (key == "reliable") {
                // Exactly "0" or "1"; anything else is a torn or
                // foreign line, not a boolean to coerce.
                if (val == "1")
                    out.reliable = true;
                else if (val == "0")
                    out.reliable = false;
                else
                    return false;
            } else {
                return false;
            }
        } catch (const std::exception &) {
            return false;
        }
    }
    if (!saw_vdd)
        out.vddVolts = nominalCurveVoltage(out.freqGhz);
    // Every field is required: a file truncated mid-write must
    // parse as corrupt (-> cache miss), not as a zero-filled hit.
    return saw_workload && saw_config && saw_power && saw_gips &&
           saw_ipc &&
           out.rates.size() == dynamicFeatureNames().size();
}

ResultCache::ResultCache(std::string d) : dir(std::move(d))
{
    if (dir.empty())
        return;
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec)
        fatal(cat("cannot create cache directory '", dir, "': ",
                  ec.message()));
}

std::string
ResultCache::pathOf(uint64_t key) const
{
    char name[32];
    std::snprintf(name, sizeof name, "%016llx.sample",
                  static_cast<unsigned long long>(key));
    return dir + "/" + name;
}

bool
ResultCache::contains(uint64_t key) const
{
    if (!enabled())
        return false;
    std::error_code ec;
    return fs::exists(pathOf(key), ec);
}

namespace
{

/** How @p s differs from @p want, or "" when it is that job. */
std::string
identityMismatch(const Sample &s, const SampleIdentity &want)
{
    if (s.workload != want.workload)
        return cat("workload '", s.workload, "', not '",
                   want.workload, "'");
    if (s.config.cores != want.config.cores ||
        s.config.smt != want.config.smt)
        return cat("config ", s.config.label(), ", not ",
                   want.config.label());
    if (s.freqGhz != want.freqGhz)
        return cat("freq ", s.freqGhz, " GHz, not ", want.freqGhz);
    if (s.vddVolts != want.vdd)
        return cat("vdd ", s.vddVolts, " V, not ", want.vdd);
    return "";
}

} // namespace

bool
ResultCache::read(uint64_t key, const SampleIdentity *expect,
                  Sample &out) const
{
    if (!enabled())
        return false;
    std::ifstream f(pathOf(key));
    if (!f)
        return false;
    std::ostringstream os;
    os << f.rdbuf();
    Sample s;
    std::string why = "unparseable";
    if (sampleFromText(os.str(), s)) {
        why = expect ? identityMismatch(s, *expect) : "";
        if (why.empty()) {
            out = std::move(s);
            return true;
        }
    }
    // The entry exists but cannot stand for this job: the caller
    // re-measures it, and the store overwrites the file.
    ++nCorrupt;
    warn(cat("result cache: entry ", pathOf(key), " ignored (", why,
             ")"));
    return false;
}

bool
ResultCache::lookup(uint64_t key, const SampleIdentity &expect,
                    Sample &out)
{
    bool hit = read(key, &expect, out);
    ++(hit ? nHits : nMisses);
    return hit;
}

bool
ResultCache::lookup(uint64_t key, Sample &out)
{
    bool hit = read(key, nullptr, out);
    ++(hit ? nHits : nMisses);
    return hit;
}

bool
ResultCache::peek(uint64_t key, const SampleIdentity &expect,
                  Sample &out) const
{
    return read(key, &expect, out);
}

bool
ResultCache::peek(uint64_t key, Sample &out) const
{
    return read(key, nullptr, out);
}

bool
ResultCache::store(uint64_t key, const Sample &s) const
{
    if (!enabled())
        return true;
    // Atomic write-then-rename: racing writers of one key write
    // identical content, so last-rename-wins is harmless.
    if (!atomicWriteFile(pathOf(key), sampleToText(s),
                         "result cache")) {
        warn(cat("result cache: entry ", pathOf(key),
                 " not persisted; this job will re-measure on "
                 "resume/merge"));
        return false;
    }
    return true;
}

} // namespace mprobe
