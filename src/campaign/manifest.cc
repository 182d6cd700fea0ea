/**
 * @file
 * Campaign manifest serialization.
 */

#include "campaign/manifest.hh"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>

#include "campaign/campaign.hh"
#include "util/fileio.hh"
#include "util/logging.hh"
#include "util/str.hh"

namespace mprobe
{

std::string
manifestPath(const std::string &cacheDir)
{
    return cacheDir + "/campaign.manifest";
}

std::string
manifestToText(const CampaignManifest &m)
{
    std::ostringstream os;
    char key[24];
    std::snprintf(key, sizeof key, "%016" PRIx64, m.fingerprint);
    os << "manifest v1\n"
       << "spec " << m.spec << "\n"
       << "fingerprint " << key << "\n";
    if (m.curve.clockGhz > 0.0) {
        char curve[128];
        std::snprintf(curve, sizeof curve, "%.17g %.17g %.17g %.17g",
                      m.curve.clockGhz, m.curve.vddNominal,
                      m.curve.vddSlopePerGhz, m.curve.vddFloor);
        os << "curve " << curve << "\n";
    }
    os << "jobs " << m.entries.size() << "\n";
    for (const auto &e : m.entries) {
        std::snprintf(key, sizeof key, "%016" PRIx64, e.key);
        // The workload name goes last: it is the only field that
        // may contain spaces. Swept jobs append "@freq" to the
        // config token; nominal-point jobs keep the pre-DVFS form.
        os << "job " << key << " " << e.config.cores << "-"
           << e.config.smt;
        if (e.freqGhz > 0.0) {
            char freq[40];
            std::snprintf(freq, sizeof freq, "%.17g", e.freqGhz);
            os << "@" << freq;
        }
        // Off-curve jobs append a V-terminated "@vddV" segment; the
        // trailing V disambiguates a lone vdd segment from a freq.
        if (e.vdd > 0.0) {
            char vdd[40];
            std::snprintf(vdd, sizeof vdd, "%.17g", e.vdd);
            os << "@" << vdd << "V";
        }
        os << " " << e.source << "\t" << e.workload << "\n";
    }
    return os.str();
}

bool
manifestFromText(const std::string &text, CampaignManifest &out)
{
    std::istringstream in(text);
    std::string line;
    size_t declared = 0;
    bool saw_header = false, saw_jobs = false;
    while (std::getline(in, line)) {
        if (trim(line).empty())
            continue;
        if (!saw_header) {
            if (trim(line) != "manifest v1")
                return false;
            saw_header = true;
            continue;
        }
        auto sp = line.find(' ');
        if (sp == std::string::npos)
            return false;
        std::string key = line.substr(0, sp);
        std::string val = line.substr(sp + 1);
        if (key == "spec") {
            out.spec = trim(val);
        } else if (key == "fingerprint") {
            try {
                out.fingerprint =
                    std::stoull(trim(val), nullptr, 16);
            } catch (const std::exception &) {
                return false;
            }
        } else if (key == "curve") {
            // "<clock GHz> <vdd nominal> <vdd slope/GHz> <vdd floor>"
            auto tok = splitWs(val);
            if (tok.size() != 4)
                return false;
            double v[4];
            try {
                for (size_t i = 0; i < 4; ++i)
                    v[i] = std::stod(tok[i]);
            } catch (const std::exception &) {
                return false;
            }
            for (double x : v)
                if (!std::isfinite(x))
                    return false;
            if (v[0] <= 0.0)
                return false;
            out.curve = {v[0], v[1], v[2], v[3]};
        } else if (key == "jobs") {
            try {
                declared = std::stoul(trim(val));
            } catch (const std::exception &) {
                return false;
            }
            saw_jobs = true;
        } else if (key == "job") {
            // "<key> <cores>-<smt> <source>\t<workload>"
            auto tab = val.find('\t');
            if (tab == std::string::npos)
                return false;
            ManifestEntry e;
            e.workload = val.substr(tab + 1);
            auto head = splitWs(val.substr(0, tab));
            if (head.size() < 3)
                return false;
            // Config token: "cores-smt" plus up to two "@" sweep
            // segments — "@freq" (swept clock), "@vddV" (off-curve
            // voltage, V-terminated) or "@freq@vddV" (both). With
            // one segment, the trailing V decides which axis it is;
            // with two, the order is fixed and the second must end
            // in V.
            auto seg = split(head[1], '@');
            if (seg.size() < 1 || seg.size() > 3)
                return false;
            std::string freq_tok, vdd_tok;
            auto take_vdd = [&](const std::string &s) {
                if (s.size() < 2 || s.back() != 'V')
                    return false;
                vdd_tok = s.substr(0, s.size() - 1);
                return true;
            };
            if (seg.size() == 2) {
                if (seg[1].empty())
                    return false;
                if (!take_vdd(seg[1]))
                    freq_tok = seg[1];
            } else if (seg.size() == 3) {
                freq_tok = seg[1];
                if (!take_vdd(seg[2]))
                    return false;
            }
            auto cfg = split(seg[0], '-');
            if (cfg.size() != 2)
                return false;
            try {
                e.key = std::stoull(head[0], nullptr, 16);
                e.config.cores = std::stoi(cfg[0]);
                e.config.smt = std::stoi(cfg[1]);
                if (!freq_tok.empty())
                    e.freqGhz = std::stod(freq_tok);
                if (!vdd_tok.empty())
                    e.vdd = std::stod(vdd_tok);
            } catch (const std::exception &) {
                return false;
            }
            // A sweep suffix promises a swept operating point; no
            // campaign sweeps a non-positive clock or voltage, so
            // such an entry is corrupt (an absent suffix is the
            // on-curve nominal point, not corruption).
            if (!freq_tok.empty() && e.freqGhz <= 0.0)
                return false;
            if (!vdd_tok.empty() && e.vdd <= 0.0)
                return false;
            // No campaign ever plans a job on fewer than one core
            // or SMT thread; such an entry (e.g. a corrupt "0-0")
            // is a parse failure, not a ChipConfig{0,0} job.
            if (e.config.cores < 1 || e.config.smt < 1)
                return false;
            // The source may itself contain spaces ("Simple
            // Integer"): everything between the config and the tab.
            auto src_at = val.find(head[1]) + head[1].size();
            e.source = trim(val.substr(src_at, tab - src_at));
            out.entries.push_back(std::move(e));
        } else {
            return false;
        }
    }
    // A torn manifest (interrupt mid-write, pre-rename this cannot
    // happen, but belt and braces) must not pass as complete.
    return saw_header && saw_jobs && out.entries.size() == declared;
}

void
saveManifest(const std::string &path, const CampaignManifest &m)
{
    atomicWriteFile(path, manifestToText(m), "manifest");
}

void
mergeSaveManifest(const std::string &path,
                  const CampaignManifest &m)
{
    CampaignManifest existing;
    if (!loadManifest(path, existing) ||
        existing.fingerprint != m.fingerprint) {
        saveManifest(path, m);
        return;
    }
    std::set<uint64_t> seen;
    for (const auto &e : existing.entries)
        seen.insert(e.key);
    bool changed = false;
    if (existing.curve.clockGhz <= 0.0 && m.curve.clockGhz > 0.0) {
        existing.curve = m.curve;
        changed = true;
    }
    for (const auto &e : m.entries)
        if (seen.insert(e.key).second) {
            existing.entries.push_back(e);
            changed = true;
        }
    if (changed)
        saveManifest(path, existing);
}

bool
loadManifest(const std::string &path, CampaignManifest &out)
{
    std::ifstream f(path);
    if (!f)
        return false;
    std::ostringstream os;
    os << f.rdbuf();
    CampaignManifest m;
    if (!manifestFromText(os.str(), m))
        return false;
    out = std::move(m);
    return true;
}

ManifestCollection
collectManifestSamples(const CampaignManifest &m,
                       const ResultCache &cache,
                       const Machine &machine)
{
    // Only the curve matters to a job's identity, so a machine on
    // the recorded curve resolves exactly the campaign's points.
    std::optional<Machine> recorded;
    if (m.curve.clockGhz > 0.0) {
        GroundTruthParams p;
        p.clockGhz = m.curve.clockGhz;
        p.vddNominal = m.curve.vddNominal;
        p.vddSlopePerGhz = m.curve.vddSlopePerGhz;
        p.vddFloor = m.curve.vddFloor;
        recorded.emplace(machine.isa(), p);
    }
    const Machine &resolver = recorded ? *recorded : machine;
    ManifestCollection out;
    out.samples.reserve(m.entries.size());
    for (const auto &e : m.entries) {
        CampaignJob job;
        job.config = e.config;
        job.freqGhz = e.freqGhz;
        job.vdd = e.vdd;
        auto id = jobIdentity(resolver, job, e.workload);
        Sample s;
        if (cache.peek(e.key, id, s))
            out.samples.push_back(std::move(s));
        else
            out.missing.push_back(e);
    }
    return out;
}

} // namespace mprobe
