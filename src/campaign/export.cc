/**
 * @file
 * Sample exporters.
 */

#include "campaign/export.hh"

#include <cstdio>
#include <fstream>
#include <ostream>

#include "dvfs/sweep.hh"
#include "util/logging.hh"
#include "util/str.hh"

namespace mprobe
{

namespace
{

/** Shortest round-trippable formatting for doubles. */
std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** CSV quoting per RFC 4180 (only when needed). */
std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
exportSamplesCsv(std::ostream &os,
                 const std::vector<Sample> &samples)
{
    os << "workload,cores,smt";
    for (const auto &name : dynamicFeatureNames())
        os << "," << toLower(name) << "_gevps";
    os << ",power_watts,instr_gips,core_ipc"
          ",freq_ghz,epi_j,edp,vdd_volts,reliable\n";
    for (const auto &s : samples) {
        os << csvField(s.workload) << "," << s.config.cores << ","
           << s.config.smt;
        for (double r : s.rates)
            os << "," << num(r);
        os << "," << num(s.powerWatts) << "," << num(s.instrGips)
           << "," << num(s.coreIpc) << "," << num(s.freqGhz)
           << "," << num(sampleEpiJoules(s)) << ","
           << num(sampleEdp(s)) << "," << num(s.vddVolts) << ","
           << (s.reliable ? 1 : 0) << "\n";
    }
}

void
exportSamplesJson(std::ostream &os,
                  const std::vector<Sample> &samples)
{
    os << "[\n";
    for (size_t i = 0; i < samples.size(); ++i) {
        const Sample &s = samples[i];
        os << "  {\"workload\": \"" << jsonEscape(s.workload)
           << "\", \"cores\": " << s.config.cores
           << ", \"smt\": " << s.config.smt << ", \"rates\": {";
        const auto &names = dynamicFeatureNames();
        for (size_t j = 0; j < s.rates.size(); ++j) {
            os << (j ? ", " : "") << "\""
               << (j < names.size() ? names[j]
                                    : cat("rate", j))
               << "\": " << num(s.rates[j]);
        }
        os << "}, \"power_watts\": " << num(s.powerWatts)
           << ", \"instr_gips\": " << num(s.instrGips)
           << ", \"core_ipc\": " << num(s.coreIpc)
           << ", \"freq_ghz\": " << num(s.freqGhz)
           << ", \"epi_j\": " << num(sampleEpiJoules(s))
           << ", \"edp\": " << num(sampleEdp(s))
           << ", \"vdd_volts\": " << num(s.vddVolts)
           << ", \"reliable\": " << (s.reliable ? "true" : "false")
           << "}"
           << (i + 1 < samples.size() ? "," : "") << "\n";
    }
    os << "]\n";
}

void
exportSamples(const std::string &path,
              const std::vector<Sample> &samples,
              SampleFormat format)
{
    std::ofstream f(path);
    if (!f)
        fatal(cat("cannot write samples to '", path, "'"));
    bool json = format == SampleFormat::Json ||
                (format == SampleFormat::Auto &&
                 path.size() >= 5 &&
                 path.compare(path.size() - 5, 5, ".json") == 0);
    if (json)
        exportSamplesJson(f, samples);
    else
        exportSamplesCsv(f, samples);
    // Close before checking: a full disk often fails only when the
    // buffer is flushed.
    f.close();
    if (!f)
        fatal(cat("short write to samples file '", path, "'"));
}

} // namespace mprobe
