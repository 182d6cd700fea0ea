/**
 * @file
 * DVFS sweep analysis implementation.
 */

#include "dvfs/sweep.hh"

#include <algorithm>
#include <map>

#include "power/topdown.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace mprobe
{

double
sampleEpiJoules(const Sample &s)
{
    double rate = s.instrGips * 1e9;
    return rate > 0.0 ? s.powerWatts / rate : 0.0;
}

double
sampleEdp(const Sample &s)
{
    double rate = s.instrGips * 1e9;
    return rate > 0.0 ? s.powerWatts / (rate * rate) : 0.0;
}

double
sampleEd2p(const Sample &s)
{
    double rate = s.instrGips * 1e9;
    return rate > 0.0 ? s.powerWatts / (rate * rate * rate) : 0.0;
}

namespace
{

SweepPoint
pointOf(const Sample &s)
{
    SweepPoint p;
    p.freqGhz = s.freqGhz;
    p.powerWatts = s.powerWatts;
    p.instrGips = s.instrGips;
    p.epiJ = sampleEpiJoules(s);
    p.edp = sampleEdp(s);
    p.ed2p = sampleEd2p(s);
    return p;
}

/** Index of the minimum of @p metric over @p points; ties resolve
 * to the earlier (lower-frequency) point. */
size_t
argminPoint(const std::vector<SweepPoint> &points,
            double SweepPoint::*metric)
{
    size_t best = 0;
    for (size_t i = 1; i < points.size(); ++i)
        if (points[i].*metric < points[best].*metric)
            best = i;
    return best;
}

} // namespace

SweepAnalysis
analyzeSweep(const std::vector<Sample> &samples)
{
    SweepAnalysis out;
    // Group by (workload, config) preserving first-appearance
    // order — the campaign's workload-major sample order makes that
    // the natural report order.
    std::map<std::pair<std::string, std::string>, size_t> index;
    for (const auto &s : samples) {
        if (s.instrGips <= 0.0)
            continue; // no instruction rate: its 0 EPI would win
        if (!s.reliable)
            continue; // below Vmin: must not win an optimum
        auto key = std::make_pair(s.workload, s.config.label());
        auto it = index.find(key);
        if (it == index.end()) {
            it = index.emplace(key, out.series.size()).first;
            SweepSeries series;
            series.workload = s.workload;
            series.config = s.config;
            out.series.push_back(std::move(series));
        }
        out.series[it->second].points.push_back(pointOf(s));
        if (std::find(out.freqs.begin(), out.freqs.end(),
                      s.freqGhz) == out.freqs.end())
            out.freqs.push_back(s.freqGhz);
    }
    std::sort(out.freqs.begin(), out.freqs.end());
    // A sweep needs at least two operating points: a "sweep" of one
    // frequency would report that frequency as the triple optimum
    // of every series — a degenerate table that reads like a
    // result. Refusing beats mis-reporting.
    if (out.freqs.size() < 2)
        fatal(cat("analyzeSweep: need samples at >= 2 distinct "
                  "frequencies, got ",
                  out.freqs.size(),
                  " (sweep a freqs axis, e.g. --freqs)"));
    for (auto &series : out.series) {
        std::stable_sort(series.points.begin(),
                         series.points.end(),
                         [](const SweepPoint &a,
                            const SweepPoint &b) {
                             return a.freqGhz < b.freqGhz;
                         });
        series.bestEpi =
            argminPoint(series.points, &SweepPoint::epiJ);
        series.bestEdp =
            argminPoint(series.points, &SweepPoint::edp);
        series.bestEd2p =
            argminPoint(series.points, &SweepPoint::ed2p);
    }
    return out;
}

std::vector<Sample>
samplesAtFreq(const std::vector<Sample> &all, double freq_ghz)
{
    std::vector<Sample> out;
    for (const auto &s : all)
        if (s.freqGhz == freq_ghz)
            out.push_back(s);
    return out;
}

namespace
{

double
paaeOf(const TopDownModel &m, const std::vector<Sample> &samples)
{
    std::vector<double> pred, real;
    pred.reserve(samples.size());
    real.reserve(samples.size());
    for (const auto &s : samples) {
        pred.push_back(m.predict(s));
        real.push_back(s.powerWatts);
    }
    return paae(pred, real);
}

} // namespace

CrossFreqReport
crossFrequencyError(const std::vector<Sample> &samples,
                    double train_freq)
{
    // A hand-built or idle sample with no instruction rate would
    // train the models on zeros.
    std::vector<Sample> live;
    std::vector<double> freqs;
    for (const auto &s : samples) {
        if (s.instrGips <= 0.0)
            continue;
        if (!s.reliable)
            continue; // below Vmin: must not train models
        live.push_back(s);
        if (std::find(freqs.begin(), freqs.end(), s.freqGhz) ==
            freqs.end())
            freqs.push_back(s.freqGhz);
    }
    std::sort(freqs.begin(), freqs.end());
    // Cross-frequency validation of a single frequency would
    // compare a model against itself and report a spurious 0-gap.
    if (freqs.size() < 2)
        fatal(cat("crossFrequencyError: need samples at >= 2 "
                  "distinct frequencies, got ",
                  freqs.size(),
                  " (sweep a freqs axis, e.g. --freqs)"));

    std::vector<Sample> train = samplesAtFreq(live, train_freq);
    if (train.empty())
        fatal(cat("crossFrequencyError: no samples at the ",
                  train_freq, " GHz training frequency"));
    TopDownModel cross =
        TopDownModel::train(train, "TD_CrossFreq");

    CrossFreqReport out;
    out.trainFreqGhz = train_freq;
    for (double f : freqs) {
        std::vector<Sample> at = samplesAtFreq(live, f);
        TopDownModel local =
            TopDownModel::train(at, "TD_AtPoint");
        out.entries.push_back(
            {f, at.size(), paaeOf(cross, at), paaeOf(local, at)});
    }
    return out;
}

} // namespace mprobe
