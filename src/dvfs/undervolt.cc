/**
 * @file
 * Undervolt-margin analysis implementation.
 */

#include "dvfs/undervolt.hh"

#include <map>
#include <tuple>

namespace mprobe
{

std::vector<UndervoltMargin>
findUndervoltMargin(const std::vector<Sample> &samples)
{
    // Group by (workload, config, freq) preserving first-appearance
    // order, like analyzeSweep: the campaign's workload-major
    // sample order makes that the natural report order.
    std::vector<UndervoltMargin> out;
    std::map<std::tuple<std::string, std::string, double>, size_t>
        index;
    // Per-series extremes over *reliable* points only.
    struct Extremes
    {
        double loVdd = 0.0, loWatts = 0.0;
        double hiVdd = 0.0, hiWatts = 0.0;
        bool any = false;
    };
    std::vector<Extremes> ext;
    for (const auto &s : samples) {
        if (s.instrGips <= 0.0)
            continue; // ran no work: it must not probe a voltage
        auto key = std::make_tuple(s.workload, s.config.label(),
                                   s.freqGhz);
        auto it = index.find(key);
        if (it == index.end()) {
            it = index.emplace(key, out.size()).first;
            UndervoltMargin m;
            m.workload = s.workload;
            m.config = s.config;
            m.freqGhz = s.freqGhz;
            out.push_back(std::move(m));
            ext.push_back({});
        }
        UndervoltMargin &m = out[it->second];
        Extremes &e = ext[it->second];
        ++m.pointsProbed;
        if (!s.reliable) {
            ++m.unreliablePoints;
            continue;
        }
        if (!e.any || s.vddVolts < e.loVdd) {
            e.loVdd = s.vddVolts;
            e.loWatts = s.powerWatts;
        }
        if (!e.any || s.vddVolts > e.hiVdd) {
            e.hiVdd = s.vddVolts;
            e.hiWatts = s.powerWatts;
        }
        e.any = true;
    }
    // A series with no reliable point discovered no safe voltage:
    // drop it rather than reporting a margin of nothing.
    std::vector<UndervoltMargin> kept;
    kept.reserve(out.size());
    for (size_t i = 0; i < out.size(); ++i) {
        if (!ext[i].any)
            continue;
        UndervoltMargin m = out[i];
        m.nominalVdd = ext[i].hiVdd;
        m.nominalPowerWatts = ext[i].hiWatts;
        m.safeVdd = ext[i].loVdd;
        m.safePowerWatts = ext[i].loWatts;
        m.powerSavedFrac =
            m.nominalPowerWatts > 0.0
                ? 1.0 - m.safePowerWatts / m.nominalPowerWatts
                : 0.0;
        kept.push_back(std::move(m));
    }
    return kept;
}

} // namespace mprobe
