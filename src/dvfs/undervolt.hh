/**
 * @file
 * Undervolt-margin analysis: safe Vmin discovery per series.
 *
 * A `vdds` campaign axis probes operating points below the V/f
 * curve; the machine flags every point under the workload's hidden
 * Vmin as unreliable (power numbers still come back, as they do on
 * real margin-compromised parts, but must not be trusted). This
 * module turns such a sweep into the system-level undervolting
 * result the V/f-scaling literature reports: for each (workload,
 * config, frequency) series, the lowest *reliable* voltage probed —
 * the discovered safe margin — and the power reclaimed there
 * relative to the highest reliable (nominal-most) voltage. At a
 * fixed frequency the voltage does not change timing, so the power
 * ratio is exactly the energy ratio.
 */

#ifndef DVFS_UNDERVOLT_HH
#define DVFS_UNDERVOLT_HH

#include <string>
#include <vector>

#include "power/sample.hh"

namespace mprobe
{

/** The discovered margin of one (workload, config, freq) series. */
struct UndervoltMargin
{
    std::string workload;
    ChipConfig config;
    double freqGhz = 0.0;
    /** Highest reliable voltage probed (the nominal-most point). */
    double nominalVdd = 0.0;
    double nominalPowerWatts = 0.0;
    /** Lowest reliable voltage probed (the discovered safe Vmin
     * margin; equals nominalVdd when nothing below it survived). */
    double safeVdd = 0.0;
    double safePowerWatts = 0.0;
    /** Power (== energy, at fixed frequency) saved at the safe
     * point vs the nominal-most one: 1 - safeP/nominalP. */
    double powerSavedFrac = 0.0;
    /** Voltages probed in this series, and how many of them came
     * back flagged unreliable (below the hidden Vmin). */
    size_t pointsProbed = 0;
    size_t unreliablePoints = 0;
};

/**
 * Group samples by (workload, config, frequency) in
 * first-appearance order and report each group's discovered
 * undervolt margin. Samples with no instruction rate (a hand-built
 * or idle sample) are skipped; a series whose every point is
 * unreliable is dropped — it probed no safe voltage at all.
 */
std::vector<UndervoltMargin>
findUndervoltMargin(const std::vector<Sample> &samples);

} // namespace mprobe

#endif // DVFS_UNDERVOLT_HH
