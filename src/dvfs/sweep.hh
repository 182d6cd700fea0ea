/**
 * @file
 * DVFS sweep analysis: energy metrics across operating points.
 *
 * Given campaign samples measured along a `freqs` axis, this module
 * answers the questions the voltage/frequency-scaling literature
 * asks of real machines: what are energy-per-instruction (EPI),
 * energy-delay product (EDP) and ED^2P at each operating point,
 * which point is energy-optimal per (workload, configuration), and
 * how badly does a counter-based power model trained at one
 * frequency mispredict at another? Compute-bound workloads (rate
 * scales with f while static power dominates) select high
 * frequencies; memory-bound workloads (rate pinned by DRAM latency
 * while power still grows with V and f) select low ones — the
 * compute-vs-memory divergence the roofline literature predicts.
 */

#ifndef DVFS_SWEEP_HH
#define DVFS_SWEEP_HH

#include <cstddef>
#include <string>
#include <vector>

#include "power/sample.hh"

namespace mprobe
{

/** @name Per-sample energy metrics
 * EPI is joules per committed instruction (power over instruction
 * rate); EDP multiplies EPI by the time per instruction (P/R^2) and
 * ED^2P by its square (P/R^3) — the standard family of
 * energy-efficiency objectives, increasingly biased toward
 * performance. All three are 0 for a sample with no instruction
 * rate (e.g. a hand-built or idle sample), never infinite.
 */
/**@{*/
double sampleEpiJoules(const Sample &s);
double sampleEdp(const Sample &s);
double sampleEd2p(const Sample &s);
/**@}*/

/** Metrics of one (workload, config) at one operating point. */
struct SweepPoint
{
    double freqGhz = 0.0;
    double powerWatts = 0.0;
    double instrGips = 0.0;
    double epiJ = 0.0;
    double edp = 0.0;
    double ed2p = 0.0;
};

/** One (workload, config) series across the swept frequencies. */
struct SweepSeries
{
    std::string workload;
    ChipConfig config;
    /** Operating points, ascending frequency. */
    std::vector<SweepPoint> points;
    /** Indices into points of the optimum under each objective
     * (minimum metric; ties resolve to the lower frequency). */
    size_t bestEpi = 0;
    size_t bestEdp = 0;
    size_t bestEd2p = 0;
};

/** The analyzed sweep. */
struct SweepAnalysis
{
    /** Distinct frequencies seen, ascending. */
    std::vector<double> freqs;
    /** One series per (workload, config), in first-appearance
     * order of the sample stream. */
    std::vector<SweepSeries> series;
};

/**
 * Group samples by (workload, configuration), order each group's
 * points by frequency and select the energy-optimal operating point
 * under EPI, EDP and ED^2P. Samples with no instruction rate (a
 * hand-built or idle sample; its zero EPI would win every optimum)
 * and unreliable samples (below-Vmin undervolted points) are
 * skipped. fatal() when the remaining samples span fewer than two
 * distinct frequencies: a single-point "sweep" would report that
 * point as every optimum.
 */
SweepAnalysis analyzeSweep(const std::vector<Sample> &samples);

/** The samples of @p all measured at frequency @p freq_ghz. */
std::vector<Sample> samplesAtFreq(const std::vector<Sample> &all,
                                  double freq_ghz);

/**
 * Cross-frequency model validation: train the top-down model on the
 * samples at @p train_freq, then report its PAAE at every swept
 * frequency next to the PAAE of a model trained at that frequency
 * itself. The gap between the two columns is the cost of assuming
 * one frequency's power model generalizes across the DVFS range.
 */
struct CrossFreqReport
{
    double trainFreqGhz = 0.0;
    struct Entry
    {
        double freqGhz = 0.0;
        size_t count = 0;
        /** PAAE of the model trained at trainFreqGhz. */
        double paaeCross = 0.0;
        /** PAAE of a model trained at this frequency (reference). */
        double paaeAtPoint = 0.0;
    };
    std::vector<Entry> entries;
};

/**
 * fatal() when @p samples holds no points at @p train_freq, or when
 * the live (positive instruction rate, reliable) samples span fewer
 * than two distinct frequencies — validating a model against its
 * own training frequency alone would report a spurious 0-gap.
 */
CrossFreqReport
crossFrequencyError(const std::vector<Sample> &samples,
                    double train_freq);

} // namespace mprobe

#endif // DVFS_SWEEP_HH
