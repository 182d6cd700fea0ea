/**
 * @file
 * Per-job cost estimation and cost-weighted shard scheduling.
 *
 * Campaign jobs are far from uniform: simulating a workload on an
 * 8-core SMT-4 configuration walks 32 hardware-thread contexts over
 * the loop body, while the 1-1 configuration walks one. Splitting a
 * mixed-config campaign by job *count* can leave one shard with
 * several times the wall time of another.
 *
 * The JobCostModel estimates the relative cost of one (workload,
 * configuration) job from what the simulator actually scales with —
 * deployed hardware threads x loop body size — and the partition
 * functions below turn those estimates into a deterministic
 * LPT-style (longest processing time first) greedy striping:
 * jobs are taken in descending cost order and each is assigned to
 * the currently lightest shard. For a fixed job list the partition
 * is a pure function of the costs, so every shard of one campaign
 * computes the identical partition independently, the union over
 * all shards is exactly the unsharded job list, and `--merge` stays
 * byte-identical to an unsharded run (the manifest, not the
 * partition, dictates export order).
 */

#ifndef CAMPAIGN_COST_HH
#define CAMPAIGN_COST_HH

#include <cstddef>
#include <vector>

#include "sim/machine.hh"

namespace mprobe
{

/**
 * Relative cost of one measurement job. Units are arbitrary (only
 * ratios matter for scheduling); the default weights make one
 * simulated body slot on one hardware thread cost 1.
 */
struct JobCostModel
{
    /** Fixed per-job overhead (dispatch, cache probe, sample I/O),
     * in body-slot units. */
    double perJob = 64.0;
    /** Cost per (body instruction x deployed hardware thread). */
    double perSlotThread = 1.0;

    /** Estimated cost of deploying a @p body_size-instruction loop
     * on @p cfg. */
    double
    estimate(const ChipConfig &cfg, size_t body_size) const
    {
        return perJob + perSlotThread *
                            static_cast<double>(cfg.threads()) *
                            static_cast<double>(body_size);
    }
};

/**
 * Deterministic LPT greedy partition of jobs with the given
 * @p costs into @p count shards. Jobs are visited in descending
 * cost order (ties by ascending index) and each is assigned to the
 * shard with the smallest accumulated cost (ties by ascending shard
 * number); each shard's index list comes back sorted ascending.
 * The shards are disjoint and cover [0, costs.size()) exactly.
 */
std::vector<std::vector<size_t>>
costStripedPartition(const std::vector<double> &costs, int count);

/** Shard @p index of costStripedPartition(costs, count). */
std::vector<size_t>
costStripedShard(const std::vector<double> &costs, int index,
                 int count);

/** One measured job wall time, as recorded in the campaign's
 * --metrics-json (cache hits are excluded from calibration: they
 * measure the filesystem, not the simulator). */
struct JobTiming
{
    ChipConfig config;
    size_t bodySize = 0;
    double seconds = 0.0;
    bool cached = false;
};

/** What calibrateJobCostModel fitted. */
struct CostCalibration
{
    /** False when the timings cannot support a fit (fewer than two
     * distinct non-cached sizes, or a non-positive slope). */
    bool ok = false;
    /** Non-cached timings the fit used. */
    size_t used = 0;
    /** Fixed per-job overhead in seconds (the intercept). */
    double perJobSeconds = 0.0;
    /** Seconds per (body instruction x deployed hardware thread)
     * (the slope). */
    double perSlotThreadSeconds = 0.0;
    /** Coefficient of determination of the fit. */
    double r2 = 0.0;
    /** The refitted model, normalized like the default (one
     * slot-thread unit costs 1): perJob = intercept / slope. */
    JobCostModel fitted;
};

/**
 * Refit the JobCostModel constants from measured per-job wall
 * times: ordinary least squares of seconds against
 * threads x body_size over the non-cached timings — the ROADMAP's
 * "calibrate the cost model from measured wall times" step,
 * surfaced as `mprobe_campaign --calibrate`. Only the
 * perJob/perSlotThread *ratio* matters for scheduling, so the
 * fitted model is normalized to perSlotThread = 1.
 */
CostCalibration
calibrateJobCostModel(const std::vector<JobTiming> &timings);

} // namespace mprobe

#endif // CAMPAIGN_COST_HH
