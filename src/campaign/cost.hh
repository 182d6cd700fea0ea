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
 * deployed hardware threads x loop body size — and
 * costStripedPartition turns those estimates into a deterministic
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
 * Relative cost of one measurement job: a fixed heuristic whose
 * units are arbitrary (only ratios matter for scheduling); one
 * simulated body slot on one hardware thread costs 1.
 */
struct JobCostModel
{
    /** Fixed per-job overhead (dispatch, cache probe, sample I/O),
     * in body-slot units. */
    static constexpr double kPerJob = 64.0;

    /** Estimated cost of deploying a @p body_size-instruction loop
     * on @p cfg: the overhead plus one unit per (body instruction x
     * deployed hardware thread). */
    double
    estimate(const ChipConfig &cfg, size_t body_size) const
    {
        return kPerJob + static_cast<double>(cfg.threads()) *
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

} // namespace mprobe

#endif // CAMPAIGN_COST_HH
