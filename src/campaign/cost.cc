/**
 * @file
 * Cost-weighted shard partitioning.
 */

#include "campaign/cost.hh"

#include <algorithm>
#include <numeric>

#include "util/logging.hh"

namespace mprobe
{

std::vector<std::vector<size_t>>
costStripedPartition(const std::vector<double> &costs, int count)
{
    if (count < 1)
        fatal(cat("costStripedPartition: bad shard count ", count));
    std::vector<std::vector<size_t>> shards(
        static_cast<size_t>(count));

    // Descending cost, ties broken by ascending index: the order is
    // a pure function of the costs, never of scheduling, so every
    // shard computes the identical partition independently.
    std::vector<size_t> order(costs.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) {
                         return costs[a] > costs[b];
                     });

    // LPT greedy: each job to the currently lightest shard (ties to
    // the lowest shard number, which std::min_element guarantees).
    std::vector<double> load(static_cast<size_t>(count), 0.0);
    for (size_t i : order) {
        size_t s = static_cast<size_t>(
            std::min_element(load.begin(), load.end()) -
            load.begin());
        shards[s].push_back(i);
        load[s] += costs[i];
    }

    // Ascending index order within each shard keeps job/sample
    // listings in natural campaign order; runJobs re-sorts its
    // local execution queue longest-first separately.
    for (auto &s : shards)
        std::sort(s.begin(), s.end());
    return shards;
}

} // namespace mprobe
