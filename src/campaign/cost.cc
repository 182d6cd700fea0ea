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

CostCalibration
calibrateJobCostModel(const std::vector<JobTiming> &timings)
{
    CostCalibration out;
    // x = deployed hardware threads x body size (what the simulator
    // actually scales with), y = measured wall seconds.
    std::vector<double> xs, ys;
    for (const auto &t : timings) {
        if (t.cached || t.seconds <= 0.0)
            continue;
        xs.push_back(static_cast<double>(t.config.threads()) *
                     static_cast<double>(t.bodySize));
        ys.push_back(t.seconds);
    }
    out.used = xs.size();
    if (xs.size() < 2)
        return out;

    double xm = 0.0, ym = 0.0;
    for (size_t i = 0; i < xs.size(); ++i) {
        xm += xs[i];
        ym += ys[i];
    }
    xm /= static_cast<double>(xs.size());
    ym /= static_cast<double>(ys.size());
    double sxx = 0.0, sxy = 0.0, syy = 0.0;
    for (size_t i = 0; i < xs.size(); ++i) {
        sxx += (xs[i] - xm) * (xs[i] - xm);
        sxy += (xs[i] - xm) * (ys[i] - ym);
        syy += (ys[i] - ym) * (ys[i] - ym);
    }
    // All jobs the same size (sxx == 0) or wall time shrinking with
    // work (slope <= 0, pure noise): no usable fit.
    if (sxx <= 0.0)
        return out;
    double slope = sxy / sxx;
    if (slope <= 0.0)
        return out;
    double intercept = ym - slope * xm;

    out.ok = true;
    out.perSlotThreadSeconds = slope;
    out.perJobSeconds = intercept;
    out.r2 = syy > 0.0 ? (sxy * sxy) / (sxx * syy) : 1.0;
    out.fitted.perSlotThread = 1.0;
    // A negative intercept (tiny jobs dominated by noise) would
    // make small jobs "free"; clamp to the meaningful range.
    out.fitted.perJob = std::max(0.0, intercept / slope);
    return out;
}

} // namespace mprobe
