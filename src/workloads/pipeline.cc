/**
 * @file
 * Pipeline implementation.
 *
 * The pipeline no longer runs its own measurement loops: it expands
 * the whole training/validation corpus into one per-program
 * configuration plan, measures it with Campaign::measure (worker
 * pool + result cache), and scatters the samples back into the
 * model training sets. The plan reproduces the paper's corpus
 * exactly: every micro-benchmark at 1 core in all SMT modes, a
 * cross-configuration stride of micros and a subset of randoms
 * across all configurations, and every SPEC proxy everywhere.
 */

#include "workloads/pipeline.hh"

#include "campaign/campaign.hh"
#include "util/logging.hh"
#include "workloads/spec_proxies.hh"

namespace mprobe
{

std::vector<Sample>
ModelExperiment::specAt(const ChipConfig &cfg) const
{
    std::vector<Sample> out;
    for (const auto &s : spec)
        if (s.config.cores == cfg.cores && s.config.smt == cfg.smt)
            out.push_back(s);
    return out;
}

ModelExperiment
runModelPipeline(Architecture &arch, const Machine &machine,
                 const PipelineOptions &opts)
{
    ModelExperiment ex;

    inform("pipeline: generating the Table-2 training suite");
    ex.suite = generateTable2Suite(arch, machine, opts.suite);

    ex.idleWatts = machine.idleWatts(ChipConfig{1, 1});
    ex.buSet.idleWatts = ex.idleWatts;

    auto proxies =
        generateSpecProxies(arch, opts.bodySize, opts.seed);
    if (opts.specCount > 0 &&
        static_cast<size_t>(opts.specCount) < proxies.size())
        proxies.resize(static_cast<size_t>(opts.specCount));

    auto is11 = [](const ChipConfig &c) {
        return c.cores == 1 && c.smt == 1;
    };

    // Plan phase: one config list per program.
    std::vector<Program> progs;
    std::vector<std::vector<ChipConfig>> plan;
    // Per suite entry: random benchmark measured across all
    // configurations (step 3 / TD_Random coverage).
    std::vector<char> random_cross_flag;

    int micro_idx = 0;
    int random_cross = 0;
    size_t cfg_rr = 0;
    for (const auto &gb : ex.suite) {
        std::vector<ChipConfig> cfgs;
        char cross = 0;
        if (gb.category != BenchCategory::Random) {
            // Steps 1 & 2: 1-core measurements in every SMT mode,
            // plus cross-configuration coverage for TD_Micro (one
            // benchmark in microConfigStride gets one rotating
            // non-1-core configuration).
            cfgs = {{1, 1}, {1, 2}, {1, 4}};
            if (opts.microConfigStride > 0 &&
                micro_idx % opts.microConfigStride == 0) {
                const ChipConfig &cfg =
                    opts.configs[cfg_rr++ % opts.configs.size()];
                if (cfg.cores != 1)
                    cfgs.push_back(cfg);
            }
            ++micro_idx;
        } else {
            // Random set: intercept calibration at 1-1, plus a
            // cross-configuration subset for step 3 / TD_Random.
            cfgs = {{1, 1}};
            if (random_cross < opts.randomCrossConfig) {
                ++random_cross;
                cross = 1;
                for (const auto &cfg : opts.configs)
                    if (!is11(cfg))
                        cfgs.push_back(cfg);
            }
        }
        progs.push_back(gb.program);
        plan.push_back(std::move(cfgs));
        random_cross_flag.push_back(cross);
    }
    for (const auto &p : proxies) {
        progs.push_back(p);
        plan.push_back(opts.configs);
    }

    inform("pipeline: measuring the corpus");
    CampaignSpec cspec =
        measurementSpec(opts.threads, opts.cacheDir, opts.salt);
    cspec.configs = opts.configs;
    cspec.serve = opts.serve;
    Campaign campaign(machine, cspec);
    std::vector<Sample> samples = campaign.measure(progs, plan);

    // Scatter phase: samples come back program-major, each
    // program's configs in plan order.
    size_t si = 0;
    for (size_t w = 0; w < ex.suite.size(); ++w) {
        const GeneratedBench &gb = ex.suite[w];
        if (gb.category != BenchCategory::Random) {
            for (size_t k = 0; k < plan[w].size(); ++k) {
                const Sample &s = samples[si++];
                if (k == 0)
                    ex.buSet.microSmt1.push_back(s);
                else if (k <= 2)
                    ex.buSet.microSmtOn.push_back(s);
                ex.microAllConfigs.push_back(s);
            }
        } else {
            Sample s11 = samples[si++];
            ex.buSet.randomSmt1.push_back(s11);
            if (random_cross_flag[w]) {
                // The 1-1 sample serves double duty in the
                // cross-configuration sweep.
                size_t extra = si;
                for (const auto &cfg : opts.configs) {
                    const Sample &s =
                        is11(cfg) ? s11 : samples[extra++];
                    ex.buSet.randomAllConfigs.push_back(s);
                    ex.randomAllConfigs.push_back(s);
                }
                si = extra;
            } else {
                ex.randomAllConfigs.push_back(s11);
            }
        }
    }
    for (size_t p = 0; p < proxies.size(); ++p)
        for (size_t c = 0; c < opts.configs.size(); ++c)
            ex.spec.push_back(samples[si++]);
    if (si != samples.size())
        panic("pipeline: measurement plan / scatter mismatch");

    inform("pipeline: training the models");
    ex.bu = BottomUpModel::train(ex.buSet);
    ex.tdMicro = TopDownModel::train(ex.microAllConfigs, "TD_Micro");
    ex.tdRandom =
        TopDownModel::train(ex.randomAllConfigs, "TD_Random");
    ex.tdSpec = TopDownModel::train(ex.spec, "TD_SPEC");
    return ex;
}

} // namespace mprobe
