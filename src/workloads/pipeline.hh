/**
 * @file
 * The Section-4 experiment pipeline: generate the training suite,
 * measure it across configurations, train the bottom-up and
 * top-down models, and measure the validation workloads.
 *
 * Shared by the figure-regeneration benches and the integration
 * tests; every knob that bounds cost is exposed so tests can run a
 * reduced corpus.
 */

#ifndef WORKLOADS_PIPELINE_HH
#define WORKLOADS_PIPELINE_HH

#include <map>
#include <string>
#include <vector>

#include "power/bottomup.hh"
#include "power/topdown.hh"
#include "util/stats.hh"
#include "workloads/suite.hh"

namespace mprobe
{

/** Corpus-collection knobs. */
struct PipelineOptions
{
    SuiteOptions suite;
    /** Configurations measured (default: all 24). */
    std::vector<ChipConfig> configs = ChipConfig::all();
    /** Random micro-benchmarks measured across all configs. */
    int randomCrossConfig = 80;
    /** Micro (non-random) benches measured across all configs:
     * every benchmark is measured at 1-1/1-2/1-4; additionally one
     * in @p microConfigStride gets each remaining config. */
    int microConfigStride = 4;
    /** SPEC proxies to include (0 = all 28). */
    int specCount = 0;
    /** Loop body size for SPEC proxies / extremes. */
    size_t bodySize = 4096;
    uint64_t seed = 0x9e11e5ull;

    /**
     * @name Campaign execution
     * The pipeline routes every measurement through
     * Campaign::measure; these knobs configure the engine. Results
     * are thread-count-invariant (each job's measurement salt
     * derives from its content hash, not from scheduling).
     */
    /**@{*/
    /** Measurement worker threads (0 = auto, 1 = serial). */
    int threads = 0;
    /** On-disk result cache directory ("" = off). */
    std::string cacheDir;
    /** Extra salt mixed into each job's measurement seed. */
    uint64_t salt = 0;
    /**
     * Fleet mode (CampaignSpec::serve): measure through the claim
     * pool of the shared cacheDir, so every pipeline run against
     * that directory takes a share of the corpus and each trains
     * the models from the complete sample set. Needs cacheDir.
     */
    bool serve = false;
    /**@}*/
};

/** Everything measured and trained. */
struct ModelExperiment
{
    /** The generated Table-2 suite (programs + metadata). */
    std::vector<GeneratedBench> suite;

    /** Training samples. */
    BottomUpTrainingSet buSet;
    std::vector<Sample> microAllConfigs; //!< TD_Micro training
    std::vector<Sample> randomAllConfigs; //!< TD_Random training

    /** SPEC proxy samples for every (benchmark, config). */
    std::vector<Sample> spec;

    /** Trained models. */
    BottomUpModel bu;
    TopDownModel tdMicro;
    TopDownModel tdRandom;
    TopDownModel tdSpec;

    /** Measured idle power (workload-independent). */
    double idleWatts = 0.0;

    /** SPEC samples of one configuration. */
    std::vector<Sample> specAt(const ChipConfig &cfg) const;

    /** PAAE of a model over a set of samples. */
    template <typename Model>
    double
    paaeOf(const Model &m, const std::vector<Sample> &ss) const
    {
        std::vector<double> pred, real;
        for (const auto &s : ss) {
            pred.push_back(m.predict(s));
            real.push_back(s.powerWatts);
        }
        return paae(pred, real);
    }
};

/**
 * Run the full pipeline: generate, measure, train.
 * @p arch must already be bootstrapped when IPC-targeted generation
 * should use measured latencies (it falls back to ISA guesses
 * otherwise).
 */
ModelExperiment
runModelPipeline(Architecture &arch, const Machine &machine,
                 const PipelineOptions &opts = PipelineOptions());

} // namespace mprobe

#endif // WORKLOADS_PIPELINE_HH
