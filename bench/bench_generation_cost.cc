/**
 * @file
 * google-benchmark microbenchmarks of the framework itself: the
 * cost of synthesis, the analytical cache model, simulation, and
 * the bootstrap — quantifying the paper's productivity claim that
 * suites which take an expert days to hand-craft are generated "in
 * a few hours without any human intervention" (here: milliseconds
 * per micro-benchmark on the simulated platform).
 *
 * Unlike the figure/table benches, the Machine::run calls here are
 * deliberately NOT routed through Campaign::measure: raw simulation
 * cost is the quantity under measurement, and the campaign's result
 * cache would short-circuit exactly the code being timed. For the
 * same reason every timed iteration runs on a fresh Machine, built
 * outside the timed region: a reused machine's memo would
 * serve every iteration after the first.
 */

#include <benchmark/benchmark.h>

#include "microprobe/bootstrap.hh"
#include "util/logging.hh"
#include "microprobe/cache_model.hh"
#include "microprobe/emitter.hh"
#include "microprobe/passes.hh"
#include "microprobe/synthesizer.hh"
#include "sim/machine.hh"

using namespace mprobe;

namespace
{

Architecture &
arch()
{
    static Architecture a = Architecture::get("POWER7");
    return a;
}

/** A machine with an empty memo, built untimed. */
Machine
freshMachine(benchmark::State &state)
{
    state.PauseTiming();
    Machine m(arch().isa());
    state.ResumeTiming();
    return m;
}

} // namespace

static void
BM_SynthesizeLoadLoop(benchmark::State &state)
{
    setLogLevel(LogLevel::Quiet);
    Synthesizer s(arch(), 1);
    s.addPass<SkeletonPass>(static_cast<size_t>(state.range(0)));
    s.addPass<InstructionMixPass>(arch().isa().loads());
    s.addPass<MemoryModelPass>(
        MemDistribution{0.33, 0.33, 0.34, 0});
    s.addPass<RegisterInitPass>(DataPattern::Random);
    s.add(std::make_unique<DependencyDistancePass>(
        DependencyDistancePass::random(1, 32)));
    for (auto _ : state) {
        Program p = s.synthesize();
        benchmark::DoNotOptimize(p.body.data());
    }
}
BENCHMARK(BM_SynthesizeLoadLoop)->Arg(1024)->Arg(4096);

static void
BM_AnalyticalStream(benchmark::State &state)
{
    AnalyticalCacheModel m(arch().uarch());
    int i = 0;
    for (auto _ : state) {
        auto ts = m.makeStream(
            static_cast<HitLevel>(i % 4), i % 8);
        ++i;
        benchmark::DoNotOptimize(ts.stream.lines.data());
    }
}
BENCHMARK(BM_AnalyticalStream);

static void
BM_SimulateCompute(benchmark::State &state)
{
    setLogLevel(LogLevel::Quiet);
    Synthesizer s(arch(), 2);
    s.addPass<SkeletonPass>(4096);
    s.addPass<InstructionMixPass>(arch().isa().integerOps());
    s.add(std::make_unique<DependencyDistancePass>(
        DependencyDistancePass::random(1, 16)));
    Program p = s.synthesize("bm-sim");
    ChipConfig cfg{1, static_cast<int>(state.range(0))};
    for (auto _ : state) {
        RunResult r = freshMachine(state).run(p, cfg);
        benchmark::DoNotOptimize(r.sensorWatts);
    }
}
BENCHMARK(BM_SimulateCompute)->Arg(1)->Arg(4);

static void
BM_SimulateMemoryBound(benchmark::State &state)
{
    setLogLevel(LogLevel::Quiet);
    Synthesizer s(arch(), 3);
    s.addPass<SkeletonPass>(4096);
    s.addPass<InstructionMixPass>(arch().isa().loads());
    s.addPass<MemoryModelPass>(MemDistribution{0, 0, 0, 1});
    s.add(std::make_unique<DependencyDistancePass>(
        DependencyDistancePass::random(4, 16)));
    Program p = s.synthesize("bm-mem");
    for (auto _ : state) {
        RunResult r = freshMachine(state).run(p, ChipConfig{8, 1});
        benchmark::DoNotOptimize(r.sensorWatts);
    }
}
BENCHMARK(BM_SimulateMemoryBound);

static void
BM_BootstrapOneInstruction(benchmark::State &state)
{
    setLogLevel(LogLevel::Quiet);
    Architecture a = Architecture::get("POWER7");
    BootstrapOptions bo;
    bo.bodySize = 1024;
    Isa::OpIndex op = a.isa().find("xvmaddadp");
    for (auto _ : state) {
        auto e = bootstrapInstruction(a, freshMachine(state), op, bo);
        benchmark::DoNotOptimize(e.epiNj);
    }
}
BENCHMARK(BM_BootstrapOneInstruction);

static void
BM_EmitC(benchmark::State &state)
{
    setLogLevel(LogLevel::Quiet);
    Synthesizer s(arch(), 4);
    s.addPass<SkeletonPass>(4096);
    s.addPass<InstructionMixPass>(arch().isa().loads());
    s.addPass<MemoryModelPass>(MemDistribution{1, 0, 0, 0});
    Program p = s.synthesize("bm-emit");
    for (auto _ : state) {
        std::string c = emitC(p);
        benchmark::DoNotOptimize(c.data());
    }
}
BENCHMARK(BM_EmitC);

BENCHMARK_MAIN();
