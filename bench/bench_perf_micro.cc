/**
 * @file
 * google-benchmark microbenchmarks of the model-evaluation kernels:
 * how fast can a user sweep designs? These are throughput numbers for
 * the library itself, not paper reproductions.
 *
 * The MonteCarloTtm4096/SobolSixInputs256 families take the thread
 * count as their benchmark argument (1 = the serial path) so the
 * parallel engine's scaling is measured directly; after the benchmark
 * pass the driver re-times both kernels at 1/2/4/8 threads, checks
 * the parallel results are bitwise-identical to serial, and writes
 * the bench_out/BENCH_parallel.json snapshot.
 */

#include <chrono>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.hh"
#include "core/cas.hh"
#include "core/reference_designs.hh"
#include "core/uncertainty.hh"
#include "report/series.hh"
#include "sim/cache.hh"
#include "sim/trace.hh"
#include "stats/rng.hh"
#include "support/metrics.hh"
#include "support/trace.hh"
#include "tech/default_dataset.hh"

namespace {

using namespace ttmcas;

TtmModel::Options
a11Options()
{
    TtmModel::Options options;
    options.tapeout_engineers = kA11TapeoutEngineers;
    return options;
}

void
BM_TtmEvaluate(benchmark::State& state)
{
    const TtmModel model(defaultTechnologyDb(), a11Options());
    const ChipDesign a11 = designs::a11("7nm");
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            model.evaluate(a11, 10e6).total().value());
    }
}
BENCHMARK(BM_TtmEvaluate);

void
BM_TtmEvaluateChiplet(benchmark::State& state)
{
    const TtmModel model(defaultTechnologyDb(), a11Options());
    const ChipDesign zen =
        designs::zen2(designs::Zen2Config::OriginalWithInterposer);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            model.evaluate(zen, 10e6).total().value());
    }
}
BENCHMARK(BM_TtmEvaluateChiplet);

void
BM_CasSingleNode(benchmark::State& state)
{
    const CasModel cas(TtmModel(defaultTechnologyDb(), a11Options()));
    const ChipDesign a11 = designs::a11("7nm");
    for (auto _ : state)
        benchmark::DoNotOptimize(cas.cas(a11, 10e6));
}
BENCHMARK(BM_CasSingleNode);

void
BM_MonteCarloTtm128(benchmark::State& state)
{
    const UncertaintyAnalysis analysis(defaultTechnologyDb(),
                                       a11Options());
    const ChipDesign a11 = designs::a11("7nm");
    UncertaintyAnalysis::Options options;
    options.samples = 128;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            analysis.sampleTtm(a11, 10e6, {}, options).size());
    }
}
BENCHMARK(BM_MonteCarloTtm128);

void
BM_CacheSimZipf(benchmark::State& state)
{
    CacheConfig config;
    config.size_bytes = static_cast<std::uint64_t>(state.range(0));
    Cache cache(config);
    ZipfTrace trace(4096, 1.1, 64);
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.access(trace.next(rng)));
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations()));
}
BENCHMARK(BM_CacheSimZipf)->Arg(16 * 1024)->Arg(256 * 1024);

void
BM_SobolSixInputs256(benchmark::State& state)
{
    const UncertaintyAnalysis analysis(defaultTechnologyDb(),
                                       a11Options());
    const ChipDesign a11 = designs::a11("7nm");
    UncertaintyAnalysis::Options options;
    options.samples = 256;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            analysis.ttmSensitivity(a11, 10e6, {}, options)
                .total_effect.size());
    }
}
BENCHMARK(BM_SobolSixInputs256);

// --- Observability disabled-path overhead ---------------------------
//
// The zero-overhead-when-disabled contract (support/trace.hh,
// support/metrics.hh): with recording off, a span or counter op is one
// relaxed atomic load plus a branch — no clock read, no lock, no
// allocation. These benchmarks pin that down in nanoseconds.

void
BM_DisabledSpanOverhead(benchmark::State& state)
{
    obs::setTracingEnabled(false);
    for (auto _ : state) {
        const obs::ScopedSpan span("bench", "disabled");
        benchmark::DoNotOptimize(&span);
    }
}
BENCHMARK(BM_DisabledSpanOverhead);

void
BM_DisabledCounterOverhead(benchmark::State& state)
{
    obs::setMetricsEnabled(false);
    static const obs::Counter counter("bench.disabled_counter");
    for (auto _ : state)
        counter.increment();
}
BENCHMARK(BM_DisabledCounterOverhead);

void
BM_DisabledTimerOverhead(benchmark::State& state)
{
    obs::setMetricsEnabled(false);
    static const obs::Histogram histogram("bench.disabled_timer_us",
                                          {1.0, 10.0, 100.0});
    for (auto _ : state) {
        const obs::ScopedTimer timer(histogram);
        benchmark::DoNotOptimize(&timer);
    }
}
BENCHMARK(BM_DisabledTimerOverhead);

// --- Parallel engine scaling: threads is the benchmark argument. ---

UncertaintyAnalysis::Options
parallelOptions(std::size_t samples, std::int64_t threads)
{
    UncertaintyAnalysis::Options options;
    options.samples = samples;
    options.parallel.threads = static_cast<std::size_t>(threads);
    return options;
}

void
BM_MonteCarloTtm4096Threads(benchmark::State& state)
{
    const UncertaintyAnalysis analysis(defaultTechnologyDb(),
                                       a11Options());
    const ChipDesign a11 = designs::a11("7nm");
    const auto options = parallelOptions(4096, state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            analysis.sampleTtm(a11, 10e6, {}, options).size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_MonteCarloTtm4096Threads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void
BM_SobolSixInputs256Threads(benchmark::State& state)
{
    const UncertaintyAnalysis analysis(defaultTechnologyDb(),
                                       a11Options());
    const ChipDesign a11 = designs::a11("7nm");
    const auto options = parallelOptions(256, state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            analysis.ttmSensitivity(a11, 10e6, {}, options)
                .total_effect.size());
    }
}
BENCHMARK(BM_SobolSixInputs256Threads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- BENCH_parallel.json snapshot -----------------------------------

/** Median-of-3 wall-clock milliseconds of @p kernel. */
template <typename Kernel>
double
timeMs(Kernel&& kernel)
{
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        kernel();
        const auto stop = std::chrono::steady_clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(stop - start)
                .count();
        if (rep == 0 || ms < best)
            best = ms;
    }
    return best;
}

/**
 * Time the two headline kernels at 1/2/4/8 threads, verify the
 * parallel results are bitwise-identical to serial, and write the
 * JSON snapshot the verify loop and CHANGES trail reference. Each row
 * records the count asked for and the count used: a call never runs
 * more threads than the cores.
 */
void
writeParallelSnapshot()
{
    // The BM_ loops above run with observability off (measuring the
    // disabled path); the snapshot pass records metrics so the JSON
    // gains a "metrics" block (mc.samples, sobol.evaluations, pool.*).
    obs::setMetricsEnabled(true);
    const UncertaintyAnalysis analysis(defaultTechnologyDb(),
                                       a11Options());
    const ChipDesign a11 = designs::a11("7nm");
    const std::vector<std::int64_t> thread_counts{1, 2, 4, 8};

    std::vector<double> mc_ms, sobol_ms;
    bool deterministic = true;
    const auto mc_serial =
        analysis.sampleTtm(a11, 10e6, {}, parallelOptions(4096, 1));
    const auto sobol_serial = analysis.ttmSensitivity(
        a11, 10e6, {}, parallelOptions(256, 1));
    for (std::int64_t threads : thread_counts) {
        const auto mc_options = parallelOptions(4096, threads);
        const auto sobol_options = parallelOptions(256, threads);
        mc_ms.push_back(timeMs([&] {
            benchmark::DoNotOptimize(
                analysis.sampleTtm(a11, 10e6, {}, mc_options).size());
        }));
        sobol_ms.push_back(timeMs([&] {
            benchmark::DoNotOptimize(
                analysis.ttmSensitivity(a11, 10e6, {}, sobol_options)
                    .total_effect.size());
        }));
        if (analysis.sampleTtm(a11, 10e6, {}, mc_options) != mc_serial)
            deterministic = false;
        if (analysis.ttmSensitivity(a11, 10e6, {}, sobol_options)
                .total_effect != sobol_serial.total_effect)
            deterministic = false;
    }

    std::ostringstream json;
    json << "{\n"
         << "  \"hardware_concurrency\": "
         << std::thread::hardware_concurrency() << ",\n"
         << "  \"deterministic_across_thread_counts\": "
         << (deterministic ? "true" : "false") << ",\n";
    const auto emitKernel = [&](const char* name, std::size_t samples,
                                const std::vector<double>& ms,
                                bool last) {
        json << "  \"" << name << "\": {\n"
             << "    \"samples\": " << samples << ",\n"
             << "    \"runs\": [\n";
        for (std::size_t i = 0; i < ms.size(); ++i) {
            const ParallelConfig asked{
                static_cast<std::size_t>(thread_counts[i])};
            json << "      {\"threads\": " << thread_counts[i]
                 << ", \"threads_used\": " << asked.resolvedThreads()
                 << ", \"ms\": " << ms[i]
                 << ", \"speedup\": " << (ms[0] / ms[i]) << "}"
                 << (i + 1 < ms.size() ? "," : "") << "\n";
        }
        json << "    ]\n  }" << (last ? "\n" : ",\n");
    };
    emitKernel("monte_carlo_ttm", 4096, mc_ms, false);
    emitKernel("sobol_six_inputs", 256, sobol_ms, true);
    json << "}";

    bench::emitBenchJson("BENCH_parallel.json", json.str());
    obs::setMetricsEnabled(false);
}

} // namespace

int
main(int argc, char** argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    writeParallelSnapshot();
    return 0;
}
