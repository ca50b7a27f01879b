#include "layers.hh"

#include <functional>

#include "cache_study.hh"
#include "core/cas.hh"
#include "core/ensemble.hh"
#include "core/reference_designs.hh"
#include "core/ttm_model.hh"
#include "core/uncertainty.hh"
#include "opt/cache_optimizer.hh"
#include "opt/chiplet_explorer.hh"
#include "serve/evaluator.hh"
#include "sim/cache.hh"
#include "sim/ipc_model.hh"
#include "sim/miss_curves.hh"
#include "sim/workloads.hh"
#include "support/cancel.hh"
#include "support/outcome.hh"
#include "tech/default_dataset.hh"

namespace perfbench {

namespace {

using namespace ttmcas;

constexpr int kRepeats = 3;

/** Median wall time of @p repeats calls of @p work, each under a span. */
double
timeMedianNs(SpanRecorder& spans, const char* name,
             const std::function<void()>& work, int repeats = kRepeats)
{
    std::vector<double> ns;
    for (int i = 0; i < repeats; ++i) {
        const ScopedSpan span(spans, name);
        const std::int64_t begin = nowNs();
        work();
        ns.push_back(static_cast<double>(nowNs() - begin));
    }
    return median(ns);
}

/** The options EvalServer's evaluator sets on every analysis. */
UncertaintyAnalysis::Options
serverOptions(std::size_t samples, std::uint64_t seed,
              const CancellationToken& token, FailureReport& failures)
{
    UncertaintyAnalysis::Options options;
    options.samples = samples;
    options.seed = seed;
    options.parallel = ParallelConfig::serial();
    options.failure_policy = FailurePolicy::skipAndRecord(1.0);
    options.failure_report = &failures;
    options.cancel = &token;
    return options;
}

/** Default options, serial: the fast path without thread effects. */
UncertaintyAnalysis::Options
fastOptions(std::size_t samples, std::uint64_t seed)
{
    UncertaintyAnalysis::Options options;
    options.samples = samples;
    options.seed = seed;
    options.parallel = ParallelConfig::serial();
    return options;
}

void
measureCore(std::uint64_t seed, Report& report, SpanRecorder& spans)
{
    const TechnologyDb db = defaultTechnologyDb();
    const ChipDesign design = designs::a11("7nm");
    const double n_chips = 1e7;
    const MarketConditions market;
    const UncertaintyAnalysis analysis(db);
    const CancellationToken token;

    constexpr std::size_t kSamples = 4096;
    FailureReport failures;
    const auto per_sample = [&](const char* name, auto&& sample) {
        return timeMedianNs(spans, name, sample) / kSamples;
    };
    const double ttm = per_sample("core.uncertainty.sample_ttm", [&] {
        analysis.sampleTtm(design, n_chips, market,
                           serverOptions(kSamples, seed, token, failures));
    });
    const double ttm_fast = per_sample("core.uncertainty.sample_ttm_fast", [&] {
        analysis.sampleTtm(design, n_chips, market,
                           fastOptions(kSamples, seed));
    });
    const double cas = per_sample("core.uncertainty.sample_cas", [&] {
        analysis.sampleCas(design, n_chips, market,
                           serverOptions(kSamples, seed, token, failures));
    });
    const double cas_fast = per_sample("core.uncertainty.sample_cas_fast", [&] {
        analysis.sampleCas(design, n_chips, market,
                           fastOptions(kSamples, seed));
    });
    report.add("core.uncertainty.sample_ttm_ns", ttm, "ns");
    report.add("core.uncertainty.sample_ttm_fast_ns", ttm_fast, "ns");
    report.add("core.uncertainty.sample_cas_ns", cas, "ns");
    report.add("core.uncertainty.sample_cas_fast_ns", cas_fast, "ns");
    report.add("core.uncertainty.ttm_server_over_fast", ttm / ttm_fast,
               "ratio");
    report.note("server-vs-fast ns/sample: ttm " + fullDigits(ttm) + " / " +
                fullDigits(ttm_fast) + ", cas " + fullDigits(cas) + " / " +
                fullDigits(cas_fast) + " (" + std::to_string(kSamples) +
                " samples, a11@7nm, serial)");

    std::size_t evaluations = 0;
    const double sobol_ns = timeMedianNs(spans, "stats.sobol", [&] {
        evaluations = analysis
                          .ttmSensitivity(design, n_chips, market,
                                          serverOptions(256, seed, token,
                                                        failures))
                          .evaluations;
    });
    report.add("stats.sobol.ns_per_eval",
               sobol_ns / static_cast<double>(std::max<std::size_t>(1, evaluations)),
               "ns");

    // The served capacity_sweep (scalar loop) against the compiled sweep.
    constexpr std::size_t kGrid = 512;
    std::vector<double> grid;
    for (std::size_t i = 0; i < kGrid; ++i)
        grid.push_back(0.2 + 0.8 * static_cast<double>(i + 1) / kGrid);
    serve::EvalRequest sweep_request;
    sweep_request.kind = serve::RequestKind::CapacitySweep;
    sweep_request.design = design;
    sweep_request.n_chips = n_chips;
    sweep_request.grid = grid;
    const serve::Evaluator evaluator(db);
    const double served_ns = timeMedianNs(spans, "core.cas.sweep", [&] {
        evaluator.evaluate(sweep_request, token);
    });
    const CasModel cas_model{TtmModel(db)};
    const double compiled_ns =
        timeMedianNs(spans, "core.cas.capacity_sweep", [&] {
            cas_model.capacitySweep(design, n_chips, grid);
        });
    report.add("core.cas.sweep_us_per_point", served_ns / 1e3 / kGrid, "us");
    report.add("core.cas.capacity_sweep_us_per_point",
               compiled_ns / 1e3 / kGrid, "us");

    constexpr std::size_t kPaths = 128;
    const EnsembleRunner ensemble(db);
    const EnsembleSpec spec = EnsembleSpec::defaultsFor(design.processNodes());
    const double ensemble_ns = timeMedianNs(spans, "core.ensemble", [&] {
        EnsembleOptions options;
        options.paths = kPaths;
        options.seed = seed;
        options.parallel = ParallelConfig::serial();
        options.failure_policy = FailurePolicy::skipAndRecord(1.0);
        options.failure_report = &failures;
        options.cancel = &token;
        ensemble.run(design, n_chips, market, spec, options);
    });
    report.add("core.ensemble.us_per_path", ensemble_ns / 1e3 / kPaths, "us");

    const ChipletExplorer explorer(db);
    const ChipletSweepSpec chiplet =
        ChipletSweepSpec::defaultsFor(design.processNodes());
    const double chiplet_ns =
        timeMedianNs(spans, "opt.chiplet_explorer", [&] {
            ChipletExplorerOptions options;
            options.seed = seed;
            options.parallel = ParallelConfig::serial();
            options.failure_policy = FailurePolicy::skipAndRecord(1.0);
            options.failure_report = &failures;
            options.cancel = &token;
            explorer.run(design, n_chips, market, chiplet, options);
        });
    report.add("opt.chiplet_explorer.us_per_candidate",
               chiplet_ns / 1e3 /
                   static_cast<double>(chiplet.candidateCount()),
               "us");
    if (failures.failureCount() != 0)
        report.fail("layer probes recorded " +
                    std::to_string(failures.failureCount()) +
                    " failed points");
}

void
measureSim(std::uint64_t seed, Report& report, SpanRecorder& spans)
{
    const std::uint64_t variant = seed % kStudyVariants;
    const MissCurveOptions study = studyCurveOptions(variant);
    const auto suite = defaultWorkloadSuite();

    // Address generation alone, then Cache::access over those addresses.
    constexpr std::size_t kAccesses = 100'000;
    std::vector<std::vector<std::uint64_t>> streams;
    const double generate_ns = timeMedianNs(spans, "sim.trace", [&] {
        streams.clear();
        for (const ttmcas::Workload& workload : suite) {
            for (const auto& stream :
                 {workload.instruction_stream, workload.data_stream}) {
                stream->reset();
                Rng rng(study.seed);
                streams.push_back(stream->generate(kAccesses, rng));
            }
        }
    });
    const double accesses = static_cast<double>(streams.size() * kAccesses);
    std::uint64_t hits = 0;
    const double cache_ns = timeMedianNs(spans, "sim.cache", [&] {
        for (const auto& addresses : streams) {
            CacheConfig config;
            config.size_bytes = 32 * 1024;
            Cache cache(config, study.seed);
            for (const std::uint64_t address : addresses)
                hits += cache.access(address) ? 1 : 0;
        }
    });
    report.add("sim.trace.ns_per_access", generate_ns / accesses, "ns");
    report.add("sim.cache.ns_per_access", cache_ns / accesses, "ns");
    if (hits == 0)
        report.fail("sim.cache probe saw no hits");

    // One instruction and one data curve of a seed-chosen workload.
    const ttmcas::Workload& workload = suite[seed % suite.size()];
    const double curve_ns = timeMedianNs(
        spans, "sim.miss_curves",
        [&] {
            measureMissCurve(workload, true, study);
            measureMissCurve(workload, false, study);
        },
        1);
    report.add("sim.miss_curves.ms_per_curve", curve_ns / 2 / 1e6, "ms");

    // Computed from the options, not counted: what one study pass does.
    const double per_pass =
        static_cast<double>(suite.size() * 2 *
                            MissCurveOptions::paperSizes().size() *
                            (study.warmup_accesses + study.measured_accesses));
    report.add("sim.accesses_simulated", per_pass, "computed_count");
    report.add("sim.addresses_generated", per_pass, "computed_count");

    // The sweep itself, over cheap curves (its cost does not depend on
    // the curve values).
    MissCurveOptions quick = study;
    quick.warmup_accesses = 2'000;
    quick.measured_accesses = 8'000;
    const auto [instruction, data] = averageMissCurves(suite, quick);
    const CacheSweep sweep(defaultTechnologyDb(), instruction, data,
                           IpcModel{});
    CacheSweepOptions options;
    options.process = "14nm";
    options.n_chips = 100e6;
    options.parallel = ParallelConfig::serial();
    std::size_t points = 0;
    const double sweep_ns = timeMedianNs(spans, "opt.cache_optimizer", [&] {
        points = sweep.sweep(options).size();
    });
    report.add("opt.cache_optimizer.us_per_point",
               sweep_ns / 1e3 / static_cast<double>(std::max<std::size_t>(1, points)),
               "us");
}

} // namespace

void
measureLayers(std::uint64_t seed, Report& report, SpanRecorder& spans)
{
    measureCore(seed, report, spans);
    measureSim(seed, report, spans);
}

} // namespace perfbench
