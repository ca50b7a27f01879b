#include "cache_study.hh"

#include "sim/ipc_model.hh"
#include "sim/workloads.hh"
#include "tech/default_dataset.hh"

namespace perfbench {

namespace {

/**
 * Set-up (suite + technology) is sampled between passes, so its median
 * covers the whole run like the passes do.
 */
constexpr int kSetupsPerPass = 8;

ttmcas::CacheSweepOptions
sweepOptions()
{
    ttmcas::CacheSweepOptions options;
    options.process = "14nm";
    options.n_chips = 100e6;
    options.parallel = ttmcas::ParallelConfig::serial();
    return options;
}

struct Passes
{
    std::vector<double> seconds;
    double elapsed_s = 0.0;
};

/** One set-up sample: build the workload suite and the technology. */
double
timeSetup(Report& report)
{
    const std::int64_t begin = nowNs();
    const auto suite = ttmcas::defaultWorkloadSuite();
    const auto db = ttmcas::defaultTechnologyDb();
    const double seconds = (nowNs() - begin) / 1e9;
    if (suite.empty() || db.names().empty())
        report.fail("empty workload suite or technology");
    return seconds;
}

/**
 * Run passes until @p seconds of passes have elapsed (at least one),
 * taking set-up samples into @p setup_s between them.
 */
Passes
runPasses(std::uint64_t variant, double seconds, const std::string& expected,
          Report& report, SpanRecorder& spans, std::vector<double>& setup_s)
{
    Passes passes;
    do {
        const std::int64_t start = nowNs();
        const ScopedSpan root(spans, "cache_study.pass");
        const StudyOutput output = runStudyPass(variant, spans, root.id());
        passes.seconds.push_back((nowNs() - start) / 1e9);
        passes.elapsed_s += passes.seconds.back();
        report.attempt();
        const std::string digest = studyDigest(output);
        if (digest != expected)
            report.fail("cache_study variant " + std::to_string(variant) +
                        ": digest " + digest + " != recorded " + expected);
        for (int i = 0; i < kSetupsPerPass; ++i)
            setup_s.push_back(timeSetup(report));
    } while (passes.elapsed_s < seconds);
    return passes;
}

} // namespace

ttmcas::MissCurveOptions
studyCurveOptions(std::uint64_t variant)
{
    // Same window as the Fig. 4-6 benches (bench/cache_study_common.cc).
    ttmcas::MissCurveOptions options;
    options.warmup_accesses = 100'000;
    options.measured_accesses = 300'000;
    options.seed = 0x5bec + variant;
    return options;
}

StudyOutput
runStudyPass(std::uint64_t variant, SpanRecorder& spans, std::uint64_t parent)
{
    const auto suite = ttmcas::defaultWorkloadSuite();
    StudyOutput output;
    {
        const ScopedSpan span(spans, "sim.miss_curves.average", parent);
        std::tie(output.instruction, output.data) =
            ttmcas::averageMissCurves(suite, studyCurveOptions(variant));
    }
    {
        const ScopedSpan span(spans, "opt.cache_optimizer.sweep", parent);
        const ttmcas::CacheSweep sweep(ttmcas::defaultTechnologyDb(),
                                       output.instruction, output.data,
                                       ttmcas::IpcModel{});
        output.rows = sweep.sweep(sweepOptions());
    }
    return output;
}

void
runCacheStudy(const RunOptions& options, const std::string& digests,
              Report& report, SpanRecorder& spans)
{
    const std::uint64_t variant = options.seed % kStudyVariants;
    const auto recorded = loadDigests(digests);
    const auto found = recorded.find(variant);
    if (found == recorded.end()) {
        report.attempt();
        report.fail("no recorded digest for cache_study variant " +
                    std::to_string(variant) + " in " + digests);
        return;
    }

    std::vector<double> setup_s;
    const bool traced = spans.enabled();
    if (!traced) {
        const Passes passes = runPasses(variant, options.seconds,
                                        found->second, report, spans,
                                        setup_s);
        // Simulated accesses per pass: every suite workload, both
        // streams, every capacity, warm-up plus measured window.
        const auto curve = studyCurveOptions(variant);
        const double accesses =
            static_cast<double>(ttmcas::defaultWorkloadSuite().size() * 2 *
                                ttmcas::MissCurveOptions::paperSizes().size() *
                                (curve.warmup_accesses +
                                 curve.measured_accesses));
        const TimingSummary pass = summarize(passes.seconds);
        const double count = static_cast<double>(passes.seconds.size());
        report.add("setup_s", median(setup_s), "s");
        report.add("throughput_rps", count / passes.elapsed_s, "1/s");
        report.add("latency_p50_ms", pass.median * 1e3, "ms");
        report.add("latency_p99_ms", pass.tail * 1e3, "ms");
        report.add("points_per_s", accesses * count / passes.elapsed_s, "1/s");
        report.add("study_s", pass.median, "s");
        report.note("study passes " + std::to_string(passes.seconds.size()) +
                    ": median " + fullDigits(pass.median) + " s, p" +
                    fullDigits(pass.tail_percentile) + " " +
                    fullDigits(pass.tail) + " s");
        return;
    }

    const Passes traced_passes = runPasses(
        variant, options.seconds / 2, found->second, report, spans, setup_s);
    spans.setEnabled(false);
    const Passes plain = runPasses(variant, options.seconds / 2,
                                   found->second, report, spans, setup_s);
    spans.setEnabled(true);
    addUnexercisedServeMetrics(report);
    report.add("trace_overhead_frac",
               median(traced_passes.seconds) / median(plain.seconds) - 1.0,
               "ratio");
}

} // namespace perfbench
