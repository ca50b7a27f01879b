#include "core/uncertainty.hh"

#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "stats/batch_driver.hh"
#include "stats/distributions.hh"
#include "stats/rng.hh"
#include "support/error.hh"
#include "support/metrics.hh"
#include "support/trace.hh"

namespace ttmcas {

std::string
uncertainInputName(UncertainInput input)
{
    switch (input) {
      case UncertainInput::TotalTransistors:
        return "NTT";
      case UncertainInput::UniqueTransistors:
        return "NUT";
      case UncertainInput::DefectDensity:
        return "D0";
      case UncertainInput::WaferRate:
        return "muW";
      case UncertainInput::FoundryLatency:
        return "Lfab";
      case UncertainInput::OsatLatency:
        return "LOSAT";
    }
    TTMCAS_INVARIANT(false, "unhandled UncertainInput");
}

InputFactors
nominalFactors()
{
    InputFactors factors;
    factors.fill(1.0);
    return factors;
}

UncertaintyAnalysis::UncertaintyAnalysis(TechnologyDb db,
                                         TtmModel::Options model_options)
    : _db(std::move(db)), _model_options(std::move(model_options))
{
    TTMCAS_REQUIRE(!_db.empty(),
                   "UncertaintyAnalysis needs a non-empty technology db");
}

ChipDesign
UncertaintyAnalysis::scaleDesign(const ChipDesign& design, double ntt_factor,
                                 double nut_factor)
{
    TTMCAS_REQUIRE(ntt_factor > 0.0 && nut_factor > 0.0,
                   "design scale factors must be positive");
    ChipDesign scaled = design;
    for (auto& die : scaled.dies) {
        die.total_transistors *= ntt_factor;
        die.unique_transistors *= nut_factor;
        // A die's floorplan grows with its transistor count, so a pinned
        // area scales with N_TT just like a density-derived one.
        if (die.area_override.has_value())
            die.area_override = *die.area_override * ntt_factor;
        // Unique can exceed total after asymmetric scaling; clamp to keep
        // the design valid (N_UT <= N_TT by definition).
        if (die.unique_transistors > die.total_transistors)
            die.unique_transistors = die.total_transistors;
    }
    return scaled;
}

TechnologyDb
UncertaintyAnalysis::scaledTechnology(double d0_factor, double mu_factor,
                                      double lfab_factor,
                                      double losat_factor) const
{
    TTMCAS_REQUIRE(d0_factor >= 0.0 && mu_factor >= 0.0 &&
                       lfab_factor >= 0.0 && losat_factor >= 0.0,
                   "technology scale factors must be >= 0");
    TechnologyDb scaled;
    for (ProcessNode node : _db.nodes()) {
        node.defect_density_per_mm2 *= d0_factor;
        node.wafer_rate_kwpm *= mu_factor;
        node.foundry_latency *= lfab_factor;
        node.osat_latency *= losat_factor;
        scaled.add(std::move(node));
    }
    return scaled;
}

Weeks
UncertaintyAnalysis::ttmWithFactors(const ChipDesign& design, double n_chips,
                                    const MarketConditions& market,
                                    const InputFactors& factors) const
{
    using I = UncertainInput;
    const ChipDesign scaled_design =
        scaleDesign(design, factors[static_cast<std::size_t>(I::TotalTransistors)],
                    factors[static_cast<std::size_t>(I::UniqueTransistors)]);
    const TechnologyDb scaled_db = scaledTechnology(
        factors[static_cast<std::size_t>(I::DefectDensity)],
        factors[static_cast<std::size_t>(I::WaferRate)],
        factors[static_cast<std::size_t>(I::FoundryLatency)],
        factors[static_cast<std::size_t>(I::OsatLatency)]);
    const TtmModel model(scaled_db, _model_options);
    return model.evaluate(scaled_design, n_chips, market).total();
}

double
UncertaintyAnalysis::casWithFactors(const ChipDesign& design, double n_chips,
                                    const MarketConditions& market,
                                    const InputFactors& factors) const
{
    using I = UncertainInput;
    const ChipDesign scaled_design =
        scaleDesign(design, factors[static_cast<std::size_t>(I::TotalTransistors)],
                    factors[static_cast<std::size_t>(I::UniqueTransistors)]);
    const TechnologyDb scaled_db = scaledTechnology(
        factors[static_cast<std::size_t>(I::DefectDensity)],
        factors[static_cast<std::size_t>(I::WaferRate)],
        factors[static_cast<std::size_t>(I::FoundryLatency)],
        factors[static_cast<std::size_t>(I::OsatLatency)]);
    const CasModel cas_model(TtmModel(scaled_db, _model_options));
    return cas_model.cas(scaled_design, n_chips, market);
}

namespace {

/** Draw one factor vector: each entry uniform in [1-band, 1+band]. */
InputFactors
drawFactors(Rng& rng, double band)
{
    InputFactors factors;
    for (auto& factor : factors)
        factor = rng.uniform(1.0 - band, 1.0 + band);
    return factors;
}

/** One sample from a copy of its stream (a pure function of it). */
using SampleFn = std::function<double(Rng&)>;

/**
 * Batch fill of @p n consecutive samples from their streams into
 * values plus per-lane ok flags (see PointKernel::chunk).
 */
using SampleChunkFn = std::function<void(const Rng* streams, std::size_t n,
                                         double* out, unsigned char* ok)>;

/**
 * Shared Monte-Carlo kernel behind sampleTtm/sampleCas/
 * sampleWaferDemand: validates the options, splits one independent
 * RNG stream per sample off the seed, and runs the samples through the
 * batch driver. Sample i always draws from its own copy of stream i,
 * so the result is bitwise-identical for any thread count or grain,
 * and a lane the optional @p chunk flags re-runs on the same draw.
 * Failed samples are dropped, keeping the survivors' index order.
 */
std::vector<double>
drawSamples(const UncertaintyAnalysis::Options& options, const char* kernel,
            const SampleFn& sample, const SampleChunkFn& chunk = {})
{
    TTMCAS_REQUIRE(options.samples > 0, "sample count must be positive");
    TTMCAS_REQUIRE(options.band >= 0.0 && options.band < 1.0,
                   "uncertainty band must be in [0, 1)");
    const obs::ScopedSpan span("mc", kernel);
    static const obs::Counter samples_drawn("mc.samples");
    Rng parent(options.seed);
    std::vector<Rng> streams;
    streams.reserve(options.samples);
    for (std::size_t i = 0; i < options.samples; ++i)
        streams.push_back(parent.split());

    PointKernel<double> points;
    points.name = kernel;
    points.seed = options.seed;
    points.count = options.samples;
    points.counter = &samples_drawn;
    points.point = [&](std::size_t i) {
        Rng stream = streams[i];
        return sample(stream);
    };
    if (chunk) {
        points.chunk = [&](std::size_t begin, std::size_t end, double* out,
                           unsigned char* ok) {
            chunk(streams.data() + begin, end - begin, out, ok);
        };
    }
    return runPoints(options, points).survivors();
}

} // namespace

std::vector<double>
UncertaintyAnalysis::sampleTtm(const ChipDesign& design, double n_chips,
                               const MarketConditions& market,
                               const Options& options) const
{
    std::optional<CompiledDesign> compiled;
    if (options.eval_path == EvalPath::kBatch)
        compiled = CompiledDesign::tryCompile(design, _db, _model_options,
                                              market, n_chips);
    if (!compiled.has_value()) {
        return drawSamples(options, "sampleTtm", [&](Rng& rng) {
            const InputFactors factors = drawFactors(rng, options.band);
            return ttmWithFactors(design, n_chips, market, factors).value();
        });
    }

    // One sample through the compiled kernel, falling back to the
    // exact scalar chain when it flags the sample; whole chunks go
    // through the SoA kernel.
    const CompiledDesign& fast = *compiled;
    const auto sample = [&](Rng& rng) {
        const InputFactors factors = drawFactors(rng, options.band);
        double value = 0.0;
        if (fast.ttmOne(factors, &value))
            return value;
        return ttmWithFactors(design, n_chips, market, factors).value();
    };
    const auto chunk = [&](const Rng* streams, std::size_t n, double* out,
                           unsigned char* ok) {
        thread_local std::array<std::vector<double>, 6> columns;
        for (auto& column : columns)
            column.resize(n);
        for (std::size_t j = 0; j < n; ++j) {
            Rng stream = streams[j];
            const InputFactors factors = drawFactors(stream, options.band);
            for (std::size_t k = 0; k < kUncertainInputCount; ++k)
                columns[k][j] = factors[k];
        }
        const std::array<const double*, 6> pointers{
            columns[0].data(), columns[1].data(), columns[2].data(),
            columns[3].data(), columns[4].data(), columns[5].data()};
        fast.ttmBatch(pointers, n, out, ok);
    };
    return drawSamples(options, "sampleTtm", sample, chunk);
}

std::vector<double>
UncertaintyAnalysis::sampleCas(const ChipDesign& design, double n_chips,
                               const MarketConditions& market,
                               const Options& options) const
{
    std::optional<CompiledDesign> compiled;
    if (options.eval_path == EvalPath::kBatch)
        compiled = CompiledDesign::tryCompile(design, _db, _model_options,
                                              market, n_chips);
    if (!compiled.has_value()) {
        return drawSamples(options, "sampleCas", [&](Rng& rng) {
            const InputFactors factors = drawFactors(rng, options.band);
            return casWithFactors(design, n_chips, market, factors);
        });
    }

    // CAS is derivative-shaped (2 x P perturbed evaluations per
    // sample), so the win comes from the compiled per-sample kernel:
    // the die phase runs once and only the fab phase re-runs per
    // perturbation. casWithFactors uses CasModel's default options.
    const CasModel::Options cas_options;
    const CompiledDesign& fast = *compiled;
    return drawSamples(options, "sampleCas", [&](Rng& rng) {
        const InputFactors factors = drawFactors(rng, options.band);
        double value = 0.0;
        if (fast.casOne(factors, cas_options.derivative_rel_step,
                        cas_options.normalization, nullptr, &value))
            return value;
        return casWithFactors(design, n_chips, market, factors);
    });
}

std::vector<double>
UncertaintyAnalysis::sampleWaferDemand(const ChipDesign& design,
                                       double n_chips,
                                       const std::string& process,
                                       const Options& options) const
{
    // Only the demand-relevant inputs vary, drawn N_TT then D0.
    const auto scalar_demand = [&](double ntt_factor, double d0_factor) {
        const ChipDesign scaled_design =
            scaleDesign(design, ntt_factor, 1.0);
        const TtmModel model(scaledTechnology(d0_factor, 1.0, 1.0, 1.0),
                             _model_options);
        return model.waferDemand(scaled_design, n_chips, process).value();
    };

    std::optional<CompiledDesign> compiled;
    // An unknown process throws per sample on the scalar path; keep
    // that path so the diagnostic stays identical.
    if (options.eval_path == EvalPath::kBatch && _db.has(process))
        compiled = CompiledDesign::tryCompile(design, _db, _model_options,
                                              MarketConditions{}, n_chips);
    const int process_index =
        compiled.has_value() ? compiled->processIndex(process) : -1;
    const auto sample = [&](Rng& rng) {
        const double ntt_factor =
            rng.uniform(1.0 - options.band, 1.0 + options.band);
        const double d0_factor =
            rng.uniform(1.0 - options.band, 1.0 + options.band);
        double value = 0.0;
        if (compiled.has_value() &&
            compiled->waferDemandOne(process_index, ntt_factor, d0_factor,
                                     &value))
            return value;
        return scalar_demand(ntt_factor, d0_factor);
    };
    if (!compiled.has_value())
        return drawSamples(options, "sampleWaferDemand", sample);

    const CompiledDesign& fast = *compiled;
    const auto chunk = [&](const Rng* streams, std::size_t n, double* out,
                           unsigned char* ok) {
        thread_local std::vector<double> ntt_column;
        thread_local std::vector<double> d0_column;
        ntt_column.resize(n);
        d0_column.resize(n);
        for (std::size_t j = 0; j < n; ++j) {
            // Same draw order as the scalar sample: N_TT then D0.
            Rng stream = streams[j];
            ntt_column[j] =
                stream.uniform(1.0 - options.band, 1.0 + options.band);
            d0_column[j] =
                stream.uniform(1.0 - options.band, 1.0 + options.band);
        }
        fast.waferDemandBatch(process_index, ntt_column.data(),
                              d0_column.data(), n, out, ok);
    };
    return drawSamples(options, "sampleWaferDemand", sample, chunk);
}

Summary
UncertaintyAnalysis::ttmSummary(const ChipDesign& design, double n_chips,
                                const MarketConditions& market,
                                const Options& options) const
{
    return Summary::of(sampleTtm(design, n_chips, market, options));
}

Summary
UncertaintyAnalysis::casSummary(const ChipDesign& design, double n_chips,
                                const MarketConditions& market,
                                const Options& options) const
{
    return Summary::of(sampleCas(design, n_chips, market, options));
}

SobolResult
UncertaintyAnalysis::ttmSensitivity(const ChipDesign& design, double n_chips,
                                    const MarketConditions& market,
                                    const Options& options) const
{
    std::vector<std::unique_ptr<Distribution>> owned;
    std::vector<SensitivityInput> inputs;
    for (std::size_t i = 0; i < kUncertainInputCount; ++i) {
        owned.push_back(relativeUniform(1.0, options.band));
        inputs.push_back(SensitivityInput{
            uncertainInputName(static_cast<UncertainInput>(i)),
            owned.back().get()});
    }

    // Sobol evaluates the model one point at a time (the pick-and-
    // freeze matrices are built upstream), so the win here is the
    // compiled per-point kernel with scalar fallback per flagged lane.
    std::optional<CompiledDesign> compiled;
    if (options.eval_path == EvalPath::kBatch)
        compiled = CompiledDesign::tryCompile(design, _db, _model_options,
                                              market, n_chips);
    const auto model = [&](const std::vector<double>& point) {
        TTMCAS_INVARIANT(point.size() == kUncertainInputCount,
                         "sensitivity point has wrong arity");
        InputFactors factors;
        for (std::size_t i = 0; i < kUncertainInputCount; ++i)
            factors[i] = point[i];
        if (compiled.has_value()) {
            double value = 0.0;
            if (compiled->ttmOne(factors, &value))
                return value;
        }
        return ttmWithFactors(design, n_chips, market, factors).value();
    };

    // ttmWithFactors builds every model object locally, so the lambda
    // satisfies sobolAnalyze's thread-safety contract.
    SobolOptions sobol_options;
    static_cast<BatchControl&>(sobol_options) = options;
    sobol_options.base_samples = options.samples;
    sobol_options.seed = options.seed;
    return sobolAnalyze(inputs, model, sobol_options);
}

} // namespace ttmcas
