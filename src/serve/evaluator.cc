#include "serve/evaluator.hh"

#include <utility>

#include "core/cas.hh"
#include "core/ensemble.hh"
#include "core/ensemble_io.hh"
#include "core/ttm_model.hh"
#include "core/uncertainty.hh"
#include "opt/chiplet_explorer.hh"
#include "opt/chiplet_io.hh"
#include "support/error.hh"
#include "support/json.hh"
#include "support/outcome.hh"

namespace ttmcas::serve {

namespace {

/** The reply status implied by how a run stopped. */
std::string
statusOf(const CancellationToken* token)
{
    if (token == nullptr || !token->stopRequested())
        return "ok";
    return token->stopCode() == DiagCode::Cancelled ? "cancelled"
                                                    : "deadline_exceeded";
}

/** Render the shared "failures" payload object. */
void
writeFailures(JsonWriter& json, const FailureReport& report)
{
    json.key("failures");
    json.beginObject();
    json.field("points",
               static_cast<std::uint64_t>(report.pointCount()));
    json.field("failed",
               static_cast<std::uint64_t>(report.failureCount()));
    json.field("cancelled", static_cast<std::uint64_t>(
                                report.count(DiagCode::Cancelled)));
    json.field("deadline_exceeded",
               static_cast<std::uint64_t>(
                   report.count(DiagCode::DeadlineExceeded)));
    json.endObject();
}

/** Render a Summary, or null for an empty sample set. */
void
writeSummary(JsonWriter& json, const std::vector<double>& samples)
{
    json.key("summary");
    if (samples.empty()) {
        json.null();
        return;
    }
    const Summary summary = Summary::of(samples);
    json.beginObject();
    json.field("count", static_cast<std::uint64_t>(summary.count));
    json.field("mean", summary.mean);
    json.field("stddev", summary.stddev);
    json.field("min", summary.min);
    json.field("max", summary.max);
    json.field("p5", summary.percentile(5.0));
    json.field("p50", summary.percentile(50.0));
    json.field("p95", summary.percentile(95.0));
    json.endObject();
}

/** Analysis options for one request under @p control. */
UncertaintyAnalysis::Options
analysisOptions(const EvalRequest& request, const BatchControl& control)
{
    UncertaintyAnalysis::Options options;
    static_cast<BatchControl&>(options) = control;
    options.band = request.band;
    options.samples = request.samples;
    options.seed = request.seed;
    return options;
}

} // namespace

Evaluator::Evaluator(TechnologyDb db, FaultInjector injector)
    : _db(std::move(db)), _injector(std::move(injector))
{}

std::string
Evaluator::cacheKey(const EvalRequest& request)
{
    EvalKeyParams params;
    params.kernel = requestKindName(request.kind);
    params.seed = request.seed;
    params.n_chips = request.n_chips;
    params.samples = request.samples;
    params.band = request.band;
    params.grid = request.grid;
    // The disruption configuration is part of the evaluation's
    // identity: two ensembles differing in any regime parameter or
    // node process must never share a cache entry.
    if (request.kind == RequestKind::EnsembleTtm)
        params.ensemble = &request.ensemble;
    // Likewise the full sweep spec: any differing axis entry or cost
    // assumption must produce a different chiplet_pareto cache key.
    if (request.kind == RequestKind::ChipletPareto)
        params.chiplet = &request.chiplet;
    return evalCacheKey(request.design, request.market, params);
}

EvalOutcome
Evaluator::evaluate(const EvalRequest& request,
                    const CancellationToken& token) const
{
    // One request = one pool thread; concurrency lives across
    // requests, not inside one (keeps a flood from oversubscribing).
    BatchControl control;
    control.parallel = ParallelConfig::serial();
    control.failure_policy = FailurePolicy::skipAndRecord(1.0);
    control.cancel = &token;
    return evaluate(request, control);
}

EvalOutcome
Evaluator::evaluate(const EvalRequest& request, BatchControl control) const
{
    EvalOutcome outcome;
    control.failure_report = &outcome.failures;
    control.fault_injector = &_injector;
    const auto stopped = [&] {
        return control.cancel != nullptr && control.cancel->stopRequested();
    };
    try {
        switch (request.kind) {
        case RequestKind::McTtm:
        case RequestKind::McCas:
            outcome.payload = evaluateMc(request, control);
            break;
        case RequestKind::SobolTtm:
            outcome.payload = evaluateSobol(request, control);
            break;
        case RequestKind::CapacitySweep:
            outcome.payload = evaluateSweep(request, control);
            break;
        case RequestKind::EnsembleTtm:
            outcome.payload = evaluateEnsemble(request, control);
            break;
        case RequestKind::ChipletPareto:
            outcome.payload = evaluateChipletPareto(request, control);
            break;
        case RequestKind::Health:
        case RequestKind::Stats:
            TTMCAS_REQUIRE(false,
                           "evaluator got a non-evaluation request kind");
        }
    } catch (const Error&) {
        // Under an Abort policy a stop surfaces as the structured
        // Cancelled/DeadlineExceeded error; anything else is a real
        // failure and propagates.
        if (!stopped())
            throw;
        outcome.payload = "null";
    }
    outcome.status = statusOf(control.cancel);
    outcome.complete = outcome.failures.empty() && !stopped();
    return outcome;
}

std::string
Evaluator::evaluateMc(const EvalRequest& request,
                      const BatchControl& control) const
{
    const UncertaintyAnalysis::Options options =
        analysisOptions(request, control);
    const UncertaintyAnalysis analysis(_db);
    const std::vector<double> samples =
        request.kind == RequestKind::McTtm
            ? analysis.sampleTtm(request.design, request.n_chips,
                                 request.market, options)
            : analysis.sampleCas(request.design, request.n_chips,
                                 request.market, options);

    JsonWriter json;
    json.beginObject();
    json.field("kernel", requestKindName(request.kind));
    json.field("unit",
               request.kind == RequestKind::McTtm ? "weeks" : "cas");
    json.field("n_chips", request.n_chips);
    json.field("seed", request.seed);
    json.field("band", request.band);
    json.field("samples_requested",
               static_cast<std::uint64_t>(request.samples));
    json.field("samples_completed",
               static_cast<std::uint64_t>(samples.size()));
    writeSummary(json, samples);
    writeFailures(json, *control.failure_report);
    json.endObject();
    return json.str();
}

std::string
Evaluator::evaluateSobol(const EvalRequest& request,
                         const BatchControl& control) const
{
    const UncertaintyAnalysis::Options options =
        analysisOptions(request, control);
    const UncertaintyAnalysis analysis(_db);
    SobolResult result;
    bool have_indices = true;
    try {
        result = analysis.ttmSensitivity(request.design, request.n_chips,
                                         request.market, options);
    } catch (const std::exception&) {
        // A deadline or drain that fires early enough leaves fewer
        // than the two surviving base rows the estimator needs, and
        // the analysis layer reports that as an error. For the server
        // that is not an internal failure: the client still gets a
        // well-formed reply, with null indices and honest failure
        // counts. A throw *without* a stop request is a real internal
        // error and propagates.
        if (control.cancel == nullptr || !control.cancel->stopRequested())
            throw;
        have_indices = false;
    }

    JsonWriter json;
    json.beginObject();
    json.field("kernel", requestKindName(request.kind));
    json.field("n_chips", request.n_chips);
    json.field("seed", request.seed);
    json.field("band", request.band);
    json.field("base_samples",
               static_cast<std::uint64_t>(request.samples));
    json.field("evaluations",
               static_cast<std::uint64_t>(result.evaluations));
    if (have_indices) {
        json.field("output_mean", result.output_mean);
        json.field("output_variance", result.output_variance);
    } else {
        json.key("output_mean");
        json.null();
        json.key("output_variance");
        json.null();
    }
    json.key("inputs");
    if (have_indices) {
        json.beginArray();
        for (std::size_t i = 0; i < result.input_names.size(); ++i) {
            json.beginObject();
            json.field("name", result.input_names[i]);
            json.field("first_order", result.first_order[i]);
            json.field("total_effect", result.total_effect[i]);
            json.endObject();
        }
        json.endArray();
    } else {
        json.null();
    }
    writeFailures(json, *control.failure_report);
    json.endObject();
    return json.str();
}

std::string
Evaluator::evaluateSweep(const EvalRequest& request,
                         const BatchControl& control) const
{
    const TtmModel ttm_model(_db);
    const CasModel cas_model{TtmModel(_db)};
    FailureReport& report = *control.failure_report;

    struct SweepPoint
    {
        double capacity = 0.0;
        Outcome<CasPoint> outcome;
    };
    std::vector<SweepPoint> points;
    points.reserve(request.grid.size());

    for (std::size_t i = 0; i < request.grid.size(); ++i) {
        const double factor = request.grid[i];
        SweepPoint point;
        point.capacity = factor;
        if (control.cancel != nullptr && control.cancel->stopRequested()) {
            point.outcome = Outcome<CasPoint>::failure(
                control.cancel->stopDiagnostic(i, "capacity_sweep"));
        } else {
            // The sweep overrides *every* capacity factor with the
            // grid value (the paper's x-axes move all nodes at once);
            // queue conditions from the request are preserved.
            MarketConditions market = request.market;
            market.setGlobalCapacityFactor(factor);
            for (const auto& [node, _] : request.market.capacityFactors())
                market.setCapacityFactor(node, factor);
            point.outcome = guardedPoint(i, [&] {
                CasPoint value;
                value.capacity_fraction = factor;
                value.ttm = ttm_model
                                .evaluate(request.design, request.n_chips,
                                          market)
                                .total();
                value.cas = cas_model.cas(request.design, request.n_chips,
                                          market);
                return value;
            });
        }
        report.addPoint();
        if (!point.outcome.ok())
            report.record(point.outcome.diagnostic());
        points.push_back(std::move(point));
    }

    JsonWriter json;
    json.beginObject();
    json.field("kernel", requestKindName(request.kind));
    json.field("n_chips", request.n_chips);
    json.field("points_requested",
               static_cast<std::uint64_t>(request.grid.size()));
    json.key("points");
    json.beginArray();
    for (const SweepPoint& point : points) {
        json.beginObject();
        json.field("capacity", point.capacity);
        if (point.outcome.ok()) {
            json.field("ttm_weeks", point.outcome.value().ttm.value());
            json.field("cas", point.outcome.value().cas);
        } else {
            json.key("error");
            json.beginObject();
            json.field("code",
                       diagCodeName(point.outcome.diagnostic().code));
            json.field("message", point.outcome.diagnostic().message);
            json.endObject();
        }
        json.endObject();
    }
    json.endArray();
    writeFailures(json, report);
    json.endObject();
    return json.str();
}

std::string
Evaluator::evaluateEnsemble(const EvalRequest& request,
                            const BatchControl& control) const
{
    EnsembleOptions options;
    static_cast<BatchControl&>(options) = control;
    options.paths = request.samples;
    options.seed = request.seed;

    const EnsembleRunner runner(_db);
    const EnsembleResult result = runner.run(
        request.design, request.n_chips, request.market, request.ensemble,
        options);

    JsonWriter json;
    json.beginObject();
    json.field("kernel", requestKindName(request.kind));
    json.field("n_chips", request.n_chips);
    json.field("seed", request.seed);
    json.field("horizon_weeks", request.ensemble.horizon_weeks);
    json.field("step_weeks", request.ensemble.step_weeks);
    json.key("ensemble");
    writeEnsembleResult(json, result);
    writeFailures(json, *control.failure_report);
    json.endObject();
    return json.str();
}

std::string
Evaluator::evaluateChipletPareto(const EvalRequest& request,
                                 const BatchControl& control) const
{
    ChipletExplorerOptions options;
    static_cast<BatchControl&>(options) = control;
    options.seed = request.seed;

    const ChipletExplorer explorer(_db);
    const ChipletParetoResult result = explorer.run(
        request.design, request.n_chips, request.market, request.chiplet,
        options);

    JsonWriter json;
    json.beginObject();
    json.field("kernel", requestKindName(request.kind));
    json.field("n_chips", request.n_chips);
    json.field("seed", request.seed);
    json.key("pareto");
    writeChipletParetoResult(json, result);
    writeFailures(json, *control.failure_report);
    json.endObject();
    return json.str();
}

} // namespace ttmcas::serve
