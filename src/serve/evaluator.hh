#ifndef TTMCAS_SERVE_EVALUATOR_HH
#define TTMCAS_SERVE_EVALUATOR_HH

/**
 * @file
 * Request evaluation, shared by ttm_serve and ttm_cli: EvalRequest in,
 * deterministic JSON result payload out.
 *
 * The evaluator wraps the analysis layer (UncertaintyAnalysis for
 * Monte-Carlo and Sobol, EnsembleRunner, ChipletExplorer, and
 * TtmModel/CasModel for capacity sweeps) and runs each request under
 * an execution context, a BatchControl:
 *
 *  - the server's context is serial (concurrency lives across
 *    requests), FailurePolicy::skipAndRecord(1.0), and the
 *    per-request CancellationToken, so a deadline or drain stops the
 *    evaluation cooperatively at chunk granularity and a numerically
 *    hostile design yields a partial result plus failure counts;
 *  - ttm_cli's batch modes set their own threads, failure policy,
 *    deadline/SIGINT token, resume_from and checkpoint, and print the
 *    payload the server would return as "result";
 *  - payloads are rendered with JsonWriter's deterministic number
 *    formatting, so an identical request re-rendered later (or served
 *    from the recovered cache) is byte-for-byte identical, at any
 *    thread count.
 *
 * Partial results are honest: EvalOutcome::complete is true only when
 * every point evaluated cleanly, and only complete payloads may enter
 * the result cache (the server enforces this).
 *
 * Chaos testing: an armed FaultInjector makes a deterministic subset
 * of points fail, exercising the skip-and-record path under live
 * traffic (ttm_serve --fault-rate; the chaos harness asserts replies
 * stay well-formed with honest failure counts).
 */

#include <string>

#include "serve/content_hash.hh"
#include "serve/request.hh"
#include "stats/fault_injection.hh"
#include "support/batch_control.hh"
#include "support/cancel.hh"
#include "support/outcome.hh"
#include "tech/technology_db.hh"

namespace ttmcas::serve {

/** The rendered result of one evaluation. */
struct EvalOutcome
{
    /** The result payload (a JSON object, deterministic rendering). */
    std::string payload;
    /** "ok", "deadline_exceeded", or "cancelled". */
    std::string status = "ok";
    /** True when every point completed cleanly (cacheable). */
    bool complete = false;
    /** The run's per-point failures (the payload's "failures" counts). */
    FailureReport failures;
};

/** Maps parsed requests onto the analysis layer. */
class Evaluator
{
  public:
    /**
     * Evaluate against @p db (copied; the evaluator is immutable).
     * An enabled @p injector arms deterministic per-point faults on
     * every point-driver kernel (chaos testing only).
     */
    explicit Evaluator(TechnologyDb db,
                       FaultInjector injector = FaultInjector());

    /**
     * Run one evaluation request under @p control: its parallelism,
     * failure policy, cancel token, resume_from and checkpoint. The
     * evaluator owns the rest: control's failure_report and
     * fault_injector are replaced by the evaluator's own report
     * (returned as EvalOutcome::failures) and injector.
     *
     * A stop never throws: the outcome carries the stop status and a
     * partial payload ("null" when an Abort policy aborted the run on
     * the stop). Under SkipAndRecord, model failures are isolated per
     * point and counted in the payload's "failures" object; under
     * Abort the lowest-index failure propagates as its exception.
     * capacity_sweep runs through the point driver like every other
     * kind (CasModel::sweepPoints); each failed or stopped grid point
     * carries its own error object in the payload.
     */
    EvalOutcome evaluate(const EvalRequest& request,
                         BatchControl control) const;

    /**
     * Run one evaluation request in the server's context: serial,
     * FailurePolicy::skipAndRecord(1.0), stopped by @p token. Never
     * throws for request-level problems.
     */
    EvalOutcome evaluate(const EvalRequest& request,
                         const CancellationToken& token) const;

    /** The full content-addressed cache key of @p request. */
    static std::string cacheKey(const EvalRequest& request);

  private:
    std::string evaluateMc(const EvalRequest& request,
                           const BatchControl& control) const;
    std::string evaluateSobol(const EvalRequest& request,
                              const BatchControl& control) const;
    std::string evaluateSweep(const EvalRequest& request,
                              const BatchControl& control) const;
    std::string evaluateEnsemble(const EvalRequest& request,
                                 const BatchControl& control) const;
    std::string evaluateChipletPareto(const EvalRequest& request,
                                      const BatchControl& control) const;

    TechnologyDb _db;
    FaultInjector _injector;
};

} // namespace ttmcas::serve

#endif // TTMCAS_SERVE_EVALUATOR_HH
