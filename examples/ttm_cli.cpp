/**
 * @file
 * Command-line front end to the TTM/CAS/cost models — the "quick
 * assessment" interface the paper's abstract promises architects.
 *
 * Usage:
 *   ttm_cli --node 7nm --ntt 2.4e9 --nut 2e8 --chips 5e7
 *           [--design file.csv]   (multi-die design; see core/design_io)
 *           [--design-weeks 14] [--engineers 100]
 *           [--capacity 0.8] [--queue 2]
 *           [--snapshot market.csv] [--all-nodes] [--risk <deadline>]
 *           [--skip-failures]
 *           [--trace=trace.json] [--metrics=metrics.json]
 *           [--manifest=manifest.json]
 *           [--sobol[=N]] [--seed s] [--threads t]
 *           [--deadline=seconds] [--checkpoint=file] [--resume=file]
 *
 * With --all-nodes, the design is re-targeted to every in-production
 * node and the full comparison table is printed. With --risk, a
 * schedule-risk assessment against the deadline (weeks) is added,
 * assuming a moderate disruption forecast on the chosen node.
 *
 * --skip-failures turns the --all-nodes sweep fault-tolerant: a node
 * whose evaluation fails is dropped from the table, the failure report
 * goes to stderr, and the exit code is 2 (0 = clean, 1 = hard error).
 *
 * --trace / --metrics / --manifest turn on the observability layer
 * (docs/OBSERVABILITY.md) and record the work this run did as a Chrome
 * trace, a metrics snapshot, and a run manifest. All three flags
 * accept "--flag value" or "--flag=value".
 *
 * Batch modes run one ttm_serve request (docs/SERVING.md) through
 * serve::Evaluator, the server's own executor:
 *
 *   --sobol[=N]        sobol_ttm: Sobol sensitivity of TTM over the six
 *                      uncertain inputs, N base samples (default 128);
 *   --ensemble[=N]     ensemble_ttm: N disruption paths (default 64),
 *                      spec from --ensemble-config (docs/SCENARIOS.md);
 *   --chiplet-pareto   chiplet_pareto: the TTM/CAS/cost frontier, spec
 *                      from --chiplet-config (docs/ECONOMICS.md).
 *
 * The request takes the design, market, --chips and --seed from the
 * flags and the request defaults for everything else. stdout is
 * exactly the payload the server returns as "result"; stderr carries
 * the request's cache key as "key <hex>". A request carries no
 * engineer count and no technology snapshot, so --engineers and
 * --snapshot are usage errors in a batch mode. --threads,
 * --skip-failures, --deadline, --checkpoint and --resume set the
 * execution context: --deadline bounds the run by wall-clock seconds,
 * --checkpoint persists completed points atomically as the batch
 * runs, --resume restores them bit-exactly, and Ctrl-C stops the
 * batch cleanly after flushing the checkpoint (docs/RESILIENCE.md).
 * stdout is byte-identical at any thread count and after any resume.
 *
 * Exit codes: 0 = clean run; 1 = hard error; 2 = completed but
 * degraded (--skip-failures dropped points) or a usage error; 3 =
 * --deadline fired and the partial batch was checkpointed; 130 =
 * SIGINT stopped the batch after the checkpoint flush.
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/cas.hh"
#include "core/design_io.hh"
#include "core/ensemble_io.hh"
#include "core/risk.hh"
#include "econ/cost_model.hh"
#include "opt/chiplet_io.hh"
#include "report/table.hh"
#include "serve/evaluator.hh"
#include "support/cancel.hh"
#include "support/checkpoint.hh"
#include "support/metrics.hh"
#include "support/outcome.hh"
#include "support/run_manifest.hh"
#include "support/strutil.hh"
#include "support/trace.hh"
#include "tech/dataset_io.hh"
#include "tech/default_dataset.hh"

namespace {

using namespace ttmcas;

struct CliArgs
{
    std::string node = "7nm";
    double ntt = 1e9;
    double nut = 1e8;
    double chips = 1e7;
    double design_weeks = 0.0;
    std::optional<double> engineers; ///< unset = the model default
    double capacity = 1.0;
    double queue = 0.0;
    std::string snapshot;
    bool all_nodes = false;
    double risk_deadline = 0.0;
    std::string design_file;
    bool skip_failures = false;
    std::string trace_file;
    std::string metrics_file;
    std::string manifest_file;
    std::size_t sobol_samples = 0; ///< 0 = Sobol mode off
    std::size_t ensemble_paths = 0; ///< 0 = ensemble mode off
    std::string ensemble_config;
    bool chiplet_pareto = false;
    std::string chiplet_config;
    std::uint64_t seed = 2023;
    std::size_t threads = 0;
    double deadline_s = 0.0;
    std::string checkpoint_file;
    std::string resume_file;

    bool wantsObservability() const
    {
        return !trace_file.empty() || !metrics_file.empty() ||
               !manifest_file.empty();
    }

    bool batchMode() const
    {
        return sobol_samples > 0 || ensemble_paths > 0 || chiplet_pareto;
    }

    FailurePolicy failurePolicy() const
    {
        return skip_failures ? FailurePolicy::skipAndRecord()
                             : FailurePolicy();
    }
};

[[noreturn]] void
usage()
{
    std::cerr
        << "usage: ttm_cli --node <p> --ntt <n> --nut <n> --chips <n>\n"
           "              [--design-weeks w] [--engineers e]\n"
           "              [--capacity f] [--queue w]\n"
           "              [--snapshot file.csv] [--all-nodes]\n"
           "              [--risk deadline_weeks] [--skip-failures]\n"
           "              [--trace=file.json] [--metrics=file.json]\n"
           "              [--manifest=file.json]\n"
           "              [--sobol[=N]] [--seed s] [--threads t]\n"
           "              [--ensemble[=N]] [--ensemble-config=file.json]\n"
           "              [--chiplet-pareto] [--chiplet-config=file.json]\n"
           "              [--deadline=seconds]\n"
           "              [--checkpoint=file] [--resume=file]\n";
    std::exit(2);
}

CliArgs
parseArgs(int argc, char** argv)
{
    CliArgs args;
    // Arity 2 = optional value: "--flag", "--flag value", "--flag=value".
    const std::map<std::string, int> flags{
        {"--node", 1},       {"--ntt", 1},      {"--nut", 1},
        {"--chips", 1},      {"--design-weeks", 1},
        {"--engineers", 1},  {"--capacity", 1}, {"--queue", 1},
        {"--snapshot", 1},   {"--all-nodes", 0}, {"--risk", 1},
        {"--design", 1},     {"--skip-failures", 0},
        {"--trace", 1},      {"--metrics", 1},  {"--manifest", 1},
        {"--sobol", 2},      {"--seed", 1},     {"--threads", 1},
        {"--ensemble", 2},   {"--ensemble-config", 1},
        {"--chiplet-pareto", 0}, {"--chiplet-config", 1},
        {"--deadline", 1},   {"--checkpoint", 1},
        {"--resume", 1},
    };
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        // Accept both "--flag value" and "--flag=value".
        std::string inline_value;
        bool has_inline_value = false;
        const std::size_t equals = flag.find('=');
        if (equals != std::string::npos) {
            inline_value = flag.substr(equals + 1);
            flag = flag.substr(0, equals);
            has_inline_value = true;
        }
        auto it = flags.find(flag);
        if (it == flags.end())
            usage();
        std::string value;
        if (it->second == 1) {
            if (has_inline_value) {
                value = inline_value;
            } else {
                if (i + 1 >= argc)
                    usage();
                value = argv[++i];
            }
        } else if (it->second == 2) {
            if (has_inline_value) {
                value = inline_value;
            } else if (i + 1 < argc && argv[i + 1][0] != '-') {
                value = argv[++i];
            }
        } else if (has_inline_value) {
            usage();
        }
        try {
            if (flag == "--node")
                args.node = value;
            else if (flag == "--ntt")
                args.ntt = std::stod(value);
            else if (flag == "--nut")
                args.nut = std::stod(value);
            else if (flag == "--chips")
                args.chips = std::stod(value);
            else if (flag == "--design-weeks")
                args.design_weeks = std::stod(value);
            else if (flag == "--engineers")
                args.engineers = std::stod(value);
            else if (flag == "--capacity")
                args.capacity = std::stod(value);
            else if (flag == "--queue")
                args.queue = std::stod(value);
            else if (flag == "--snapshot")
                args.snapshot = value;
            else if (flag == "--all-nodes")
                args.all_nodes = true;
            else if (flag == "--risk")
                args.risk_deadline = std::stod(value);
            else if (flag == "--design")
                args.design_file = value;
            else if (flag == "--skip-failures")
                args.skip_failures = true;
            else if (flag == "--trace")
                args.trace_file = value;
            else if (flag == "--metrics")
                args.metrics_file = value;
            else if (flag == "--manifest")
                args.manifest_file = value;
            else if (flag == "--sobol")
                args.sobol_samples =
                    value.empty() ? 128 : std::stoull(value);
            else if (flag == "--ensemble")
                args.ensemble_paths =
                    value.empty() ? 64 : std::stoull(value);
            else if (flag == "--ensemble-config")
                args.ensemble_config = value;
            else if (flag == "--chiplet-pareto")
                args.chiplet_pareto = true;
            else if (flag == "--chiplet-config")
                args.chiplet_config = value;
            else if (flag == "--seed")
                args.seed = std::stoull(value);
            else if (flag == "--threads")
                args.threads = std::stoull(value);
            else if (flag == "--deadline")
                args.deadline_s = std::stod(value);
            else if (flag == "--checkpoint")
                args.checkpoint_file = value;
            else if (flag == "--resume")
                args.resume_file = value;
        } catch (const std::exception&) {
            usage();
        }
    }
    if (args.batchMode() && (args.engineers || !args.snapshot.empty())) {
        std::cerr << "error: a batch request carries no --engineers or "
                     "--snapshot; drop them or leave batch mode\n";
        std::exit(2);
    }
    return args;
}

/**
 * Parse the JSON spec file at @p path (--ensemble-config or
 * --chiplet-config) with @p parse. The file is user input: it is parsed
 * under the same untrusted-wire limits as a ttm_serve request line, and
 * every problem is reported at once. Exits 1 when the file cannot be
 * read and 2 when it is invalid.
 */
template <typename Parse>
auto
readSpec(const std::string& path, const char* what, Parse parse)
{
    std::ifstream file(path);
    if (!file) {
        std::cerr << "error: cannot read " << what << " config '" << path
                  << "'\n";
        std::exit(1);
    }
    std::ostringstream text;
    text << file.rdbuf();
    auto parsed = parse(text.str(), JsonLimits::untrustedWire(1 << 20));
    if (!parsed.ok()) {
        std::cerr << "error: invalid " << what << " config '" << path
                  << "':\n";
        for (const std::string& problem : parsed.errors)
            std::cerr << "  " << problem << "\n";
        std::exit(2);
    }
    return std::move(parsed.spec);
}

/**
 * The ttm_serve request a batch mode stands for: the flags' design,
 * market, chip count and seed, the mode's kind and sample count, and
 * the request defaults for every other field.
 */
serve::EvalRequest
batchRequest(const CliArgs& args, const ChipDesign& design,
             const MarketConditions& market)
{
    serve::EvalRequest request;
    request.design = design;
    request.market = market;
    request.n_chips = args.chips;
    request.seed = args.seed;
    if (args.chiplet_pareto) {
        request.kind = serve::RequestKind::ChipletPareto;
        request.chiplet =
            args.chiplet_config.empty()
                ? ChipletSweepSpec::defaultsFor(
                      serve::designProcesses(design))
                : readSpec(args.chiplet_config, "chiplet",
                           parseChipletSweepSpecText);
    } else if (args.ensemble_paths > 0) {
        request.kind = serve::RequestKind::EnsembleTtm;
        request.samples = args.ensemble_paths;
        request.ensemble =
            args.ensemble_config.empty()
                ? EnsembleSpec::defaultsFor(serve::designProcesses(design))
                : readSpec(args.ensemble_config, "ensemble",
                           parseEnsembleSpecText);
    } else {
        request.kind = serve::RequestKind::SobolTtm;
        request.samples = args.sobol_samples;
    }
    return request;
}

/**
 * Run @p request through serve::Evaluator under the CLI's execution
 * context (threads, failure policy, deadline/SIGINT token, resume and
 * checkpoint) and print its payload. Returns the process exit code.
 */
int
runRequest(const serve::EvalRequest& request, const CliArgs& args,
           obs::RunManifest& manifest)
{
    CancellationToken token;
    const ScopedSigintCancel sigint(token);
    if (args.deadline_s > 0.0)
        token.setDeadlineAfter(args.deadline_s);

    BatchControl control;
    control.parallel.threads = args.threads;
    control.failure_policy = args.failurePolicy();
    control.cancel = &token;

    std::optional<SweepCheckpoint> resume;
    if (!args.resume_file.empty()) {
        resume.emplace(SweepCheckpoint::load(args.resume_file));
        control.resume_from = &*resume;
        manifest.disposition = "resumed";
        manifest.parent_checkpoint = args.resume_file;
    }
    SweepCheckpoint checkpoint;
    if (!args.checkpoint_file.empty()) {
        checkpoint.enableAutoFlush(args.checkpoint_file, 16);
        if (resume)
            checkpoint.setParent(args.resume_file);
        control.checkpoint = &checkpoint;
    }

    const serve::Evaluator evaluator(defaultTechnologyDb());
    const std::string kind = serve::requestKindName(request.kind);
    serve::EvalOutcome outcome;
    {
        obs::ManifestKernelScope scope(manifest, kind);
        outcome = evaluator.evaluate(request, control);
        scope.setPoints(outcome.failures.pointCount());
        scope.setFailures(outcome.failures.failureCount());
    }
    manifest.addFailureReport(outcome.failures);
    if (control.checkpoint != nullptr) {
        // Final flush: the auto-flush cadence only covers multiples of
        // its period, and a stopped run must persist its last points.
        checkpoint.writeAtomic(args.checkpoint_file);
        manifest.checkpoint_points = checkpoint.completedCount();
    }

    if (outcome.status != "ok") {
        manifest.disposition = outcome.status;
        std::cerr << "ttm_cli: " << kind << " stopped (" << outcome.status
                  << ")";
        if (control.checkpoint != nullptr)
            std::cerr << "; " << checkpoint.completedCount() << "/"
                      << checkpoint.totalPoints() << " points checkpointed";
        std::cerr << "\n";
        return outcome.status == "cancelled" ? 130 : 3;
    }
    std::cerr << "key " << serve::Evaluator::cacheKey(request) << "\n";
    std::cout << outcome.payload << "\n";
    if (!outcome.failures.empty()) {
        std::cerr << outcome.failures.summary() << "\n";
        return 2;
    }
    return 0;
}

/** Evaluate what the flags ask for; returns the process exit code. */
int
run(const CliArgs& args, obs::RunManifest& manifest)
{
    MarketConditions market;
    market.setCapacityFactor(args.node, args.capacity);
    market.setQueueWeeks(args.node, Weeks(args.queue));

    ChipDesign design;
    if (!args.design_file.empty()) {
        design = loadDesignCsv(args.design_file);
        // Market flags apply to every node the design uses.
        for (const std::string& node : design.processNodes()) {
            market.setCapacityFactor(node, args.capacity);
            market.setQueueWeeks(node, Weeks(args.queue));
        }
    } else {
        design = makeMonolithicDesign("cli-design", args.node, args.ntt,
                                      args.nut, Weeks(args.design_weeks));
    }

    if (args.batchMode())
        return runRequest(batchRequest(args, design, market), args,
                          manifest);

    const TechnologyDb db = args.snapshot.empty()
                                ? defaultTechnologyDb()
                                : loadTechnologyCsv(args.snapshot);
    TtmModel::Options options;
    if (args.engineers)
        options.tapeout_engineers = *args.engineers;
    const TtmModel model(db, options);
    const CasModel cas(model);
    const CostModel costs(db);
    bool skipped_failures = false;

    if (args.all_nodes) {
        Table table({"Node", "TTM (wk)", "CAS", "Cost", "$/chip"});
        table.setAlign(0, Align::Left);
        const std::vector<std::string> nodes = db.availableNames();
        std::vector<Outcome<std::vector<std::string>>> rows(nodes.size());
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            const std::string& node = nodes[i];
            const auto evaluateRow = [&]() -> std::vector<std::string> {
                const ChipDesign candidate = retargetDesign(design, node);
                MarketConditions node_market;
                node_market.setCapacityFactor(node, args.capacity);
                node_market.setQueueWeeks(node, Weeks(args.queue));
                const double ttm =
                    model.evaluate(candidate, args.chips, node_market)
                        .total()
                        .value();
                const double cost =
                    costs.evaluate(candidate, args.chips).total().value();
                return {node, formatFixed(ttm, 1),
                        formatFixed(
                            cas.cas(candidate, args.chips, node_market), 1),
                        formatDollars(cost, 2),
                        formatDollars(cost / args.chips, 2)};
            };
            if (args.skip_failures) {
                rows[i] = guardedPoint(i, evaluateRow);
            } else {
                // Legacy behavior: the first failing node aborts the
                // sweep with its original error.
                rows[i] = Outcome<std::vector<std::string>>::success(
                    evaluateRow());
            }
        }
        FailureReport report;
        enforcePolicy(rows, args.failurePolicy(), &report,
                      "ttm_cli --all-nodes");
        for (const auto& row : rows) {
            if (row.ok())
                table.addRow(row.value());
        }
        std::cout << table.render();
        if (!report.empty()) {
            for (std::size_t i = 0; i < nodes.size(); ++i) {
                if (!rows[i].ok())
                    std::cerr << "warning: skipped node '" << nodes[i]
                              << "': " << rows[i].diagnostic().message
                              << "\n";
            }
            std::cerr << report.summary() << "\n";
            skipped_failures = true;
        }
    } else {
        const TtmResult ttm = model.evaluate(design, args.chips, market);
        const CostBreakdown cost = costs.evaluate(design, args.chips);
        std::cout << (args.design_file.empty() ? "node " + args.node
                                               : "design " + design.name)
                  << ", " << formatSi(args.chips, 1) << " chips\n"
                  << "  TTM   " << formatFixed(ttm.total().value(), 1)
                  << " weeks (tapeout "
                  << formatFixed(ttm.tapeout_time.value(), 1) << ", fab "
                  << formatFixed(ttm.fab_time.value(), 1) << ", pkg "
                  << formatFixed(ttm.packaging_time.value(), 1) << ")\n"
                  << "  CAS   "
                  << formatFixed(cas.cas(design, args.chips, market), 1)
                  << "\n  cost  " << formatDollars(cost.total().value(), 2)
                  << " ("
                  << formatDollars(cost.total().value() / args.chips, 2)
                  << "/chip)\n";
    }

    if (args.risk_deadline > 0.0) {
        const RiskAnalysis risk_engine(model);
        MarketForecast forecast;
        for (const std::string& node : design.processNodes())
            forecast.uniformDisruption(node, 0.5, 1.0, 3.0);
        const ScheduleRisk risk = risk_engine.assess(
            design, args.chips, forecast, Weeks(args.risk_deadline), 512);
        std::cout << "  risk  P[TTM <= "
                  << formatFixed(args.risk_deadline, 0) << " wk] = "
                  << formatFixed(100.0 * risk.p_on_time, 0)
                  << "% under a moderate " << args.node
                  << " disruption forecast; p95 TTM "
                  << formatFixed(risk.ttm.percentile(95.0), 1) << " wk\n";
    }

    // 0 = clean run, 2 = completed but some nodes were skipped.
    return skipped_failures ? 2 : 0;
}

} // namespace

int
main(int argc, char** argv)
{
    const CliArgs args = parseArgs(argc, argv);
    obs::setTracingEnabled(!args.trace_file.empty());
    obs::setMetricsEnabled(args.wantsObservability());
    obs::RunManifest manifest;
    manifest.tool = "ttm_cli";
    manifest.git_hash = obs::buildGitHash();
    manifest.seed = args.seed;
    manifest.threads = ParallelConfig{args.threads}.resolvedThreads();
    manifest.setPolicy(args.failurePolicy());

    try {
        const int code = run(args, manifest);
        if (!args.trace_file.empty())
            obs::writeChromeTrace(args.trace_file);
        if (!args.metrics_file.empty())
            obs::writeMetrics(args.metrics_file);
        if (!args.manifest_file.empty()) {
            manifest.captureKernelMetrics(obs::snapshotMetrics());
            manifest.write(args.manifest_file);
        }
        return code;
    } catch (const Error& error) {
        std::cerr << "error: " << error.what() << "\n";
        return 1;
    }
}
