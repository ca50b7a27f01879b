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
 * (docs/OBSERVABILITY.md): in addition to the normal evaluation, a
 * compact sweep exercises every instrumented batch kernel (Monte-
 * Carlo sampling, Sobol analysis + bootstrap, the cache sweep, the
 * split planner, and the portfolio planner) so the emitted Chrome
 * trace, metrics snapshot, and run manifest cover the full span
 * taxonomy. All three flags accept "--flag value" or "--flag=value".
 *
 * --sobol[=N] switches to resumable-batch mode: a Sobol sensitivity
 * analysis of TTM over three scale factors with N base samples
 * (default 128), printed with %.17g so runs can be diffed bitwise.
 * --deadline bounds the batch by wall-clock seconds, --checkpoint
 * persists completed points atomically as the batch runs, --resume
 * restores them bit-exactly, and Ctrl-C stops the batch cleanly after
 * flushing the checkpoint (docs/RESILIENCE.md).
 *
 * --ensemble[=N] switches to scenario-ensemble mode: N stochastic
 * disruption paths (default 64) sampled from per-node Markov regime
 * chains and Hawkes shock clusters (docs/SCENARIOS.md), evaluated
 * through the timeline TTM model, and reduced to per-regime TTM/CAS
 * distributions with bootstrap confidence intervals.
 * --ensemble-config supplies the disruption spec as JSON (default: a
 * moderate process on every node the design uses). The same
 * resilience flags (--deadline/--checkpoint/--resume/--skip-failures)
 * apply, with the same exit codes as --sobol.
 *
 * --chiplet-pareto switches to chiplet-economics mode: the design's
 * transistor budget is swept over partition count x node assignment x
 * redundancy level x production split (docs/ECONOMICS.md), each
 * candidate is scored on TTM, CAS, and redundancy-aware chiplet cost,
 * and the 3-D Pareto frontier is printed with %.17g. --chiplet-config
 * supplies the sweep spec as JSON (default: partitions {1,2,4} x the
 * design's own nodes x redundancy {0,1}, single-sourced). The same
 * resilience flags (--deadline/--checkpoint/--resume/--skip-failures)
 * apply, with the same exit codes as --sobol.
 *
 * Exit codes: 0 = clean run; 1 = hard error; 2 = completed but
 * degraded (--skip-failures dropped points) or a usage error; 3 =
 * --deadline fired and the partial batch was checkpointed; 130 =
 * SIGINT stopped the batch after the checkpoint flush.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/cas.hh"
#include "core/design_io.hh"
#include "core/ensemble.hh"
#include "core/ensemble_io.hh"
#include "core/risk.hh"
#include "core/uncertainty.hh"
#include "econ/cost_model.hh"
#include "opt/cache_optimizer.hh"
#include "opt/chiplet_explorer.hh"
#include "opt/chiplet_io.hh"
#include "opt/portfolio.hh"
#include "opt/split_optimizer.hh"
#include "report/table.hh"
#include "serve/content_hash.hh"
#include "stats/distributions.hh"
#include "stats/sobol.hh"
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
    double engineers = 100.0;
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
    std::size_t sobol_samples = 0; ///< 0 = batch mode off
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
    return args;
}

/** A synthetic miss curve covering exactly @p sizes (for the sweep). */
MissCurve
syntheticMissCurve(const std::string& workload, bool instruction_stream,
                   const std::vector<std::uint64_t>& sizes)
{
    MissCurve curve;
    curve.workload = workload;
    curve.instruction_stream = instruction_stream;
    curve.sizes_bytes = sizes;
    for (std::size_t i = 0; i < sizes.size(); ++i)
        curve.miss_rates.push_back(0.2 / static_cast<double>(i + 1));
    return curve;
}

/**
 * Exercise every instrumented batch kernel once with small workloads
 * so the emitted trace/metrics/manifest cover the full span taxonomy:
 * sampleTtm (Monte-Carlo), sobolAnalyze + sobolBootstrapCi,
 * CacheSweep::sweep, SplitPlanner::optimizeCas, and
 * PortfolioPlanner::plan.
 */
void
runObservabilitySweep(const TechnologyDb& db, const ChipDesign& design,
                      const CliArgs& args, obs::RunManifest& manifest)
{
    TtmModel::Options model_options;
    model_options.tapeout_engineers = args.engineers;
    const TtmModel model(db, model_options);
    const double n_chips = 1e6;
    constexpr std::uint64_t kSweepSeed = 2023;

    // 1. Monte-Carlo uncertainty propagation (drawSamples).
    const UncertaintyAnalysis analysis(db, model_options);
    UncertaintyAnalysis::Options mc;
    mc.samples = 64;
    mc.band = 0.05;
    mc.seed = kSweepSeed;
    {
        obs::ManifestKernelScope scope(manifest, "sampleTtm");
        scope.setPoints(mc.samples);
        analysis.sampleTtm(design, n_chips, {}, mc);
    }

    // 2. Sobol sensitivity + bootstrap confidence intervals over three
    // scale factors (N_TT, D0, L_fab).
    {
        const std::vector<std::unique_ptr<Distribution>> owned = [] {
            std::vector<std::unique_ptr<Distribution>> dists;
            for (int i = 0; i < 3; ++i)
                dists.push_back(relativeUniform(1.0, 0.05));
            return dists;
        }();
        const std::vector<SensitivityInput> inputs{
            {"NTT", owned[0].get()},
            {"D0", owned[1].get()},
            {"Lfab", owned[2].get()}};
        const auto sobol_model =
            [&](const std::vector<double>& point) {
                InputFactors factors = nominalFactors();
                factors[0] = point[0]; // N_TT
                factors[2] = point[1]; // D0
                factors[4] = point[2]; // L_fab
                return analysis.ttmWithFactors(design, n_chips, {}, factors)
                    .value();
            };
        SobolOptions sobol_options;
        sobol_options.base_samples = 32;
        sobol_options.seed = kSweepSeed;
        SobolRowData rows;
        {
            obs::ManifestKernelScope scope(manifest, "sobolAnalyze");
            scope.setPoints((inputs.size() + 2) *
                            sobol_options.base_samples);
            sobolAnalyze(inputs, sobol_model, sobol_options, &rows);
        }
        SobolBootstrapOptions bootstrap;
        bootstrap.resamples = 16;
        bootstrap.coverage = 0.9;
        bootstrap.seed = kSweepSeed;
        {
            obs::ManifestKernelScope scope(manifest, "sobolBootstrapCi");
            scope.setPoints(bootstrap.resamples);
            sobolBootstrapCi(rows, bootstrap);
        }
    }

    // 3. Cache design-space sweep on a synthetic 3x3 miss-curve grid.
    {
        const std::vector<std::uint64_t> sizes{4096, 16384, 65536};
        const CacheSweep cache_sweep(
            db, syntheticMissCurve("obs-sweep", true, sizes),
            syntheticMissCurve("obs-sweep", false, sizes), IpcModel{},
            ArianeChipSpec{});
        CacheSweepOptions sweep_options;
        sweep_options.sizes_bytes = sizes;
        sweep_options.process = args.node;
        sweep_options.n_chips = n_chips;
        obs::ManifestKernelScope scope(manifest, "CacheSweep::sweep");
        scope.setPoints(sizes.size() * sizes.size());
        cache_sweep.sweep(sweep_options);
    }

    // The split/portfolio kernels retarget the design across nodes, so
    // probe for two nodes the die actually fits first.
    std::vector<std::string> feasible;
    for (const std::string& node : db.availableNames()) {
        if (feasible.size() >= 2)
            break;
        try {
            model.evaluate(retargetDesign(design, node), n_chips);
            feasible.push_back(node);
        } catch (const ModelError&) {
            // die does not fit / node out of production: not a candidate
        }
    }
    if (feasible.size() < 2) {
        std::cerr << "warning: observability sweep found fewer than two "
                     "feasible nodes; skipping split/portfolio kernels\n";
        return;
    }
    const DesignFactory factory = [&](const std::string& node) {
        return retargetDesign(design, node);
    };

    // 4. Production split planner.
    {
        SplitPlanner::Options split_options;
        split_options.fractions = {0.25, 0.5, 0.75, 1.0};
        const SplitPlanner planner(model, CostModel(db), split_options);
        obs::ManifestKernelScope scope(manifest,
                                       "SplitPlanner::optimizeCas");
        scope.setPoints(2 * split_options.fractions.size());
        planner.optimizeCas(factory, n_chips, feasible[0], feasible[1],
                            {});
    }

    // 5. Portfolio planner over two products and the feasible nodes.
    {
        PortfolioPlanner::Options portfolio_options;
        portfolio_options.candidate_nodes = feasible;
        portfolio_options.max_moves = 4;
        const PortfolioPlanner planner(model, portfolio_options);
        std::vector<PortfolioProduct> products(2);
        products[0].name = "obs-a";
        products[1].name = "obs-b";
        for (auto& product : products) {
            product.design = design;
            product.n_chips = n_chips;
            product.deadline = Weeks(1000.0);
            product.weight = 1.0;
        }
        obs::ManifestKernelScope scope(manifest,
                                       "PortfolioPlanner::plan");
        scope.setPoints(products.size() * feasible.size());
        planner.plan(products);
    }
}

/** Shortest round-trippable decimal rendering of a double. */
std::string
g17(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

/**
 * Resumable-batch mode (--sobol): a Sobol sensitivity analysis of TTM
 * over three scale factors (N_TT, D0, L_fab), wired into the
 * resilience layer: cooperative deadline/SIGINT stop and atomic
 * checkpoint/resume. Indices print with
 * %.17g, so a straight run and a killed-and-resumed run produce
 * bitwise-identical stdout. Returns the process exit code.
 */
int
runSobolBatch(const TechnologyDb& db, const ChipDesign& design,
              const CliArgs& args, obs::RunManifest& manifest)
{
    TtmModel::Options model_options;
    model_options.tapeout_engineers = args.engineers;
    const UncertaintyAnalysis analysis(db, model_options);

    const std::vector<std::unique_ptr<Distribution>> owned = [] {
        std::vector<std::unique_ptr<Distribution>> dists;
        for (int i = 0; i < 3; ++i)
            dists.push_back(relativeUniform(1.0, 0.05));
        return dists;
    }();
    const std::vector<SensitivityInput> inputs{{"NTT", owned[0].get()},
                                               {"D0", owned[1].get()},
                                               {"Lfab", owned[2].get()}};
    const auto model = [&](const std::vector<double>& point) {
        InputFactors factors = nominalFactors();
        factors[0] = point[0]; // N_TT
        factors[2] = point[1]; // D0
        factors[4] = point[2]; // L_fab
        return analysis.ttmWithFactors(design, args.chips, {}, factors)
            .value();
    };

    CancellationToken token;
    const ScopedSigintCancel sigint(token);
    if (args.deadline_s > 0.0)
        token.setDeadlineAfter(args.deadline_s);

    SobolOptions options;
    options.base_samples = args.sobol_samples;
    options.seed = args.seed;
    options.parallel.threads = args.threads;
    options.failure_policy = args.skip_failures
                                 ? FailurePolicy::skipAndRecord()
                                 : FailurePolicy();
    options.cancel = &token;
    FailureReport report;
    options.failure_report = &report;

    std::unique_ptr<SweepCheckpoint> resume;
    if (!args.resume_file.empty()) {
        resume = std::make_unique<SweepCheckpoint>(
            SweepCheckpoint::load(args.resume_file));
        options.resume_from = resume.get();
        manifest.disposition = "resumed";
        manifest.parent_checkpoint = args.resume_file;
    }
    SweepCheckpoint checkpoint;
    if (!args.checkpoint_file.empty()) {
        checkpoint.enableAutoFlush(args.checkpoint_file, 16);
        if (resume != nullptr)
            checkpoint.setParent(args.resume_file);
        options.checkpoint = &checkpoint;
    }

    const std::size_t total_points =
        (inputs.size() + 2) * options.base_samples;
    SobolResult result;
    bool finished = false;
    try {
        obs::ManifestKernelScope scope(manifest, "sobolAnalyze");
        scope.setPoints(total_points);
        result = sobolAnalyze(inputs, model, options);
        scope.setFailures(report.failureCount());
        finished = !token.stopRequested();
    } catch (const Error&) {
        // Under the default Abort policy a stop surfaces as the
        // structured Cancelled/DeadlineExceeded error; anything else
        // is a real failure and propagates.
        if (!token.stopRequested())
            throw;
    }

    manifest.addFailureReport(report);
    if (options.checkpoint != nullptr) {
        // Final flush: the auto-flush cadence only covers multiples of
        // its period, and a stopped run must persist its last points.
        checkpoint.writeAtomic(args.checkpoint_file);
        manifest.checkpoint_points = checkpoint.completedCount();
    }

    if (!finished) {
        const bool cancelled = token.cancelRequested();
        manifest.disposition =
            cancelled ? "cancelled" : "deadline_exceeded";
        std::cerr << "ttm_cli: sobol batch stopped ("
                  << manifest.disposition << "); "
                  << checkpoint.completedCount() << "/" << total_points
                  << " points checkpointed\n";
        return cancelled ? 130 : 3;
    }

    // Content-addressed key of this batch, from the same helper the
    // ttm_serve result cache uses (serve/content_hash.hh), so a CLI
    // run can be correlated with server cache entries. inputs=3
    // records the CLI's three-factor model: the server's six-input
    // sobol_ttm key can never alias it.
    serve::EvalKeyParams key_params;
    key_params.kernel = "sobol_ttm";
    key_params.seed = args.seed;
    key_params.n_chips = args.chips;
    key_params.samples = options.base_samples;
    key_params.band = 0.05;
    key_params.inputs = inputs.size();
    const std::string cache_key =
        serve::evalCacheKey(design, MarketConditions{}, key_params);

    std::cout << "sobol " << inputs.size() << " inputs, "
              << options.base_samples << " base samples, " << total_points
              << " evaluations, seed " << args.seed << ", key "
              << cache_key << "\n";
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        std::cout << "  " << result.input_names[i]
                  << " S1=" << g17(result.first_order[i])
                  << " ST=" << g17(result.total_effect[i]) << "\n";
    }
    if (!report.empty()) {
        std::cerr << report.summary() << "\n";
        return 2;
    }
    return 0;
}

/** One "  <label> ..." stats line of the ensemble report (%.17g). */
void
printEnsembleGroup(const EnsembleGroup& group)
{
    std::cout << "  " << group.label << " count=" << group.count << "\n";
    if (group.count == 0)
        return;
    std::cout << "    ttm_weeks mean=" << g17(group.ttm.mean)
              << " p5=" << g17(group.ttm.p5) << " p50=" << g17(group.ttm.p50)
              << " p95=" << g17(group.ttm.p95) << " ci=["
              << g17(group.ttm.ci_lo) << "," << g17(group.ttm.ci_hi)
              << "]\n";
    std::cout << "    cas       mean=" << g17(group.cas.mean)
              << " p5=" << g17(group.cas.p5) << " p50=" << g17(group.cas.p50)
              << " p95=" << g17(group.cas.p95) << " ci=["
              << g17(group.cas.ci_lo) << "," << g17(group.cas.ci_hi)
              << "]\n";
}

/**
 * Scenario-ensemble mode (--ensemble): N stochastic disruption paths
 * (Markov regime chains + Hawkes shock clusters per node, see
 * docs/SCENARIOS.md) evaluated through the timeline TTM model and
 * reduced to per-regime TTM/CAS distributions with bootstrap CIs.
 * Wired into the same resilience stack as --sobol: cooperative
 * deadline/SIGINT stop and atomic checkpoint/resume. All numbers print with %.17g, so a straight run
 * and a killed-and-resumed run produce bitwise-identical stdout.
 * Returns the process exit code.
 */
int
runEnsembleBatch(const TechnologyDb& db, const ChipDesign& design,
                 const MarketConditions& market, const CliArgs& args,
                 obs::RunManifest& manifest)
{
    EnsembleSpec spec;
    if (args.ensemble_config.empty()) {
        spec = EnsembleSpec::defaultsFor(design.processNodes());
    } else {
        std::ifstream file(args.ensemble_config);
        if (!file) {
            std::cerr << "error: cannot read ensemble config '"
                      << args.ensemble_config << "'\n";
            return 1;
        }
        std::ostringstream text;
        text << file.rdbuf();
        // The config file is user input: parse it under the same
        // untrusted-wire limits as a ttm_serve request line, and
        // report every problem at once instead of crashing on the
        // first.
        const EnsembleSpecParse parsed = parseEnsembleSpecText(
            text.str(), JsonLimits::untrustedWire(1 << 20));
        if (!parsed.ok()) {
            std::cerr << "error: invalid ensemble config '"
                      << args.ensemble_config << "':\n";
            for (const std::string& problem : parsed.errors)
                std::cerr << "  " << problem << "\n";
            return 2;
        }
        spec = parsed.spec;
    }

    CancellationToken token;
    const ScopedSigintCancel sigint(token);
    if (args.deadline_s > 0.0)
        token.setDeadlineAfter(args.deadline_s);

    EnsembleOptions options;
    options.paths = args.ensemble_paths;
    options.seed = args.seed;
    options.parallel.threads = args.threads;
    options.failure_policy = args.skip_failures
                                 ? FailurePolicy::skipAndRecord()
                                 : FailurePolicy();
    options.cancel = &token;
    FailureReport report;
    options.failure_report = &report;

    std::unique_ptr<SweepCheckpoint> resume;
    if (!args.resume_file.empty()) {
        resume = std::make_unique<SweepCheckpoint>(
            SweepCheckpoint::load(args.resume_file));
        options.resume_from = resume.get();
        manifest.disposition = "resumed";
        manifest.parent_checkpoint = args.resume_file;
    }
    SweepCheckpoint checkpoint;
    if (!args.checkpoint_file.empty()) {
        checkpoint.enableAutoFlush(args.checkpoint_file, 16);
        if (resume != nullptr)
            checkpoint.setParent(args.resume_file);
        options.checkpoint = &checkpoint;
    }

    TtmModel::Options model_options;
    model_options.tapeout_engineers = args.engineers;
    const EnsembleRunner runner(db, model_options);
    const std::size_t total_points = 2 * options.paths;
    EnsembleResult result;
    bool finished = false;
    try {
        obs::ManifestKernelScope scope(manifest, "EnsembleRunner::run");
        scope.setPoints(total_points);
        result = runner.run(design, args.chips, market, spec, options);
        scope.setFailures(report.failureCount());
        finished = !token.stopRequested();
    } catch (const Error&) {
        if (!token.stopRequested())
            throw;
    }

    manifest.addFailureReport(report);
    if (options.checkpoint != nullptr) {
        checkpoint.writeAtomic(args.checkpoint_file);
        manifest.checkpoint_points = checkpoint.completedCount();
    }

    if (!finished) {
        const bool cancelled = token.cancelRequested();
        manifest.disposition =
            cancelled ? "cancelled" : "deadline_exceeded";
        std::cerr << "ttm_cli: ensemble stopped (" << manifest.disposition
                  << "); " << checkpoint.completedCount() << "/"
                  << total_points << " points checkpointed\n";
        return cancelled ? 130 : 3;
    }

    // Content-addressed key of this ensemble, built from the same
    // helper the ttm_serve result cache uses, with the full disruption
    // spec folded into the digest — so a CLI run correlates with the
    // server cache entry of the equivalent ensemble_ttm request (band
    // 0.10 mirrors the server-side request default; a unit test pins
    // the two paths to identical keys).
    serve::EvalKeyParams key_params;
    key_params.kernel = "ensemble_ttm";
    key_params.seed = args.seed;
    key_params.n_chips = args.chips;
    key_params.samples = options.paths;
    key_params.band = 0.10;
    key_params.ensemble = &spec;
    const std::string cache_key =
        serve::evalCacheKey(design, market, key_params);

    std::cout << "ensemble " << result.paths_completed << "/"
              << result.paths_requested << " paths, horizon "
              << g17(spec.horizon_weeks) << " weeks, seed " << args.seed
              << ", key " << cache_key << "\n";
    for (const EnsembleGroup& group : result.regimes)
        printEnsembleGroup(group);
    printEnsembleGroup(result.overall);
    if (!report.empty()) {
        std::cerr << report.summary() << "\n";
        return 2;
    }
    return 0;
}

/**
 * Chiplet-economics mode (--chiplet-pareto): sweep partition count x
 * node assignment x redundancy level x production split, score every
 * candidate on TTM, CAS, and redundancy-aware chiplet cost, and print
 * the 3-D Pareto frontier (docs/ECONOMICS.md walks through a run).
 * Wired into the same resilience stack as --sobol/--ensemble:
 * cooperative deadline/SIGINT stop and atomic checkpoint/resume. All numbers print with %.17g, so a
 * straight run and a killed-and-resumed run produce bitwise-identical
 * stdout. Returns the process exit code.
 */
int
runChipletPareto(const TechnologyDb& db, const ChipDesign& design,
                 const MarketConditions& market, const CliArgs& args,
                 obs::RunManifest& manifest)
{
    ChipletSweepSpec spec;
    if (args.chiplet_config.empty()) {
        spec = ChipletSweepSpec::defaultsFor(design.processNodes());
    } else {
        std::ifstream file(args.chiplet_config);
        if (!file) {
            std::cerr << "error: cannot read chiplet config '"
                      << args.chiplet_config << "'\n";
            return 1;
        }
        std::ostringstream text;
        text << file.rdbuf();
        // The config file is user input: parse it under the same
        // untrusted-wire limits as a ttm_serve request line, and
        // report every problem at once instead of crashing on the
        // first.
        const ChipletSpecParse parsed = parseChipletSweepSpecText(
            text.str(), JsonLimits::untrustedWire(1 << 20));
        if (!parsed.ok()) {
            std::cerr << "error: invalid chiplet config '"
                      << args.chiplet_config << "':\n";
            for (const std::string& problem : parsed.errors)
                std::cerr << "  " << problem << "\n";
            return 2;
        }
        spec = parsed.spec;
    }

    CancellationToken token;
    const ScopedSigintCancel sigint(token);
    if (args.deadline_s > 0.0)
        token.setDeadlineAfter(args.deadline_s);

    ChipletExplorerOptions options;
    options.seed = args.seed;
    options.parallel.threads = args.threads;
    options.failure_policy = args.skip_failures
                                 ? FailurePolicy::skipAndRecord()
                                 : FailurePolicy();
    options.cancel = &token;
    FailureReport report;
    options.failure_report = &report;

    std::unique_ptr<SweepCheckpoint> resume;
    if (!args.resume_file.empty()) {
        resume = std::make_unique<SweepCheckpoint>(
            SweepCheckpoint::load(args.resume_file));
        options.resume_from = resume.get();
        manifest.disposition = "resumed";
        manifest.parent_checkpoint = args.resume_file;
    }
    SweepCheckpoint checkpoint;
    if (!args.checkpoint_file.empty()) {
        checkpoint.enableAutoFlush(args.checkpoint_file, 16);
        if (resume != nullptr)
            checkpoint.setParent(args.resume_file);
        options.checkpoint = &checkpoint;
    }

    TtmModel::Options model_options;
    model_options.tapeout_engineers = args.engineers;
    const ChipletExplorer explorer(db, model_options);
    const std::size_t total_points = 3 * spec.candidateCount();
    ChipletParetoResult result;
    bool finished = false;
    try {
        obs::ManifestKernelScope scope(manifest, "ChipletExplorer::run");
        scope.setPoints(total_points);
        result = explorer.run(design, args.chips, market, spec, options);
        scope.setFailures(report.failureCount());
        finished = !token.stopRequested();
    } catch (const Error&) {
        if (!token.stopRequested())
            throw;
    }

    manifest.addFailureReport(report);
    if (options.checkpoint != nullptr) {
        checkpoint.writeAtomic(args.checkpoint_file);
        manifest.checkpoint_points = checkpoint.completedCount();
    }

    if (!finished) {
        const bool cancelled = token.cancelRequested();
        manifest.disposition =
            cancelled ? "cancelled" : "deadline_exceeded";
        std::cerr << "ttm_cli: chiplet sweep stopped ("
                  << manifest.disposition << "); "
                  << checkpoint.completedCount() << "/" << total_points
                  << " points checkpointed\n";
        return cancelled ? 130 : 3;
    }

    // Content-addressed key of this sweep, built from the same helper
    // the ttm_serve result cache uses, with the full sweep spec folded
    // into the digest — so a CLI run correlates with the server cache
    // entry of the equivalent chiplet_pareto request (samples 256 and
    // band 0.10 mirror the server-side request defaults; a unit test
    // pins the two paths to identical keys).
    serve::EvalKeyParams key_params;
    key_params.kernel = kChipletKernelName;
    key_params.seed = args.seed;
    key_params.n_chips = args.chips;
    key_params.samples = 256;
    key_params.band = 0.10;
    key_params.chiplet = &spec;
    const std::string cache_key =
        serve::evalCacheKey(design, market, key_params);

    std::cout << "chiplet-pareto " << result.candidates_completed << "/"
              << result.candidates_requested << " candidates, "
              << result.frontier.size() << " frontier points, seed "
              << args.seed << ", key " << cache_key << "\n";
    for (const std::size_t index : result.frontier) {
        const ChipletPoint& point = result.points[index];
        std::cout << "  frontier idx=" << point.index
                  << " partitions=" << point.candidate.partitions
                  << " node=" << point.candidate.node
                  << " spares=" << point.candidate.spares
                  << " split=" << g17(point.candidate.split_fraction)
                  << " ttm=" << g17(point.ttm_weeks)
                  << " cas=" << g17(point.cas)
                  << " cost=" << g17(point.cost) << "\n";
    }
    if (!report.empty()) {
        std::cerr << report.summary() << "\n";
        return 2;
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    const CliArgs args = parseArgs(argc, argv);
    bool skipped_failures = false;

    obs::RunManifest manifest;
    if (args.wantsObservability() || args.sobol_samples > 0 ||
        args.ensemble_paths > 0 || args.chiplet_pareto) {
        obs::setTracingEnabled(!args.trace_file.empty());
        obs::setMetricsEnabled(true);
        manifest.tool = "ttm_cli";
        manifest.git_hash = obs::buildGitHash();
        manifest.seed = args.seed;
        manifest.threads =
            ParallelConfig{args.threads}.resolvedThreads();
        manifest.setPolicy(args.skip_failures
                               ? FailurePolicy::skipAndRecord()
                               : FailurePolicy());
    }

    try {
        const TechnologyDb db = args.snapshot.empty()
                                    ? defaultTechnologyDb()
                                    : loadTechnologyCsv(args.snapshot);
        TtmModel::Options options;
        options.tapeout_engineers = args.engineers;
        const TtmModel model(db, options);
        const CasModel cas(model);
        const CostModel costs(db);

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
            design = makeMonolithicDesign(
                "cli-design", args.node, args.ntt, args.nut,
                Weeks(args.design_weeks));
        }

        if (args.chiplet_pareto) {
            const int code =
                runChipletPareto(db, design, market, args, manifest);
            if (!args.trace_file.empty())
                obs::writeChromeTrace(args.trace_file);
            if (!args.metrics_file.empty())
                obs::writeMetrics(args.metrics_file);
            if (!args.manifest_file.empty()) {
                manifest.captureKernelMetrics(obs::snapshotMetrics());
                manifest.write(args.manifest_file);
            }
            return code;
        }

        if (args.ensemble_paths > 0) {
            const int code =
                runEnsembleBatch(db, design, market, args, manifest);
            if (!args.trace_file.empty())
                obs::writeChromeTrace(args.trace_file);
            if (!args.metrics_file.empty())
                obs::writeMetrics(args.metrics_file);
            if (!args.manifest_file.empty()) {
                manifest.captureKernelMetrics(obs::snapshotMetrics());
                manifest.write(args.manifest_file);
            }
            return code;
        }

        if (args.sobol_samples > 0) {
            const int code = runSobolBatch(db, design, args, manifest);
            if (!args.trace_file.empty())
                obs::writeChromeTrace(args.trace_file);
            if (!args.metrics_file.empty())
                obs::writeMetrics(args.metrics_file);
            if (!args.manifest_file.empty()) {
                manifest.captureKernelMetrics(obs::snapshotMetrics());
                manifest.write(args.manifest_file);
            }
            return code;
        }

        if (args.all_nodes) {
            Table table(
                {"Node", "TTM (wk)", "CAS", "Cost", "$/chip"});
            table.setAlign(0, Align::Left);
            const std::vector<std::string> nodes = db.availableNames();
            std::vector<Outcome<std::vector<std::string>>> rows(
                nodes.size());
            for (std::size_t i = 0; i < nodes.size(); ++i) {
                const std::string& node = nodes[i];
                const auto evaluateRow =
                    [&]() -> std::vector<std::string> {
                    const ChipDesign candidate =
                        retargetDesign(design, node);
                    MarketConditions node_market;
                    node_market.setCapacityFactor(node, args.capacity);
                    node_market.setQueueWeeks(node, Weeks(args.queue));
                    const double ttm =
                        model.evaluate(candidate, args.chips, node_market)
                            .total()
                            .value();
                    const double cost = costs.evaluate(candidate, args.chips)
                                            .total()
                                            .value();
                    return {node, formatFixed(ttm, 1),
                            formatFixed(
                                cas.cas(candidate, args.chips, node_market),
                                1),
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
            enforcePolicy(rows,
                          args.skip_failures ? FailurePolicy::skipAndRecord()
                                             : FailurePolicy(),
                          &report, "ttm_cli --all-nodes");
            for (const auto& row : rows) {
                if (row.ok())
                    table.addRow(row.value());
            }
            std::cout << table.render();
            if (!report.empty()) {
                for (std::size_t i = 0; i < nodes.size(); ++i) {
                    if (!rows[i].ok())
                        std::cerr << "warning: skipped node '" << nodes[i]
                                  << "': "
                                  << rows[i].diagnostic().message << "\n";
                }
                std::cerr << report.summary() << "\n";
                skipped_failures = true;
            }
        } else {
            const TtmResult ttm =
                model.evaluate(design, args.chips, market);
            const CostBreakdown cost =
                costs.evaluate(design, args.chips);
            std::cout << (args.design_file.empty()
                              ? "node " + args.node
                              : "design " + design.name)
                      << ", "
                      << formatSi(args.chips, 1) << " chips\n"
                      << "  TTM   " << formatFixed(ttm.total().value(), 1)
                      << " weeks (tapeout "
                      << formatFixed(ttm.tapeout_time.value(), 1)
                      << ", fab " << formatFixed(ttm.fab_time.value(), 1)
                      << ", pkg "
                      << formatFixed(ttm.packaging_time.value(), 1)
                      << ")\n"
                      << "  CAS   "
                      << formatFixed(cas.cas(design, args.chips, market),
                                     1)
                      << "\n  cost  "
                      << formatDollars(cost.total().value(), 2) << " ("
                      << formatDollars(cost.total().value() / args.chips,
                                       2)
                      << "/chip)\n";
        }

        if (args.risk_deadline > 0.0) {
            const RiskAnalysis risk_engine(model);
            MarketForecast forecast;
            for (const std::string& node : design.processNodes())
                forecast.uniformDisruption(node, 0.5, 1.0, 3.0);
            const ScheduleRisk risk = risk_engine.assess(
                design, args.chips, forecast,
                Weeks(args.risk_deadline), 512);
            std::cout << "  risk  P[TTM <= "
                      << formatFixed(args.risk_deadline, 0)
                      << " wk] = "
                      << formatFixed(100.0 * risk.p_on_time, 0)
                      << "% under a moderate " << args.node
                      << " disruption forecast; p95 TTM "
                      << formatFixed(risk.ttm.percentile(95.0), 1)
                      << " wk\n";
        }

        if (args.wantsObservability()) {
            {
                const obs::ScopedSpan span("cli", "observability_sweep");
                runObservabilitySweep(db, design, args, manifest);
            }
            if (!args.trace_file.empty())
                obs::writeChromeTrace(args.trace_file);
            if (!args.metrics_file.empty())
                obs::writeMetrics(args.metrics_file);
            if (!args.manifest_file.empty()) {
                manifest.captureKernelMetrics(obs::snapshotMetrics());
                manifest.write(args.manifest_file);
            }
        }
    } catch (const Error& error) {
        std::cerr << "error: " << error.what() << "\n";
        return 1;
    }
    // 0 = clean run, 2 = completed but some nodes were skipped.
    return skipped_failures ? 2 : 0;
}
