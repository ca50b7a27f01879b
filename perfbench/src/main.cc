/**
 * @file
 * ttmcas_perfbench: the repository's end-to-end benchmark.
 *
 *   ttmcas_perfbench --workload W --seed N --seconds S --trace 0|1
 *                    [--work-dir D] [--digests F]
 *                    [--git-commit C] [--source-digest H]
 *
 * runs workload W (serve_cold_mix, serve_hot_small, cache_study) and
 * prints detail lines, an environment stamp, and as its last line one
 * JSON object {correct, attempted, failed, metrics}. --trace 0 reports
 * the end-to-end metrics; --trace 1 reports the per-layer metrics,
 * writes a Chrome trace_event file into the work dir, and prints a
 * per-layer self-time table. Exits 1 when any output check failed.
 *
 * Helper modes, used by the benchmark's own tests:
 *   --gen-requests K   print the first K request lines of (W, N)
 *   --self-test        check that the output checks reject tampering
 *   --record-digests   print the cache_study digest of every variant
 */

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>

#include "cache_study.hh"
#include "check.hh"
#include "generator.hh"
#include "layers.hh"
#include "report.hh"
#include "serve/evaluator.hh"
#include "serve/request.hh"
#include "serve_bench.hh"
#include "spans.hh"
#include "tech/default_dataset.hh"

namespace perfbench {
namespace {

struct Args
{
    RunOptions run;
    bool have_workload = false;
    std::string digests = "perfbench/cache_study_digests.txt";
    std::string git_commit = "unknown";
    std::string source_digest = "unknown";
    long gen_requests = -1;
    bool self_test = false;
    bool record_digests = false;
};

int
usage(const std::string& problem)
{
    std::cerr << "ttmcas_perfbench: " << problem << "\n"
              << "usage: ttmcas_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--work-dir D] [--digests F]\n";
    return 2;
}

bool
parseArgs(int argc, char** argv, Args& args, std::string& problem)
{
    args.run.work_dir = ".bench_build/perfbench-work";
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--self-test") {
            args.self_test = true;
            continue;
        }
        if (flag == "--record-digests") {
            args.record_digests = true;
            continue;
        }
        if (i + 1 >= argc) {
            problem = "missing value for " + flag;
            return false;
        }
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                if (!parseWorkload(value, args.run.workload)) {
                    problem = "unknown workload '" + value + "'";
                    return false;
                }
                args.have_workload = true;
            } else if (flag == "--seed") {
                args.run.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                args.run.seconds = std::stod(value);
            } else if (flag == "--trace") {
                if (value != "0" && value != "1") {
                    problem = "--trace must be 0 or 1";
                    return false;
                }
                args.run.traced = value == "1";
            } else if (flag == "--work-dir") {
                args.run.work_dir = value;
            } else if (flag == "--digests") {
                args.digests = value;
            } else if (flag == "--git-commit") {
                args.git_commit = value;
            } else if (flag == "--source-digest") {
                args.source_digest = value;
            } else if (flag == "--gen-requests") {
                args.gen_requests = std::stol(value);
            } else {
                problem = "unknown flag " + flag;
                return false;
            }
        } catch (const std::exception&) {
            problem = "bad value '" + value + "' for " + flag;
            return false;
        }
    }
    if (!(args.run.seconds > 0.0) || args.run.seconds > 600.0) {
        problem = "--seconds must be in (0, 600]";
        return false;
    }
    return true;
}

int
genRequests(const Args& args)
{
    const RequestGenerator generator(args.run.workload, args.run.seed);
    for (const GeneratedRequest& request : generator.hotSet())
        std::cout << request.line << "\n";
    for (long i = 0; i < args.gen_requests; ++i)
        std::cout << generator.request(static_cast<std::uint64_t>(i)).line
                  << "\n";
    return 0;
}

int
recordDigests()
{
    SpanRecorder spans(false);
    std::cout << "# cache_study variant digests (variant = seed mod "
              << kStudyVariants << "), rows rendered at %.17g\n";
    for (std::uint64_t variant = 0; variant < kStudyVariants; ++variant)
        std::cout << variant << " "
                  << studyDigest(runStudyPass(variant, spans)) << std::endl;
    return 0;
}

/** Replace the first @p from in @p text with @p to (must exist). */
std::string
tamper(std::string text, const std::string& from, const std::string& to)
{
    const std::size_t at = text.find(from);
    if (at == std::string::npos)
        return "";
    return text.replace(at, from.size(), to);
}

int
selfTest()
{
    int problems = 0;
    const auto expect = [&](bool condition, const std::string& what) {
        if (!condition) {
            std::cout << "self-test FAILED: " << what << "\n";
            ++problems;
        }
    };

    // A genuine reply, rendered the way the server renders a miss.
    const RequestGenerator generator(Workload::ServeColdMix, 1);
    const ttmcas::serve::Evaluator evaluator(ttmcas::defaultTechnologyDb());
    for (std::uint64_t index = 0; index < 12; ++index) {
        const GeneratedRequest request = generator.request(index);
        const auto parsed = ttmcas::serve::parseRequestLine(
            request.line, ttmcas::serve::ServeLimits{});
        expect(parsed.ok, request.id + " parses");
        const ttmcas::CancellationToken token;
        const auto outcome = evaluator.evaluate(parsed.request, token);
        const std::string reply = ttmcas::serve::resultReply(
            request.id, parsed.request.kind, outcome.status, "miss",
            ttmcas::serve::Evaluator::cacheKey(parsed.request),
            outcome.payload);
        expect(checkReply(reply, request).ok,
               request.id + " genuine reply accepted: " +
                   checkReply(reply, request).why);
        expect(resultPayload(reply) == outcome.payload,
               request.id + " payload extracted");
        for (const auto& [from, to] :
             std::vector<std::pair<std::string, std::string>>{
                 {"\"failed\":0", "\"failed\":1"},
                 {"\"status\":\"ok\"", "\"status\":\"cancelled\""},
                 {"\"cache\":\"miss\"", "\"cache\":\"hit\""},
                 {"\"id\":\"r", "\"id\":\"x"},
                 {"\"kind\":\"", "\"kind\":\"z"},
                 {"}", ""}}) {
            const std::string bad = tamper(reply, from, to);
            expect(!bad.empty() && !checkReply(bad, request).ok,
                   request.id + " rejects tampered " + from);
        }
        if (request.kind == "mc_ttm" || request.kind == "mc_cas") {
            const std::string completed =
                "\"samples_completed\":" + std::to_string(request.size);
            const std::string bad = tamper(
                reply, completed,
                "\"samples_completed\":" + std::to_string(request.size - 1));
            expect(!bad.empty() && !checkReply(bad, request).ok,
                   request.id + " rejects a short sample count");
        }
        // The replay comparison is byte-exact.
        const std::string drifted = tamper(outcome.payload, "e", "E");
        expect(drifted != resultPayload(reply),
               request.id + " payload drift is detected");
    }

    // A tampered curve or sweep row changes the study digest.
    SpanRecorder spans(false);
    StudyOutput output = runStudyPass(0, spans);
    const std::string digest = studyDigest(output);
    expect(digest == studyDigest(runStudyPass(0, spans)),
           "study digest is deterministic");
    StudyOutput curve = output;
    curve.data.miss_rates[3] =
        std::nextafter(curve.data.miss_rates[3], 1.0);
    expect(studyDigest(curve) != digest, "rejects a 1-ulp curve change");
    StudyOutput row = output;
    row.rows[7].ttm = ttmcas::Weeks(row.rows[7].ttm.value() * (1 + 1e-15));
    expect(studyDigest(row) != digest, "rejects a tampered sweep row");

    std::cout << (problems == 0 ? "self-test ok" : "self-test FAILED")
              << "\n";
    return problems == 0 ? 0 : 1;
}

void
printSelfTimes(const SpanRecorder& spans)
{
    std::printf("%-40s %10s %14s %14s\n", "span (layer boundary)", "count",
                "total_ms", "self_ms");
    for (const SelfTimeRow& row : spans.selfTimes())
        std::printf("%-40s %10zu %14.3f %14.3f\n", row.name.c_str(),
                    row.count, row.total_us / 1e3, row.self_us / 1e3);
}

int
run(const Args& args)
{
    std::filesystem::create_directories(args.run.work_dir);
    Report report;
    SpanRecorder spans(args.run.traced);
    EnvStamp stamp;
    stamp.workload = workloadName(args.run.workload);
    stamp.seed = args.run.seed;
    stamp.traced = args.run.traced;
    stamp.git_commit = args.git_commit;
    stamp.source_digest = args.source_digest;

    try {
        if (args.run.workload == Workload::CacheStudy)
            runCacheStudy(args.run, args.digests, report, spans);
        else
            runServeWorkload(args.run, report, spans, stamp);
        if (args.run.traced)
            measureLayers(args.run.seed, report, spans);
    } catch (const std::exception& error) {
        std::cerr << "ttmcas_perfbench: " << error.what() << "\n";
        return 1;
    }
    if (!args.run.traced)
        report.add("peak_rss_mb", peakRssMb(), "MB");

    for (const std::string& line : report.notes())
        std::cout << line << "\n";
    std::cout << envStampLine(stamp) << "\n";
    if (args.run.traced) {
        const std::string path = args.run.work_dir + "/trace_" +
                                 stamp.workload + "_" +
                                 std::to_string(args.run.seed) + ".json";
        if (!spans.writeChromeTrace(path)) {
            std::cerr << "ttmcas_perfbench: cannot write " << path << "\n";
            return 1;
        }
        std::cout << "trace: " << path << " (" << spans.spans().size()
                  << " spans)\n";
        printSelfTimes(spans);
    }
    std::cout << report.resultLine() << std::endl;
    return report.failed() == 0 && report.attempted() > 0 ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char** argv)
{
    using namespace perfbench;
    Args args;
    std::string problem;
    if (!parseArgs(argc, argv, args, problem))
        return usage(problem);
    if (args.self_test)
        return selfTest();
    if (args.record_digests)
        return recordDigests();
    if (!args.have_workload)
        return usage("--workload is required");
    if (args.gen_requests >= 0)
        return args.run.workload == Workload::CacheStudy
                   ? usage("cache_study has no request stream")
                   : genRequests(args);
    return run(args);
}
