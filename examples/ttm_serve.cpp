/**
 * @file
 * ttm_serve: a long-lived evaluation daemon for the TTM/CAS models
 * (docs/SERVING.md documents the wire format and operations story).
 *
 * Clients send newline-delimited JSON requests (Monte-Carlo TTM/CAS,
 * Sobol sensitivity, capacity sweeps, health, stats) and receive one
 * JSON reply line per request. Three transports share the same engine
 * (serve/server.hh) and the same byte-level transport layer
 * (serve/transport.hh):
 *
 *   --socket PATH   Unix-domain stream socket, one thread per
 *                   connection (bounded by --max-connections).
 *   --tcp HOST:PORT TCP stream socket (port 0 binds an ephemeral port
 *                   and the ready line reports the bound one). May be
 *                   combined with --socket; both serve concurrently.
 *   --pipe          stdin -> stdout, for deterministic testing and
 *                   shell pipelines.
 *
 * Robustness contract:
 *  - malformed input never kills the process: every line produces a
 *    structured reply (serve/request.hh is the trust boundary);
 *  - SIGPIPE is ignored process-wide, and every socket write loops on
 *    partial writes and EINTR — a client hanging up mid-reply is a
 *    per-connection event, never a process kill;
 *  - a started request line must complete within --read-deadline
 *    (slow-loris protection) and --idle-timeout bounds half-open
 *    connections; oversized lines are cut and answered structurally;
 *  - admission is bounded (--queue): overload sheds with a structured
 *    "overloaded" reply instead of queueing unboundedly;
 *  - each admitted request is evaluated on its connection's own
 *    thread (the pipe's, in --pipe mode); --workers caps how many
 *    evaluate at once, and the rest of the admitted ones wait;
 *  - identical concurrent requests coalesce onto one evaluation
 *    (single-flight, observable via serve.coalesce.* in stats);
 *  - every request runs under a wall-clock deadline (--deadline or
 *    the request's own, capped), returning partial-but-well-formed
 *    results with status "deadline_exceeded";
 *  - SIGTERM/SIGINT drain gracefully: stop admitting, give in-flight
 *    work --drain-grace seconds to finish, then cancel it
 *    cooperatively, flush observability state, and exit 0;
 *  - complete results enter a bounded content-addressed cache
 *    (--cache-dir, --cache-entries, --cache-bytes) persisted with
 *    atomic temp-then-rename writes and evicted LRU with the same
 *    discipline, so kill -9 can never tear an entry and a restart
 *    recovers a consistent bounded cache;
 *  - --fault-rate arms the deterministic fault injector for chaos
 *    testing: a fraction of evaluation points fail through the
 *    skip-and-record path, keeping replies well-formed with honest
 *    failure counts.
 *
 * Exit codes: 0 = clean drain (EOF, SIGTERM, or SIGINT); 1 = hard
 * startup/transport error; 2 = usage error.
 */

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <unistd.h>

#include "serve/server.hh"
#include "serve/transport.hh"
#include "support/cancel.hh"
#include "support/metrics.hh"
#include "support/run_manifest.hh"
#include "tech/default_dataset.hh"

namespace {

using namespace ttmcas;

struct ServeArgs
{
    std::string socket_path;
    std::string tcp_spec;
    bool pipe = false;
    std::size_t workers = 4;
    std::size_t queue = 16;
    double deadline_s = 30.0;
    std::string cache_dir;
    std::size_t cache_entries = 1024;
    std::size_t cache_bytes = 0;
    std::size_t max_request_bytes = 1 << 20;
    std::size_t max_connections = 64;
    double read_deadline_s = 30.0;
    double idle_timeout_s = 0.0;
    double drain_grace_s = 5.0;
    double fault_rate = 0.0;
    std::uint64_t fault_seed = 1;
    std::string metrics_file;
    std::string manifest_file;
};

[[noreturn]] void
usage()
{
    std::cerr
        << "usage: ttm_serve (--socket PATH | --tcp HOST:PORT | --pipe)\n"
           "                 [--socket PATH] [--tcp HOST:PORT]\n"
           "                 [--workers n] [--queue n] [--deadline s]\n"
           "                 [--cache-dir dir] [--cache-entries n]\n"
           "                 [--cache-bytes n]\n"
           "                 [--max-request-bytes n]\n"
           "                 [--max-connections n]\n"
           "                 [--read-deadline s] [--idle-timeout s]\n"
           "                 [--drain-grace s]\n"
           "                 [--fault-rate p] [--fault-seed n]\n"
           "                 [--metrics file.json] [--manifest file.json]\n"
           "--workers caps the evaluations that run at once; each runs on\n"
           "the thread of the connection that sent it.\n";
    std::exit(2);
}

ServeArgs
parseArgs(int argc, char** argv)
{
    ServeArgs args;
    const std::map<std::string, int> flags{
        {"--socket", 1},        {"--tcp", 1},
        {"--pipe", 0},          {"--workers", 1},
        {"--queue", 1},         {"--deadline", 1},
        {"--cache-dir", 1},     {"--cache-entries", 1},
        {"--cache-bytes", 1},   {"--max-request-bytes", 1},
        {"--max-connections", 1}, {"--read-deadline", 1},
        {"--idle-timeout", 1},  {"--drain-grace", 1},
        {"--fault-rate", 1},    {"--fault-seed", 1},
        {"--metrics", 1},       {"--manifest", 1},
    };
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        std::string inline_value;
        bool has_inline_value = false;
        const std::size_t equals = flag.find('=');
        if (equals != std::string::npos) {
            inline_value = flag.substr(equals + 1);
            flag = flag.substr(0, equals);
            has_inline_value = true;
        }
        const auto it = flags.find(flag);
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
        } else if (has_inline_value) {
            usage();
        }
        try {
            if (flag == "--socket")
                args.socket_path = value;
            else if (flag == "--tcp")
                args.tcp_spec = value;
            else if (flag == "--pipe")
                args.pipe = true;
            else if (flag == "--workers")
                args.workers = std::stoull(value);
            else if (flag == "--queue")
                args.queue = std::stoull(value);
            else if (flag == "--deadline")
                args.deadline_s = std::stod(value);
            else if (flag == "--cache-dir")
                args.cache_dir = value;
            else if (flag == "--cache-entries")
                args.cache_entries = std::stoull(value);
            else if (flag == "--cache-bytes")
                args.cache_bytes = std::stoull(value);
            else if (flag == "--max-request-bytes")
                args.max_request_bytes = std::stoull(value);
            else if (flag == "--max-connections")
                args.max_connections = std::stoull(value);
            else if (flag == "--read-deadline")
                args.read_deadline_s = std::stod(value);
            else if (flag == "--idle-timeout")
                args.idle_timeout_s = std::stod(value);
            else if (flag == "--drain-grace")
                args.drain_grace_s = std::stod(value);
            else if (flag == "--fault-rate")
                args.fault_rate = std::stod(value);
            else if (flag == "--fault-seed")
                args.fault_seed = std::stoull(value);
            else if (flag == "--metrics")
                args.metrics_file = value;
            else if (flag == "--manifest")
                args.manifest_file = value;
        } catch (const std::exception&) {
            usage();
        }
    }
    // Exactly one transport family: --pipe, or sockets (--socket
    // and/or --tcp, which may serve concurrently).
    const bool sockets = !args.socket_path.empty() || !args.tcp_spec.empty();
    if (args.pipe == sockets || args.workers < 1 || args.queue < 1 ||
        args.fault_rate < 0.0 || args.fault_rate > 1.0)
        usage();
    return args;
}

/**
 * stdin -> stdout transport. The read side polls at 100ms so a
 * SIGTERM arriving while the server idles on a quiet pipe still
 * drains promptly instead of blocking in read(2) forever.
 */
void
runPipe(serve::EvalServer& server, const CancellationToken& token,
        const ServeArgs& args)
{
    serve::LineSplitter splitter(args.max_request_bytes + 1);
    char chunk[4096];
    std::string line;
    bool eof = false;
    while (!eof && !token.stopRequested()) {
        pollfd pfd{STDIN_FILENO, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 100);
        if (ready <= 0)
            continue;
        const ssize_t n = ::read(STDIN_FILENO, chunk, sizeof chunk);
        if (n == 0) {
            eof = true;
            break;
        }
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        splitter.feed(chunk, static_cast<std::size_t>(n));
        while (splitter.nextLine(line)) {
            if (line.empty())
                continue;
            serve::writeAll(STDOUT_FILENO, server.handleLine(line) + "\n");
        }
    }
    const std::string rest = splitter.flushPartial();
    if (eof && !rest.empty())
        serve::writeAll(STDOUT_FILENO, server.handleLine(rest) + "\n");
}

/** The per-connection limits the command line asks for. */
serve::ConnectionLimits
connectionLimits(const ServeArgs& args)
{
    serve::ConnectionLimits limits;
    // +1 so the cut-off prefix of an oversized line is over the
    // engine's limit and maps to a structured "limit-exceeded" reply.
    limits.max_line_bytes = args.max_request_bytes + 1;
    limits.read_deadline_s = args.read_deadline_s;
    limits.idle_timeout_s = args.idle_timeout_s;
    serve::RequestError deadline_error;
    deadline_error.code = "read-deadline";
    deadline_error.message =
        "request line not completed within the read deadline";
    limits.read_deadline_reply = serve::errorReply(deadline_error);
    return limits;
}

} // namespace

int
main(int argc, char** argv)
{
    const ServeArgs args = parseArgs(argc, argv);

    // Before any socket exists: a peer hangup mid-reply must surface
    // as EPIPE from write(2), never a process-killing SIGPIPE.
    serve::ignoreSigpipe();

    if (!args.metrics_file.empty() || !args.manifest_file.empty())
        obs::setMetricsEnabled(true);

    CancellationToken stop;
    const ScopedSigintCancel signals(stop); // SIGINT + SIGTERM -> drain

    try {
        serve::ServeOptions options;
        options.workers = args.workers;
        options.queue_bound = args.queue;
        options.default_deadline_s = args.deadline_s;
        options.limits.max_request_bytes = args.max_request_bytes;
        options.cache.dir = args.cache_dir;
        options.cache.max_entries = args.cache_entries;
        options.cache.max_bytes = args.cache_bytes;
        options.fault_probability = args.fault_rate;
        options.fault_seed = args.fault_seed;

        serve::EvalServer server(defaultTechnologyDb(), options);

        // Everything a detached connection thread references must
        // outlive the accept loops: connection threads are awaited via
        // tracker.awaitZero *after* the drain below, so the tracker,
        // the loop options (deadline lambdas read its limits), and the
        // handler all live in this scope, not inside the socket branch.
        serve::ConnectionTracker tracker;
        serve::AcceptLoopOptions loop;
        loop.max_connections = args.max_connections;
        loop.limits = connectionLimits(args);
        loop.overloaded_reply = serve::overloadedReply(
            "", args.max_connections, args.max_connections);
        const serve::LineHandler handler =
            [&server](const std::string& line) {
                return server.handleLine(line);
            };

        if (args.pipe) {
            std::cout << "ttm_serve ready pipe workers=" << args.workers
                      << " queue=" << args.queue
                      << " recovered=" << server.recoveredEntries()
                      << std::endl;
            runPipe(server, stop, args);
        } else {
            serve::Listener unix_listener;
            serve::Listener tcp_listener;
            std::string error;
            if (!args.socket_path.empty()) {
                unix_listener =
                    serve::Listener::listenUnix(args.socket_path, error);
                if (!unix_listener.valid()) {
                    std::cerr << "ttm_serve: " << error << "\n";
                    return 1;
                }
            }
            if (!args.tcp_spec.empty()) {
                tcp_listener =
                    serve::Listener::listenTcp(args.tcp_spec, error);
                if (!tcp_listener.valid()) {
                    std::cerr << "ttm_serve: " << error << "\n";
                    return 1;
                }
            }

            // Readiness line: shell tests and supervisors wait for
            // this (and parse the bound TCP endpoint from it).
            std::cout << "ttm_serve ready";
            if (unix_listener.valid())
                std::cout << " socket=" << unix_listener.endpoint();
            if (tcp_listener.valid())
                std::cout << " tcp=" << tcp_listener.endpoint();
            std::cout << " workers=" << args.workers
                      << " queue=" << args.queue
                      << " recovered=" << server.recoveredEntries()
                      << std::endl;

            std::vector<std::thread> accepters;
            if (unix_listener.valid())
                accepters.emplace_back([&] {
                    serve::runAcceptLoop(unix_listener, handler, stop,
                                         loop, tracker);
                });
            if (tcp_listener.valid())
                accepters.emplace_back([&] {
                    serve::runAcceptLoop(tcp_listener, handler, stop,
                                         loop, tracker);
                });
            for (std::thread& thread : accepters)
                thread.join(); // each returns when the token stops
        }

        // Graceful drain: stop admitting, give in-flight work its
        // grace period, then cancel cooperatively and wait again.
        // Connection threads unblock as their requests finish, so the
        // tracker is awaited last.
        server.beginDrain(/*cancel_in_flight=*/false);
        const auto grace = std::chrono::milliseconds(
            static_cast<long>(args.drain_grace_s * 1000.0));
        if (!server.awaitIdle(grace)) {
            server.beginDrain(/*cancel_in_flight=*/true);
            server.awaitIdle(std::chrono::milliseconds(30000));
        }
        tracker.awaitZero(std::chrono::milliseconds(15000));

        const serve::ServerStats stats = server.stats();
        std::cerr << "ttm_serve: drained after " << stats.requests
                  << " requests (ok " << stats.ok << ", errors "
                  << stats.errors << ", shed " << stats.shed
                  << ", deadline " << stats.deadline_exceeded
                  << ", cache hits " << stats.cache.hits
                  << ", coalesced " << stats.coalesce_followers << ")\n";

        if (!args.metrics_file.empty())
            obs::writeMetrics(args.metrics_file);
        if (!args.manifest_file.empty()) {
            obs::RunManifest manifest;
            manifest.tool = "ttm_serve";
            manifest.git_hash = obs::buildGitHash();
            manifest.threads = args.workers;
            manifest.failure_policy = "skip_and_record";
            manifest.disposition =
                stop.cancelRequested() ? "drained" : "completed";
            obs::KernelTiming timing;
            timing.kernel = "serve.session";
            timing.points = stats.requests;
            timing.failures = stats.errors;
            manifest.addKernel(timing);
            manifest.write(args.manifest_file);
        }
    } catch (const std::exception& error) {
        std::cerr << "ttm_serve: fatal: " << error.what() << "\n";
        return 1;
    }
    return 0;
}
