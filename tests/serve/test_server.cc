/**
 * @file
 * EvalServer behaviour under friendly and hostile traffic: malformed
 * lines are isolated to structured error replies, cache misses become
 * byte-identical hits, deadlines produce honest partial results,
 * admission sheds under flood, drain rejects new work while cancelling
 * in-flight evaluations, and a restarted server serves recovered cache
 * entries. The AdmissionGate unit contract lives here too.
 */

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/admission.hh"
#include "serve/server.hh"
#include "support/json.hh"
#include "tech/default_dataset.hh"

namespace ttmcas::serve {
namespace {

const char* const kValidDies =
    R"("design":{"dies":[{"name":"soc","process":"7nm",)"
    R"("total_transistors":2.4e9,"unique_transistors":2e8}]})";

std::string
mcLine(const std::string& id, const std::string& extra = "")
{
    std::string line = R"({"id":")" + id + R"(","kind":"mc_ttm",)";
    line += kValidDies;
    line += R"(,"samples":8)";
    line += extra;
    line += "}";
    return line;
}

/** The reply's embedded result object (payloads embed verbatim). */
std::string
resultPortion(const std::string& reply)
{
    const std::size_t at = reply.find(R"("result":)");
    EXPECT_NE(at, std::string::npos) << reply;
    return at == std::string::npos ? "" : reply.substr(at);
}

ServeOptions
quickOptions()
{
    ServeOptions options;
    options.workers = 2;
    options.queue_bound = 4;
    options.default_deadline_s = 60.0;
    return options;
}

TEST(AdmissionGateTest, AdmitsUpToCapacityThenSheds)
{
    AdmissionGate gate(2);
    EXPECT_EQ(gate.tryEnter(), AdmissionGate::Decision::Admitted);
    EXPECT_EQ(gate.tryEnter(), AdmissionGate::Decision::Admitted);
    EXPECT_EQ(gate.tryEnter(), AdmissionGate::Decision::Shed);
    EXPECT_EQ(gate.inFlight(), 2u);
    gate.leave();
    EXPECT_EQ(gate.tryEnter(), AdmissionGate::Decision::Admitted);
    gate.leave();
    gate.leave();
    EXPECT_EQ(gate.inFlight(), 0u);
}

TEST(AdmissionGateTest, DrainIsALatchAndAwaitIdleObservesLeaves)
{
    AdmissionGate gate(4);
    EXPECT_EQ(gate.tryEnter(), AdmissionGate::Decision::Admitted);
    gate.beginDrain();
    gate.beginDrain(); // idempotent
    EXPECT_TRUE(gate.draining());
    EXPECT_EQ(gate.tryEnter(), AdmissionGate::Decision::Draining);
    EXPECT_FALSE(gate.awaitIdle(std::chrono::milliseconds(10)));

    std::thread leaver([&gate] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        gate.leave();
    });
    EXPECT_TRUE(gate.awaitIdle(std::chrono::milliseconds(5000)));
    leaver.join();
}

TEST(AdmissionGateTest, SlotIsRaii)
{
    AdmissionGate gate(1);
    ASSERT_EQ(gate.tryEnter(), AdmissionGate::Decision::Admitted);
    {
        AdmissionSlot slot(gate);
        EXPECT_EQ(gate.inFlight(), 1u);
    }
    EXPECT_EQ(gate.inFlight(), 0u);
}

TEST(EvalServerTest, HealthReflectsConfiguration)
{
    EvalServer server(defaultTechnologyDb(), quickOptions());
    const JsonValue health = parseJson(
        server.handleLine(R"({"id":"h1","kind":"health"})"));
    EXPECT_EQ(health.at("status").asString(), "ok");
    EXPECT_EQ(health.at("kind").asString(), "health");
    EXPECT_FALSE(health.at("draining").asBool());
    EXPECT_EQ(health.at("in_flight").asNumber(), 0.0);
    EXPECT_EQ(health.at("capacity").asNumber(), 4.0);
    EXPECT_EQ(health.at("workers").asNumber(), 2.0);
}

TEST(EvalServerTest, MalformedLinesAreIsolatedFromLaterRequests)
{
    EvalServer server(defaultTechnologyDb(), quickOptions());
    const char* hostile[] = {
        "",
        "not json at all",
        "{\"kind\":",
        R"({"kind":"warp_drive"})",
        R"({"kind":"mc_ttm"})",
        R"([1,2,3])",
    };
    for (const char* line : hostile) {
        const JsonValue reply = parseJson(server.handleLine(line));
        EXPECT_EQ(reply.at("status").asString(), "error") << line;
        EXPECT_FALSE(
            reply.at("error").at("message").asString().empty())
            << line;
    }
    // The server is unharmed: a valid request right after succeeds.
    const JsonValue ok = parseJson(server.handleLine(mcLine("after")));
    EXPECT_EQ(ok.at("status").asString(), "ok");
    EXPECT_EQ(server.stats().errors, 6u);
}

TEST(EvalServerTest, MissBecomesByteIdenticalHit)
{
    EvalServer server(defaultTechnologyDb(), quickOptions());
    const std::string first = server.handleLine(mcLine("q1"));
    const std::string second = server.handleLine(mcLine("q1"));
    const JsonValue first_doc = parseJson(first);
    const JsonValue second_doc = parseJson(second);
    EXPECT_EQ(first_doc.at("cache").asString(), "miss");
    EXPECT_EQ(second_doc.at("cache").asString(), "hit");
    EXPECT_EQ(first_doc.at("key").asString(),
              second_doc.at("key").asString());
    // The cached payload is embedded verbatim: byte-for-byte equal.
    EXPECT_EQ(resultPortion(first), resultPortion(second));

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.cache.insertions, 1u);
    EXPECT_EQ(stats.cache.hits, 1u);
    EXPECT_EQ(stats.cache_entries, 1u);
}

TEST(EvalServerTest, NoCacheComputesWithoutTouchingTheCache)
{
    EvalServer server(defaultTechnologyDb(), quickOptions());
    const JsonValue reply = parseJson(
        server.handleLine(mcLine("n1", R"(,"no_cache":true)")));
    EXPECT_EQ(reply.at("status").asString(), "ok");
    EXPECT_EQ(reply.at("cache").asString(), "bypass");
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.cache_entries, 0u);
    EXPECT_EQ(stats.cache.insertions, 0u);
}

TEST(EvalServerTest, TinyDeadlineYieldsWellFormedPartialResult)
{
    EvalServer server(defaultTechnologyDb(), quickOptions());
    // 1µs of budget cannot finish 100k samples; the reply must still
    // be a complete JSON document with honest partial counts, and the
    // partial payload must never enter the cache.
    const JsonValue reply = parseJson(server.handleLine(mcLine(
        "d1", R"(,"samples":100000,"deadline_s":0.000001)")));
    EXPECT_EQ(reply.at("status").asString(), "deadline_exceeded");
    EXPECT_EQ(reply.at("cache").asString(), "bypass");
    const JsonValue& result = reply.at("result");
    EXPECT_LT(result.at("samples_completed").asNumber(), 100000.0);
    EXPECT_GT(result.at("failures").at("deadline_exceeded").asNumber(),
              0.0);
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.deadline_exceeded, 1u);
    EXPECT_EQ(stats.cache_entries, 0u);
}

TEST(EvalServerTest, FloodIsShedWithOverloadedAndDrainCancelsInFlight)
{
    ServeOptions options;
    options.workers = 1;
    options.queue_bound = 1;
    options.default_deadline_s = 120.0;
    EvalServer server(defaultTechnologyDb(), options);

    // Occupy the only slot with a deliberately slow request: a
    // max-samples Sobol analysis over a 16-die design costs millions
    // of die evaluations, far more than the window this test needs
    // (drain cancels it long before completion).
    std::string slow_line =
        R"({"id":"slow","kind":"sobol_ttm","design":{"dies":[)";
    for (int i = 0; i < 16; ++i) {
        if (i > 0)
            slow_line += ",";
        slow_line += R"({"process":"7nm","total_transistors":2.4e9,)"
                     R"("unique_transistors":2e8})";
    }
    slow_line += R"(]},"samples":1048576,"no_cache":true})";
    std::atomic<bool> long_done{false};
    std::string long_reply;
    std::thread occupant([&] {
        long_reply = server.handleLine(slow_line);
        long_done.store(true);
    });

    // Wait until the slow request holds its slot.
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (server.stats().in_flight == 0 &&
           std::chrono::steady_clock::now() < give_up)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    // EXPECT (not ASSERT): on failure the drain below still runs, so
    // the occupant thread is always joined before the test returns.
    EXPECT_EQ(server.stats().in_flight, 1u);

    // The gate is full: the next evaluation request is shed...
    const JsonValue shed = parseJson(server.handleLine(
        mcLine("flood", R"(,"seed":99,"no_cache":true)")));
    EXPECT_EQ(shed.at("status").asString(), "overloaded");
    // ...but health stays answerable under flood.
    const JsonValue health = parseJson(
        server.handleLine(R"({"id":"h","kind":"health"})"));
    EXPECT_EQ(health.at("status").asString(), "ok");

    // Drain: new work is rejected, the in-flight token is cancelled,
    // and the occupant gets a structured partial reply promptly.
    server.beginDrain(/*cancel_in_flight=*/true);
    const JsonValue draining = parseJson(server.handleLine(
        mcLine("late", R"(,"seed":100,"no_cache":true)")));
    EXPECT_EQ(draining.at("status").asString(), "draining");
    EXPECT_TRUE(server.awaitIdle(std::chrono::milliseconds(30000)));
    occupant.join();
    ASSERT_TRUE(long_done.load());
    const JsonValue long_doc = parseJson(long_reply);
    EXPECT_EQ(long_doc.at("status").asString(), "cancelled");
    EXPECT_EQ(long_doc.at("cache").asString(), "bypass");
    EXPECT_EQ(server.stats().shed, 1u);
    EXPECT_EQ(server.stats().rejected_draining, 1u);
}

TEST(EvalServerTest, RestartedServerServesRecoveredEntries)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     "ttmcas_server_recover_test";
    std::filesystem::remove_all(dir);
    ServeOptions options = quickOptions();
    options.cache.dir = dir.string();

    std::string first;
    {
        EvalServer server(defaultTechnologyDb(), options);
        first = server.handleLine(mcLine("r1"));
        EXPECT_EQ(parseJson(first).at("cache").asString(), "miss");
    }
    {
        EvalServer restarted(defaultTechnologyDb(), options);
        EXPECT_EQ(restarted.recoveredEntries(), 1u);
        const std::string second = restarted.handleLine(mcLine("r1"));
        EXPECT_EQ(parseJson(second).at("cache").asString(), "hit");
        // Byte-identical across the restart: the crash-safety goal.
        EXPECT_EQ(resultPortion(first), resultPortion(second));
    }
    std::filesystem::remove_all(dir);
}

/**
 * A deliberately slow line: 16-die Sobol, uncacheable. At the default
 * (maximum) sample count it runs for seconds.
 */
std::string
fillerLine(double deadline_s, std::size_t samples = 1048576)
{
    std::string line =
        R"({"id":"filler","kind":"sobol_ttm","design":{"dies":[)";
    for (int i = 0; i < 16; ++i) {
        if (i > 0)
            line += ",";
        line += R"({"process":"7nm","total_transistors":2.4e9,)"
                R"("unique_transistors":2e8})";
    }
    line += R"(]},"samples":)" + std::to_string(samples) +
            R"(,"no_cache":true,"deadline_s":)" +
            std::to_string(deadline_s) + "}";
    return line;
}

/**
 * Wait (bounded) for @p predicate to hold; true when it did. The
 * coalescing tests use this to sequence threads deterministically via
 * the server's own counters.
 */
template <typename Predicate>
bool
eventually(Predicate predicate,
           std::chrono::milliseconds budget = std::chrono::seconds(30))
{
    const auto give_up = std::chrono::steady_clock::now() + budget;
    while (!predicate()) {
        if (std::chrono::steady_clock::now() >= give_up)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
}

TEST(EvalServerTest, IdenticalConcurrentRequestsCoalesceOntoOneEval)
{
    // One worker: a slow filler holds the one permit, so the leader
    // waits for it — its flight stays open long enough for the
    // followers to join deterministically.
    ServeOptions options;
    options.workers = 1;
    options.queue_bound = 8;
    options.default_deadline_s = 120.0;
    EvalServer server(defaultTechnologyDb(), options);

    std::thread filler([&] { server.handleLine(fillerLine(3.0)); });
    ASSERT_TRUE(
        eventually([&] { return server.stats().in_flight == 1; }));

    // The leader registers its flight in handleEval before it waits
    // for the permit, so once the leader counter ticks the flight is
    // joinable.
    std::string leader_reply;
    std::thread leader([&] {
        leader_reply = server.handleLine(mcLine("lead"));
    });
    ASSERT_TRUE(eventually(
        [&] { return server.stats().coalesce_leaders == 1; }));

    constexpr int kFollowers = 3;
    std::vector<std::string> follower_replies(kFollowers);
    std::vector<std::thread> followers;
    for (int i = 0; i < kFollowers; ++i)
        followers.emplace_back([&server, &follower_replies, i] {
            // Different ids, same cache key: the id is not part of
            // the content-addressed identity.
            follower_replies[i] = server.handleLine(
                mcLine("dup" + std::to_string(i)));
        });
    ASSERT_TRUE(eventually([&] {
        return server.stats().coalesce_followers == kFollowers;
    }));

    filler.join();
    leader.join();
    for (std::thread& follower : followers)
        follower.join();

    const JsonValue lead_doc = parseJson(leader_reply);
    EXPECT_EQ(lead_doc.at("status").asString(), "ok");
    EXPECT_EQ(lead_doc.at("cache").asString(), "miss");
    EXPECT_EQ(lead_doc.at("id").asString(), "lead");
    for (int i = 0; i < kFollowers; ++i) {
        const JsonValue doc = parseJson(follower_replies[i]);
        EXPECT_EQ(doc.at("status").asString(), "ok");
        EXPECT_EQ(doc.at("cache").asString(), "coalesced");
        // Each follower's reply carries its own id...
        EXPECT_EQ(doc.at("id").asString(), "dup" + std::to_string(i));
        // ...around the leader's byte-identical payload.
        EXPECT_EQ(resultPortion(follower_replies[i]),
                  resultPortion(leader_reply));
    }

    // The acceptance pin: N identical concurrent requests performed
    // exactly one evaluation.
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.coalesce_leaders, 1u);
    EXPECT_EQ(stats.coalesce_followers,
              static_cast<std::uint64_t>(kFollowers));
    EXPECT_EQ(stats.cache.insertions, 1u);
    EXPECT_EQ(stats.coalesce_in_flight, 0u);
}

TEST(EvalServerTest, CoalescedFollowerDeadlineBeatsTheLeader)
{
    ServeOptions options;
    options.workers = 1;
    options.queue_bound = 8;
    options.default_deadline_s = 120.0;
    EvalServer server(defaultTechnologyDb(), options);

    std::thread filler([&] { server.handleLine(fillerLine(3.0)); });
    ASSERT_TRUE(
        eventually([&] { return server.stats().in_flight == 1; }));
    std::string leader_reply;
    std::thread leader([&] {
        leader_reply = server.handleLine(mcLine("lead2"));
    });
    ASSERT_TRUE(eventually(
        [&] { return server.stats().coalesce_leaders == 1; }));

    // A follower with a 50ms budget joins a flight whose leader is
    // stuck behind a multi-second filler: its own deadline MUST win.
    const std::string follower_reply = server.handleLine(
        mcLine("impatient", R"(,"deadline_s":0.05)"));
    const JsonValue doc = parseJson(follower_reply);
    EXPECT_EQ(doc.at("status").asString(), "deadline_exceeded");
    EXPECT_EQ(doc.at("cache").asString(), "coalesced");
    EXPECT_EQ(doc.at("id").asString(), "impatient");
    // The honest minimal payload — never the leader's later result.
    EXPECT_TRUE(doc.at("result").at("coalesced").asBool());
    EXPECT_FALSE(doc.at("result").at("leader_completed").asBool());

    filler.join();
    leader.join();
    // The leader still completed normally afterwards.
    EXPECT_EQ(parseJson(leader_reply).at("status").asString(), "ok");
    EXPECT_GE(server.stats().deadline_exceeded, 1u);
}

TEST(EvalServerTest, DrainCancelsARequestWaitingForAPermit)
{
    // One permit, two admission slots: the second slow request is
    // admitted but waits for the permit the first one holds. A quarter
    // of the maximum samples still runs for over a second, and a
    // cancelled Sobol request holds a buffer per sample, so this keeps
    // the test's memory small.
    ServeOptions options;
    options.workers = 1;
    options.queue_bound = 2;
    options.default_deadline_s = 120.0;
    EvalServer server(defaultTechnologyDb(), options);

    std::vector<std::string> replies(2);
    std::vector<std::thread> clients;
    for (std::size_t i = 0; i < replies.size(); ++i)
        clients.emplace_back([&server, &replies, i] {
            replies[i] = server.handleLine(fillerLine(120.0, 262144));
        });
    // EXPECT (not ASSERT): the drain below must run either way, so the
    // clients are always joined. A token registered after the drain
    // began is cancelled at registration, so there is no race here.
    EXPECT_TRUE(eventually([&] { return server.stats().in_flight == 2; }));

    server.beginDrain(/*cancel_in_flight=*/true);
    EXPECT_TRUE(server.awaitIdle(std::chrono::milliseconds(30000)));
    for (std::thread& client : clients)
        client.join();
    for (const std::string& reply : replies) {
        const JsonValue doc = parseJson(reply);
        EXPECT_EQ(doc.at("status").asString(), "cancelled") << reply;
        EXPECT_EQ(doc.at("cache").asString(), "bypass");
    }
    EXPECT_EQ(server.stats().cancelled, 2u);
}

TEST(EvalServerTest, StatsReplyExposesCoalesceAndCacheBounds)
{
    EvalServer server(defaultTechnologyDb(), quickOptions());
    server.handleLine(mcLine("warm"));
    const JsonValue stats = parseJson(
        server.handleLine(R"({"id":"s1","kind":"stats"})"));
    const JsonValue& coalesce = stats.at("coalesce");
    EXPECT_EQ(coalesce.at("leaders").asNumber(), 1.0);
    EXPECT_EQ(coalesce.at("followers").asNumber(), 0.0);
    EXPECT_EQ(coalesce.at("in_flight").asNumber(), 0.0);
    const JsonValue& cache = stats.at("cache");
    EXPECT_EQ(cache.at("entries").asNumber(), 1.0);
    EXPECT_GT(cache.at("bytes").asNumber(), 0.0);
    EXPECT_EQ(cache.at("insertions").asNumber(), 1.0);
    EXPECT_EQ(cache.at("evictions").asNumber(), 0.0);
    EXPECT_EQ(cache.at("evicted_bytes").asNumber(), 0.0);
    EXPECT_EQ(cache.at("orphans_deleted").asNumber(), 0.0);
}

TEST(EvalServerTest, ConcurrentMixedTrafficProducesOneReplyPerLine)
{
    EvalServer server(defaultTechnologyDb(), quickOptions());
    constexpr int kThreads = 4;
    constexpr int kPerThread = 12;
    std::atomic<int> bad_replies{0};
    std::vector<std::thread> clients;
    clients.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        clients.emplace_back([&server, &bad_replies, t] {
            for (int i = 0; i < kPerThread; ++i) {
                std::string line;
                switch (i % 4) {
                case 0:
                    line = mcLine("t" + std::to_string(t) + "-" +
                                  std::to_string(i));
                    break;
                case 1: line = R"({"kind":"health"})"; break;
                case 2: line = "half a request {"; break;
                default: line = R"({"kind":"stats"})"; break;
                }
                try {
                    const JsonValue reply =
                        parseJson(server.handleLine(line));
                    if (!reply.has("status"))
                        bad_replies.fetch_add(1);
                } catch (const std::exception&) {
                    bad_replies.fetch_add(1);
                }
            }
        });
    }
    for (std::thread& client : clients)
        client.join();
    EXPECT_EQ(bad_replies.load(), 0);
    EXPECT_EQ(server.stats().requests,
              static_cast<std::uint64_t>(kThreads * kPerThread));
}

} // namespace
} // namespace ttmcas::serve
