/**
 * @file
 * Heap-allocation budgets of the ttm_serve request path: parse one
 * request line, derive its cache key, look it up in the result cache
 * and render the reply; the whole of one served miss; and the scalar
 * TtmModel::evaluate and CasModel::cas under them. A small request
 * spends more of its time here than in the model, and the allocator
 * is most of that cost, so each stage's count is pinned. A change that
 * adds an allocation to the hot path fails here; one that removes some
 * should lower the budget.
 *
 * The binary replaces the global operator new with a counting one, so
 * it is its own executable. Sanitizer runtimes bring their own
 * operator new; under them the budgets skip.
 */

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "core/cas.hh"
#include "core/reference_designs.hh"
#include "core/ttm_model.hh"
#include "serve/evaluator.hh"
#include "serve/request.hh"
#include "serve/result_cache.hh"
#include "serve/server.hh"
#include "tech/default_dataset.hh"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define TTMCAS_ALLOC_BUDGETS 0
#else
#define TTMCAS_ALLOC_BUDGETS 1
#endif

namespace {

std::atomic<std::size_t> g_allocations{0};

} // namespace

#if TTMCAS_ALLOC_BUDGETS
void*
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* block = std::malloc(size == 0 ? 1 : size))
        return block;
    throw std::bad_alloc();
}

void
operator delete(void* block) noexcept
{
    std::free(block);
}

void
operator delete(void* block, std::size_t) noexcept
{
    std::free(block);
}
#endif

namespace ttmcas::serve {
namespace {

// Lines of the shapes perfbench's serve_hot_small set repeats: a
// 32-sample mc_ttm of the A11 at 7nm, a 12-point capacity sweep of the
// same design, and a 32-sample mc_ttm of the two-die Zen 2.
const char* const kMcTtmLine =
    R"({"id":"h0","kind":"mc_ttm","design":{"name":"A11@7nm",)"
    R"("design_weeks":2,"dies":[{"name":"a11-soc","process":"7nm",)"
    R"("total_transistors":4300000000,"unique_transistors":514000000,)"
    R"("count_per_package":1}]},"market":{"global_capacity":)"
    R"(0.75910770895556512},"n_chips":10000000,"seed":4126629048430096,)"
    R"("samples":32})";
const char* const kSweepLine =
    R"({"id":"h2","kind":"capacity_sweep","design":{"name":"A11@7nm",)"
    R"("design_weeks":2,"dies":[{"name":"a11-soc","process":"7nm",)"
    R"("total_transistors":4300000000,"unique_transistors":514000000,)"
    R"("count_per_package":1}]},"market":{"global_capacity":)"
    R"(0.84525759042045689},"n_chips":10000000,"seed":3565910355235030,)"
    R"("grid":[0.3125,0.375,0.4375,0.5,0.5625,0.625,0.6875,0.75,0.8125,)"
    R"(0.875,0.9375,1]})";
const char* const kZen2Line =
    R"({"id":"h9","kind":"mc_ttm","design":{"name":"Zen 2",)"
    R"("design_weeks":0,"dies":[{"name":"compute","process":"7nm",)"
    R"("total_transistors":3800000000,"unique_transistors":475000000,)"
    R"("count_per_package":2,"area_mm2":74},{"name":"io",)"
    R"("process":"12nm","total_transistors":2100000000,)"
    R"("unique_transistors":523000000,"count_per_package":1,)"
    R"("area_mm2":125}]},"market":{"global_capacity":)"
    R"(0.73089112015968738},"n_chips":10000000,"seed":2667570861281090,)"
    R"("samples":32})";

/** Heap allocations made by one call of @p run. */
template <typename Run>
std::size_t
allocationsOf(Run&& run)
{
    const std::size_t before = g_allocations.load();
    run();
    return g_allocations.load() - before;
}

/** Heap allocations of @p run's second call: the first may pay setup. */
template <typename Run>
std::size_t
secondCallAllocations(Run&& run)
{
    run();
    return allocationsOf(run);
}

class AllocBudget : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        if (!TTMCAS_ALLOC_BUDGETS)
            GTEST_SKIP() << "the sanitizer runtime owns operator new, so "
                            "the counting allocator is not installed";
    }

    /**
     * parseRequestLine(@p line)'s allocations, the result included, in
     * a second call: the first may pay one-time setup.
     */
    static std::size_t parseAllocations(const std::string& line)
    {
        (void)parseRequestLine(line, ServeLimits{});
        return allocationsOf([&] {
            const ParsedRequest parsed =
                parseRequestLine(line, ServeLimits{});
            ASSERT_TRUE(parsed.ok) << parsed.error.message;
        });
    }
};

TEST_F(AllocBudget, ParseMcTtmLine)
{
    EXPECT_LE(parseAllocations(kMcTtmLine), 10u);
}

TEST_F(AllocBudget, ParseCapacitySweepLine)
{
    EXPECT_LE(parseAllocations(kSweepLine), 12u);
}

TEST_F(AllocBudget, ParseTwoDieZen2Line)
{
    EXPECT_LE(parseAllocations(kZen2Line), 14u);
}

TEST_F(AllocBudget, CacheKeyIsOneString)
{
    const ParsedRequest parsed = parseRequestLine(kSweepLine, ServeLimits{});
    ASSERT_TRUE(parsed.ok) << parsed.error.message;
    EXPECT_EQ(allocationsOf([&] {
                  const std::string key = Evaluator::cacheKey(parsed.request);
                  EXPECT_EQ(key.size(), 50u);
              }),
              1u);
}

TEST_F(AllocBudget, ResultReplyIsOneString)
{
    const ParsedRequest parsed = parseRequestLine(kMcTtmLine, ServeLimits{});
    ASSERT_TRUE(parsed.ok) << parsed.error.message;
    const std::string key = Evaluator::cacheKey(parsed.request);
    const std::string payload(600, ' ');
    EXPECT_EQ(allocationsOf([&] {
                  const std::string reply =
                      resultReply(parsed.request.id, parsed.request.kind,
                                  "ok", "hit", key, payload);
                  EXPECT_GT(reply.size(), payload.size());
              }),
              1u);
}

TEST_F(AllocBudget, CacheHitCopiesOnlyThePayload)
{
    ResultCache cache(ResultCacheOptions{});
    const std::string key(50, 'k');
    const std::string payload(600, 'p');
    cache.insert(key, "mc_ttm", payload);
    EXPECT_EQ(allocationsOf([&] {
                  EXPECT_TRUE(cache.lookup(key).has_value());
              }),
              1u);
}

TEST_F(AllocBudget, ServedMissEvaluatesOnTheCallingThread)
{
    // A no_cache line misses on every call: parse, key, admission,
    // evaluation and reply, with nothing handed to another thread.
    std::string line = kMcTtmLine;
    line.insert(line.size() - 1, R"(,"no_cache":true)");
    EvalServer server(defaultTechnologyDb(), ServeOptions{});
    // The first call pays this thread's one-time setup.
    (void)server.handleLine(line);
    EXPECT_LE(allocationsOf([&] {
                  const std::string reply = server.handleLine(line);
                  EXPECT_NE(reply.find(R"("cache":"bypass")"),
                            std::string::npos)
                      << reply;
              }),
              26u);
}

// The scalar model chain that every kernel fallback, every served
// sweep's failed point and the timeline model run. Its allocations are
// the per-call processNodes() vector and the die and process names
// copied into the result.
TEST_F(AllocBudget, ScalarTtmEvaluateA11)
{
    const TtmModel model(defaultTechnologyDb());
    const ChipDesign design = designs::a11("7nm");
    EXPECT_LE(secondCallAllocations([&] {
                  EXPECT_GT(model.evaluate(design, 10e6).total().value(), 0.0);
              }),
              5u);
}

TEST_F(AllocBudget, ScalarTtmEvaluateZen2)
{
    const TtmModel model(defaultTechnologyDb());
    const ChipDesign design = designs::zen2(designs::Zen2Config::Original);
    EXPECT_LE(secondCallAllocations([&] {
                  EXPECT_GT(model.evaluate(design, 10e6).total().value(), 0.0);
              }),
              8u);
}

TEST_F(AllocBudget, ScalarCasA11)
{
    const CasModel model{TtmModel(defaultTechnologyDb())};
    const ChipDesign design = designs::a11("7nm");
    EXPECT_LE(secondCallAllocations([&] {
                  EXPECT_GT(model.cas(design, 10e6), 0.0);
              }),
              5u);
}

TEST_F(AllocBudget, ScalarCasZen2)
{
    const CasModel model{TtmModel(defaultTechnologyDb())};
    const ChipDesign design = designs::zen2(designs::Zen2Config::Original);
    EXPECT_LE(secondCallAllocations([&] {
                  EXPECT_GT(model.cas(design, 10e6), 0.0);
              }),
              8u);
}

} // namespace
} // namespace ttmcas::serve
