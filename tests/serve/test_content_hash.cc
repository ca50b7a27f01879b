/**
 * @file
 * Content-addressed cache-key contract: the canonical hash must be
 * deterministic across runs and platforms (cache files persist across
 * restarts), free of field aliasing, and sensitive to every semantic
 * field, and identical between ttm_serve's parsed wire request and
 * the EvalRequest ttm_cli builds from its flags (request defaults plus
 * the mode's fields). The cli_serve_parity test checks the same
 * agreement end to end through the two binaries.
 */

#include <cctype>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/design.hh"
#include "core/market.hh"
#include "opt/chiplet_explorer.hh"
#include "serve/content_hash.hh"
#include "serve/evaluator.hh"
#include "serve/request.hh"

namespace ttmcas::serve {
namespace {

ChipDesign
referenceDesign()
{
    Die die;
    die.name = "soc";
    die.process = "7nm";
    die.total_transistors = 2.4e9;
    die.unique_transistors = 2e8;
    ChipDesign design;
    design.name = "ref";
    design.dies = {die};
    return design;
}

/**
 * The request ttm_cli's batch modes build from their flags: the
 * EvalRequest defaults with design, chip count, seed and kind set.
 */
EvalRequest
cliStyleRequest(RequestKind kind, const ChipDesign& design,
                double n_chips, std::uint64_t seed)
{
    EvalRequest request;
    request.kind = kind;
    request.design = design;
    request.n_chips = n_chips;
    request.seed = seed;
    return request;
}

bool
isHex16(const std::string& text)
{
    if (text.size() != 16)
        return false;
    for (const char c : text) {
        if (!std::isxdigit(static_cast<unsigned char>(c)) ||
            (std::isalpha(static_cast<unsigned char>(c)) &&
             !std::islower(static_cast<unsigned char>(c))))
            return false;
    }
    return true;
}

TEST(ContentHasher, IsDeterministic)
{
    const auto run = [] {
        ContentHasher hasher;
        hasher.tag("a").mix(12.5);
        hasher.tag("b").mix(std::uint64_t{42});
        hasher.tag("c").mix(std::string_view{"text"});
        return hasher.hex();
    };
    EXPECT_EQ(run(), run());
    EXPECT_TRUE(isHex16(run())) << run();
}

TEST(ContentHasher, LengthPrefixPreventsStringAliasing)
{
    // "ab" + "c" must not hash like "a" + "bc": mix() is
    // length-prefixed, so concatenation boundaries are part of the
    // digest.
    ContentHasher split_early;
    split_early.mix(std::string_view{"ab"}).mix(std::string_view{"c"});
    ContentHasher split_late;
    split_late.mix(std::string_view{"a"}).mix(std::string_view{"bc"});
    EXPECT_NE(split_early.digest(), split_late.digest());
}

TEST(ContentHasher, TagsPreventFieldAliasing)
{
    ContentHasher one;
    one.tag("seed").mix(std::uint64_t{1});
    ContentHasher two;
    two.tag("samples").mix(std::uint64_t{1});
    EXPECT_NE(one.digest(), two.digest());
}

TEST(ContentHasher, IntegersHashAsTheirEightBytes)
{
    // mix(uint64) folds the seven zero bytes of a value below 256 into
    // one multiply; the digest must stay plain FNV-1a over the 8
    // little-endian bytes, for those values and every other shape.
    const auto byteByByte = [](std::uint64_t state, std::uint64_t value) {
        for (int shift = 0; shift < 64; shift += 8) {
            state ^= (value >> shift) & 0xffu;
            state *= 0x100000001b3ULL;
        }
        return state;
    };
    std::vector<std::uint64_t> values = {0,
                                         1,
                                         0xff,
                                         0x100,
                                         0x8000000000000000ULL,
                                         0x0100000000000001ULL,
                                         0x00ff00ff00ff0000ULL,
                                         ~std::uint64_t{0}};
    for (std::uint64_t small = 0; small < 300; ++small)
        values.push_back(small);
    std::uint64_t bits = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 4096; ++i) {
        bits ^= bits << 13;
        bits ^= bits >> 7;
        bits ^= bits << 17;
        // Clear a random byte range: zero runs of every length.
        const int from = static_cast<int>(bits % 8);
        const int to = from + static_cast<int>((bits >> 8) % (9 - from));
        std::uint64_t value = bits;
        for (int byte = from; byte < to; ++byte)
            value &= ~(std::uint64_t{0xff} << (8 * byte));
        values.push_back(value);
    }
    ContentHasher hasher;
    std::uint64_t expected = hasher.digest();
    for (const std::uint64_t value : values) {
        hasher.mix(value);
        expected = byteByByte(expected, value);
        ASSERT_EQ(hasher.digest(), expected) << std::hex << value;
    }
}

TEST(ContentHashDesign, EqualDesignsShareTheHash)
{
    EXPECT_EQ(designHash(referenceDesign()), designHash(referenceDesign()));
}

TEST(ContentHashDesign, EverySemanticFieldMovesTheHash)
{
    const std::string base = designHash(referenceDesign());

    ChipDesign renamed = referenceDesign();
    renamed.dies[0].name = "gpu";
    EXPECT_NE(designHash(renamed), base);

    ChipDesign other_node = referenceDesign();
    other_node.dies[0].process = "14nm";
    EXPECT_NE(designHash(other_node), base);

    ChipDesign more_transistors = referenceDesign();
    more_transistors.dies[0].total_transistors += 1.0;
    EXPECT_NE(designHash(more_transistors), base);
}

TEST(ContentHashDesign, AbsentAndZeroOptionalsDiffer)
{
    // yield_override absent vs present-with-0 must not collide: the
    // hash mixes a presence flag before optional values.
    ChipDesign absent = referenceDesign();
    ChipDesign zeroed = referenceDesign();
    zeroed.dies[0].yield_override = 0.0;
    EXPECT_NE(designHash(absent), designHash(zeroed));
}

TEST(ContentHashMarket, MapStateIsOrderIndependent)
{
    MarketConditions forward;
    forward.setCapacityFactor("7nm", 0.5);
    forward.setCapacityFactor("14nm", 0.8);
    MarketConditions reverse;
    reverse.setCapacityFactor("14nm", 0.8);
    reverse.setCapacityFactor("7nm", 0.5);
    EXPECT_EQ(marketHash(forward), marketHash(reverse));

    MarketConditions different;
    different.setCapacityFactor("7nm", 0.6);
    different.setCapacityFactor("14nm", 0.8);
    EXPECT_NE(marketHash(forward), marketHash(different));
}

TEST(EvalCacheKey, HasTheDocumentedThreePartFormat)
{
    EvalKeyParams params;
    params.kernel = "mc_ttm";
    params.seed = 2023;
    params.n_chips = 1e7;
    params.samples = 256;
    params.band = 0.10;
    const std::string key =
        evalCacheKey(referenceDesign(), MarketConditions{}, params);
    ASSERT_EQ(key.size(), 16u + 1 + 16 + 1 + 16);
    EXPECT_EQ(key[16], '-');
    EXPECT_EQ(key[33], '-');
    EXPECT_TRUE(isHex16(key.substr(0, 16)));
    EXPECT_TRUE(isHex16(key.substr(17, 16)));
    EXPECT_TRUE(isHex16(key.substr(34, 16)));
    // The design digest is the first component, so operators can grep
    // a cache directory for every entry of one design.
    EXPECT_EQ(key.substr(0, 16), designHash(referenceDesign()));
}

TEST(EvalCacheKey, KernelParametersAreAllSignificant)
{
    EvalKeyParams base;
    base.kernel = "mc_ttm";
    base.seed = 2023;
    base.n_chips = 1e7;
    base.samples = 256;
    base.band = 0.10;
    const ChipDesign design = referenceDesign();
    const MarketConditions market;
    const std::string key = evalCacheKey(design, market, base);

    EvalKeyParams other = base;
    other.kernel = "mc_cas";
    EXPECT_NE(evalCacheKey(design, market, other), key);
    other = base;
    other.seed += 1;
    EXPECT_NE(evalCacheKey(design, market, other), key);
    other = base;
    other.samples += 1;
    EXPECT_NE(evalCacheKey(design, market, other), key);
    other = base;
    const std::vector<double> grid = {0.5, 1.0};
    other.grid = grid;
    EXPECT_NE(evalCacheKey(design, market, other), key);
}

TEST(EvalCacheKey, CliAndServerPathsProduceIdenticalKeys)
{
    // `ttm_cli --sobol` builds its EvalRequest in code; the server
    // parses one off the wire. Identical evaluation parameters must
    // meet at the same key through both paths, and that key must be
    // the evalCacheKey of the equivalent explicit EvalKeyParams.
    const std::string line =
        R"({"id":"s1","kind":"sobol_ttm","design":{"dies":[)"
        R"({"name":"soc","process":"7nm","total_transistors":2.4e9,)"
        R"("unique_transistors":2e8}]},)"
        R"("n_chips":5e7,"seed":7,"samples":512,"band":0.10})";
    const ParsedRequest parsed = parseRequestLine(line, ServeLimits{});
    ASSERT_TRUE(parsed.ok) << parsed.error.message;
    const std::string server_key = Evaluator::cacheKey(parsed.request);

    EvalRequest cli = cliStyleRequest(RequestKind::SobolTtm,
                                      parsed.request.design, 5e7, 7);
    cli.samples = 512;
    EXPECT_EQ(Evaluator::cacheKey(cli), server_key);

    EvalKeyParams manual;
    manual.kernel = "sobol_ttm";
    manual.seed = 7;
    manual.n_chips = 5e7;
    manual.samples = 512;
    manual.band = 0.10;
    EXPECT_EQ(evalCacheKey(parsed.request.design, parsed.request.market,
                           manual),
              server_key);

    // A different seed on the CLI side must not meet the server key.
    cli.seed = 8;
    EXPECT_NE(Evaluator::cacheKey(cli), server_key);
}

TEST(EvalCacheKey, EnsembleSpecIsPartOfTheKey)
{
    // Satellite contract (PR 8): ensemble replies must never falsely
    // cache-hit across differing disruption regimes, so every spec
    // field has to move the key.
    EvalKeyParams base;
    base.kernel = "ensemble_ttm";
    base.seed = 11;
    base.n_chips = 1e7;
    base.samples = 64;
    base.band = 0.10;
    EnsembleSpec spec = EnsembleSpec::defaultsFor({"7nm"});
    base.ensemble = &spec;
    const ChipDesign design = referenceDesign();
    const MarketConditions market;
    const std::string key = evalCacheKey(design, market, base);

    // No spec at all is a different evaluation.
    EvalKeyParams without = base;
    without.ensemble = nullptr;
    EXPECT_NE(evalCacheKey(design, market, without), key);

    // Horizon, thresholds, Markov entries, and Hawkes rates each
    // perturb the digest.
    EnsembleSpec changed = spec;
    changed.horizon_weeks += 1.0;
    EvalKeyParams other = base;
    other.ensemble = &changed;
    EXPECT_NE(evalCacheKey(design, market, other), key);

    changed = spec;
    changed.outage_label_fraction += 0.01;
    EXPECT_NE(evalCacheKey(design, market, other), key);

    changed = spec;
    changed.nodes.at("7nm").markov.transition[0][0] -= 0.01;
    changed.nodes.at("7nm").markov.transition[0][1] += 0.01;
    EXPECT_NE(evalCacheKey(design, market, other), key);

    changed = spec;
    changed.nodes.at("7nm").hawkes.mu += 0.005;
    EXPECT_NE(evalCacheKey(design, market, other), key);

    changed = spec;
    changed.nodes.at("7nm").markov.recovery_ramp_steps += 1;
    EXPECT_NE(evalCacheKey(design, market, other), key);

    // A second node with identical params is still a different spec.
    changed = spec;
    changed.nodes.emplace("5nm", changed.nodes.at("7nm"));
    EXPECT_NE(evalCacheKey(design, market, other), key);
}

TEST(EvalCacheKey, EnsembleCliAndServerPathsProduceIdenticalKeys)
{
    // `ttm_cli --ensemble` without --ensemble-config fills in
    // EnsembleSpec::defaultsFor() over the design's processes, as the
    // parser does for a request that omits "ensemble"; both must reach
    // the same key.
    const std::string line =
        R"({"id":"e1","kind":"ensemble_ttm","design":{"dies":[)"
        R"({"name":"soc","process":"7nm","total_transistors":2.4e9,)"
        R"("unique_transistors":2e8}]},)"
        R"("n_chips":5e7,"seed":7,"samples":64})";
    const ParsedRequest parsed = parseRequestLine(line, ServeLimits{});
    ASSERT_TRUE(parsed.ok) << parsed.error.message;
    const std::string server_key = Evaluator::cacheKey(parsed.request);

    EvalRequest cli = cliStyleRequest(RequestKind::EnsembleTtm,
                                      parsed.request.design, 5e7, 7);
    cli.samples = 64;
    cli.ensemble = EnsembleSpec::defaultsFor(
        designProcesses(parsed.request.design));
    EXPECT_EQ(Evaluator::cacheKey(cli), server_key);

    EnsembleSpec spec = EnsembleSpec::defaultsFor({"7nm"});
    EvalKeyParams manual;
    manual.kernel = "ensemble_ttm";
    manual.seed = 7;
    manual.n_chips = 5e7;
    manual.samples = 64;
    manual.band = 0.10;
    manual.ensemble = &spec;
    EXPECT_EQ(evalCacheKey(parsed.request.design, parsed.request.market,
                           manual),
              server_key);

    // A different path count on the CLI side must not meet it.
    cli.samples = 65;
    EXPECT_NE(Evaluator::cacheKey(cli), server_key);
}

TEST(EvalCacheKey, ChipletSpecIsPartOfTheKey)
{
    // Same no-false-cache-hit contract for chiplet_pareto: every
    // semantic field of the sweep spec must move the key.
    EvalKeyParams base;
    base.kernel = kChipletKernelName;
    base.seed = 11;
    base.n_chips = 1e7;
    base.samples = 256;
    base.band = 0.10;
    ChipletSweepSpec spec = ChipletSweepSpec::defaultsFor({"7nm"});
    base.chiplet = &spec;
    const ChipDesign design = referenceDesign();
    const MarketConditions market;
    const std::string key = evalCacheKey(design, market, base);

    // No spec at all is a different evaluation.
    EvalKeyParams without = base;
    without.chiplet = nullptr;
    EXPECT_NE(evalCacheKey(design, market, without), key);

    EvalKeyParams other = base;
    ChipletSweepSpec changed = spec;
    other.chiplet = &changed;

    changed = spec;
    changed.partitions.push_back(8);
    EXPECT_NE(evalCacheKey(design, market, other), key);

    changed = spec;
    changed.nodes.push_back("5nm");
    EXPECT_NE(evalCacheKey(design, market, other), key);

    changed = spec;
    changed.redundancy.push_back(2);
    EXPECT_NE(evalCacheKey(design, market, other), key);

    changed = spec;
    changed.split_fractions = {0.6, 1.0};
    changed.secondary_node = "5nm";
    EXPECT_NE(evalCacheKey(design, market, other), key);

    changed = spec;
    changed.secondary_node = "5nm";
    EXPECT_NE(evalCacheKey(design, market, other), key);

    changed = spec;
    changed.cost.tier = PackagingTier::kSiliconInterposer;
    EXPECT_NE(evalCacheKey(design, market, other), key);

    changed = spec;
    changed.cost.kgd_test_cost_per_die += 0.25;
    EXPECT_NE(evalCacheKey(design, market, other), key);

    changed = spec;
    changed.cost.kgd_test_cost_per_mm2 += 0.01;
    EXPECT_NE(evalCacheKey(design, market, other), key);

    changed = spec;
    changed.cost.field_failure_prob += 0.005;
    EXPECT_NE(evalCacheKey(design, market, other), key);

    changed = spec;
    changed.cost.ip_nre_per_type += 1.0e5;
    EXPECT_NE(evalCacheKey(design, market, other), key);

    changed = spec;
    changed.cost.redundancy_nre_per_spare += 1.0e4;
    EXPECT_NE(evalCacheKey(design, market, other), key);

    // A tier override with non-default constants perturbs the digest…
    changed = spec;
    PackagingTierParams tier = defaultTierParams(changed.cost.tier);
    tier.bond_yield = 0.97;
    changed.cost.tier_override = tier;
    EXPECT_NE(evalCacheKey(design, market, other), key);

    // …but an override *equal* to the tier defaults keys identically:
    // the digest hashes resolvedTier() constants, and evaluation
    // cannot tell the two apart.
    changed = spec;
    changed.cost.tier_override = defaultTierParams(changed.cost.tier);
    EXPECT_EQ(evalCacheKey(design, market, other), key);
}

TEST(EvalCacheKey, ChipletCliAndServerPathsProduceIdenticalKeys)
{
    // `ttm_cli --chiplet-pareto` without --chiplet-config fills in
    // ChipletSweepSpec::defaultsFor() and keeps the request defaults
    // samples=256, band=0.10, as the parser does for a request that
    // omits "chiplet"; both must reach the same key.
    const std::string line =
        R"({"id":"c1","kind":"chiplet_pareto","design":{"dies":[)"
        R"({"name":"soc","process":"7nm","total_transistors":2.4e9,)"
        R"("unique_transistors":2e8}]},)"
        R"("n_chips":5e7,"seed":7})";
    const ParsedRequest parsed = parseRequestLine(line, ServeLimits{});
    ASSERT_TRUE(parsed.ok) << parsed.error.message;
    const std::string server_key = Evaluator::cacheKey(parsed.request);

    EvalRequest cli = cliStyleRequest(RequestKind::ChipletPareto,
                                      parsed.request.design, 5e7, 7);
    cli.chiplet = ChipletSweepSpec::defaultsFor(
        designProcesses(parsed.request.design));
    EXPECT_EQ(Evaluator::cacheKey(cli), server_key);

    ChipletSweepSpec spec = ChipletSweepSpec::defaultsFor({"7nm"});
    EvalKeyParams manual;
    manual.kernel = kChipletKernelName;
    manual.seed = 7;
    manual.n_chips = 5e7;
    manual.samples = 256;
    manual.band = 0.10;
    manual.chiplet = &spec;
    EXPECT_EQ(evalCacheKey(parsed.request.design, parsed.request.market,
                           manual),
              server_key);

    // A different chip count on the CLI side must not meet it.
    cli.n_chips = 6e7;
    EXPECT_NE(Evaluator::cacheKey(cli), server_key);
}

} // namespace
} // namespace ttmcas::serve
