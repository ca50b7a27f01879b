#include "serve/content_hash.hh"

#include <bit>

namespace ttmcas::serve {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/** kFnvPrime^8 (mod 2^64): eight FNV steps over zero bytes. */
constexpr std::uint64_t kFnvPrime8 = [] {
    std::uint64_t power = 1;
    for (int k = 0; k < 8; ++k)
        power *= kFnvPrime;
    return power;
}();

} // namespace

ContentHasher&
ContentHasher::mix(std::string_view bytes)
{
    // Length-prefix the chunk so "ab" + "c" != "a" + "bc".
    mix(static_cast<std::uint64_t>(bytes.size()));
    for (const char c : bytes) {
        _state ^= static_cast<unsigned char>(c);
        _state *= kFnvPrime;
    }
    return *this;
}

ContentHasher&
ContentHasher::mix(double value)
{
    return mix(std::bit_cast<std::uint64_t>(value));
}

ContentHasher&
ContentHasher::mix(std::uint64_t value)
{
    // FNV-1a over the 8 bytes, low byte first. XOR with a zero byte
    // changes nothing, so when only the low byte is set (every length
    // prefix, most counts) the eight steps are one XOR and one
    // multiply by kFnvPrime^8: the same digest from one multiply.
    if (value <= 0xffu) {
        _state = (_state ^ value) * kFnvPrime8;
        return *this;
    }
    for (int shift = 0; shift < 64; shift += 8) {
        _state ^= (value >> shift) & 0xffu;
        _state *= kFnvPrime;
    }
    return *this;
}

ContentHasher&
ContentHasher::mix(bool present)
{
    _state ^= present ? 0x01u : 0x00u;
    _state *= kFnvPrime;
    return *this;
}

ContentHasher&
ContentHasher::tag(std::string_view name)
{
    return mix(name).mix(std::string_view("="));
}

std::string
ContentHasher::hex() const
{
    std::string out;
    appendHex(out);
    return out;
}

void
ContentHasher::appendHex(std::string& out) const
{
    static constexpr char kDigits[] = "0123456789abcdef";
    char buf[16];
    for (int i = 0; i < 16; ++i)
        buf[i] = kDigits[(_state >> (60 - 4 * i)) & 0xfu];
    out.append(buf, sizeof(buf));
}

namespace {

ContentHasher
designHasher(const ChipDesign& design)
{
    ContentHasher hasher;
    hasher.tag("design").mix(design.name);
    hasher.tag("design_weeks").mix(design.design_time.value());
    hasher.tag("dies").mix(static_cast<std::uint64_t>(design.dies.size()));
    for (const Die& die : design.dies) {
        hasher.tag("die").mix(die.name);
        hasher.tag("process").mix(die.process);
        hasher.tag("ntt").mix(die.total_transistors);
        hasher.tag("nut").mix(die.unique_transistors);
        hasher.tag("count").mix(die.count_per_package);
        hasher.tag("area").mix(die.area_override.has_value());
        if (die.area_override)
            hasher.mix(die.area_override->value());
        hasher.tag("min_area").mix(die.min_area.value());
        hasher.tag("yield").mix(die.yield_override.has_value());
        if (die.yield_override)
            hasher.mix(*die.yield_override);
    }
    return hasher;
}

ContentHasher
marketHasher(const MarketConditions& market)
{
    ContentHasher hasher;
    hasher.tag("market");
    hasher.tag("global").mix(market.globalCapacityFactor());
    hasher.tag("capacity").mix(
        static_cast<std::uint64_t>(market.capacityFactors().size()));
    for (const auto& [node, factor] : market.capacityFactors())
        hasher.mix(node).mix(factor);
    hasher.tag("queue_weeks").mix(
        static_cast<std::uint64_t>(market.queueWeeksByNode().size()));
    for (const auto& [node, weeks] : market.queueWeeksByNode())
        hasher.mix(node).mix(weeks.value());
    hasher.tag("queue_wafers").mix(
        static_cast<std::uint64_t>(market.queueWafersByNode().size()));
    for (const auto& [node, wafers] : market.queueWafersByNode())
        hasher.mix(node).mix(wafers.value());
    return hasher;
}

} // namespace

std::string
designHash(const ChipDesign& design)
{
    return designHasher(design).hex();
}

std::string
marketHash(const MarketConditions& market)
{
    return marketHasher(market).hex();
}

void
mixEnsembleSpec(ContentHasher& hasher, const EnsembleSpec& spec)
{
    hasher.tag("ensemble");
    hasher.tag("horizon").mix(spec.horizon_weeks);
    hasher.tag("step").mix(spec.step_weeks);
    hasher.tag("outage_frac").mix(spec.outage_label_fraction);
    hasher.tag("constrained_frac").mix(spec.constrained_label_fraction);
    hasher.tag("nodes").mix(static_cast<std::uint64_t>(spec.nodes.size()));
    for (const auto& [node, params] : spec.nodes) {
        hasher.tag("node").mix(node);
        const MarkovRegimeParams& markov = params.markov;
        hasher.tag("transition");
        for (const auto& row : markov.transition)
            for (const double p : row)
                hasher.mix(p);
        hasher.tag("capacity");
        for (const double factor : markov.capacity)
            hasher.mix(factor);
        hasher.tag("ramp_weeks").mix(markov.recovery_ramp_weeks);
        hasher.tag("ramp_steps").mix(
            static_cast<std::uint64_t>(markov.recovery_ramp_steps));
        hasher.tag("initial").mix(
            static_cast<std::uint64_t>(markov.initial));
        const HawkesParams& hawkes = params.hawkes;
        hasher.tag("mu").mix(hawkes.mu);
        hasher.tag("alpha").mix(hawkes.alpha);
        hasher.tag("beta").mix(hawkes.beta);
        hasher.tag("depth_min").mix(hawkes.shock_depth_min);
        hasher.tag("depth_max").mix(hawkes.shock_depth_max);
        hasher.tag("shock_weeks").mix(hawkes.shock_weeks);
    }
}

void
mixChipletSpec(ContentHasher& hasher, const ChipletSweepSpec& spec)
{
    hasher.tag("chiplet");
    hasher.tag("partitions").mix(
        static_cast<std::uint64_t>(spec.partitions.size()));
    for (const int count : spec.partitions)
        hasher.mix(static_cast<std::uint64_t>(count));
    hasher.tag("nodes").mix(
        static_cast<std::uint64_t>(spec.nodes.size()));
    for (const std::string& node : spec.nodes)
        hasher.mix(node);
    hasher.tag("redundancy").mix(
        static_cast<std::uint64_t>(spec.redundancy.size()));
    for (const int spares : spec.redundancy)
        hasher.mix(static_cast<std::uint64_t>(spares));
    hasher.tag("split_fractions").mix(
        static_cast<std::uint64_t>(spec.split_fractions.size()));
    for (const double fraction : spec.split_fractions)
        hasher.mix(fraction);
    hasher.tag("secondary").mix(spec.secondary_node);
    const ChipletCostParams& cost = spec.cost;
    hasher.tag("tier").mix(static_cast<std::uint64_t>(cost.tier));
    // The *resolved* tier constants feed the digest: an explicit
    // override equal to the defaults keys identically to no override,
    // because evaluation cannot tell them apart either.
    const PackagingTierParams tier = cost.resolvedTier();
    hasher.tag("cost_per_mm2").mix(tier.cost_per_mm2);
    hasher.tag("fixed_cost").mix(tier.fixed_cost);
    hasher.tag("bond_cost").mix(tier.bond_cost_per_chiplet);
    hasher.tag("bond_yield").mix(tier.bond_yield);
    hasher.tag("design_nre").mix(tier.design_nre);
    hasher.tag("kgd_per_die").mix(cost.kgd_test_cost_per_die);
    hasher.tag("kgd_per_mm2").mix(cost.kgd_test_cost_per_mm2);
    hasher.tag("field_fail").mix(cost.field_failure_prob);
    hasher.tag("ip_nre").mix(cost.ip_nre_per_type);
    hasher.tag("redundancy_nre").mix(cost.redundancy_nre_per_spare);
}

std::string
evalCacheKey(const ChipDesign& design, const MarketConditions& market,
             const EvalKeyParams& params)
{
    ContentHasher hasher;
    hasher.tag("kernel").mix(params.kernel);
    hasher.tag("seed").mix(params.seed);
    hasher.tag("n_chips").mix(params.n_chips);
    hasher.tag("samples").mix(params.samples);
    hasher.tag("band").mix(params.band);
    hasher.tag("grid").mix(static_cast<std::uint64_t>(params.grid.size()));
    for (const double value : params.grid)
        hasher.mix(value);
    // Presence-flagged so pre-ensemble keys keep their historic values
    // only when no spec is attached; any attached spec perturbs the key.
    hasher.tag("has_ensemble").mix(params.ensemble != nullptr);
    if (params.ensemble != nullptr)
        mixEnsembleSpec(hasher, *params.ensemble);
    hasher.tag("has_chiplet").mix(params.chiplet != nullptr);
    if (params.chiplet != nullptr)
        mixChipletSpec(hasher, *params.chiplet);
    // The payloads of these kinds carry CAS, whose Eq. 8 slope is now
    // exact; a --cache-dir entry holding the old central-difference
    // slope keys differently and is never served.
    if (params.kernel == "mc_cas" || params.kernel == "capacity_sweep" ||
        params.kernel == "ensemble_ttm" ||
        params.kernel == "chiplet_pareto")
        hasher.tag("cas_closed_form");
    std::string key;
    key.reserve(3 * 16 + 2);
    designHasher(design).appendHex(key);
    key += '-';
    marketHasher(market).appendHex(key);
    key += '-';
    hasher.appendHex(key);
    return key;
}

} // namespace ttmcas::serve
