#include "generator.hh"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <stdexcept>

#include "core/reference_designs.hh"
#include "support/json.hh"

namespace perfbench {

namespace {

using ttmcas::JsonWriter;

// Draw domains: each property of a request takes its own stream.
enum Domain : std::uint64_t
{
    kKind = 1,
    kDesign,
    kSize,
    kChips,
    kCapacity,
    kSeed,
    kHotPick,
    kHotRank,
    kHotFresh,
};

/** Hot-set size and the share of measured requests that repeat it. */
constexpr std::size_t kHotSetSize = 256;
constexpr double kHotShare = 0.9;
/** Samples of each fresh serve_hot_small miss. */
constexpr std::uint64_t kFreshSamples = 16;

/**
 * serve_cold_mix sizes. Each kind's size range is set so the six kinds
 * cost about the same evaluation time per request (0.9-1.7 ms in the
 * traced replay's per-kind spans), so no single kind dominates wall
 * time.
 */
struct KindSize
{
    const char* kind;
    std::uint64_t low;
    std::uint64_t high;
};
constexpr KindSize kColdKinds[] = {
    {"mc_ttm", 1024, 3072},        // samples
    {"mc_cas", 1280, 3840},        // samples
    {"sobol_ttm", 192, 576},       // base samples
    {"capacity_sweep", 100, 300},  // grid points
    {"ensemble_ttm", 40, 120},     // scenario paths
    {"chiplet_pareto", 4, 6},      // partition counts in the sweep
};

/** chiplet_pareto axes besides the partition counts. */
constexpr int kChipletPartitions[] = {1, 2, 3, 4, 6, 8};
constexpr const char* kChipletNodes[] = {"7nm", "12nm", "14nm"};
constexpr int kChipletRedundancy[] = {0, 1, 2, 3};
constexpr double kChipletSplits[] = {1.0, 0.8, 0.6};

double
unit(std::uint64_t bits)
{
    return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

std::uint64_t
between(std::uint64_t bits, std::uint64_t low, std::uint64_t high)
{
    return low + bits % (high - low + 1);
}

std::string
designJson(const ttmcas::ChipDesign& design)
{
    JsonWriter json;
    json.beginObject();
    json.field("name", design.name);
    json.field("design_weeks", design.design_time.value());
    json.key("dies");
    json.beginArray();
    for (const ttmcas::Die& die : design.dies) {
        json.beginObject();
        json.field("name", die.name);
        json.field("process", die.process);
        json.field("total_transistors", die.total_transistors);
        json.field("unique_transistors", die.unique_transistors);
        json.field("count_per_package", die.count_per_package);
        if (die.area_override)
            json.field("area_mm2", die.area_override->value());
        if (die.min_area.value() > 0.0)
            json.field("min_area_mm2", die.min_area.value());
        if (die.yield_override)
            json.field("yield_override", *die.yield_override);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return json.str();
}

/** "r<index>" / "h<rank>"; appending avoids a GCC 12 -Wrestrict false positive. */
std::string
idOf(char prefix, std::uint64_t index)
{
    std::string id(1, prefix);
    id += std::to_string(index);
    return id;
}

/** A 52-bit request seed: fits the wire's exact-integer range. */
std::uint64_t
requestSeed(std::uint64_t bits)
{
    return bits & ((std::uint64_t{1} << 52) - 1);
}

} // namespace

const char*
workloadName(Workload workload)
{
    switch (workload) {
    case Workload::ServeColdMix: return "serve_cold_mix";
    case Workload::ServeHotSmall: return "serve_hot_small";
    case Workload::CacheStudy: return "cache_study";
    }
    return "unknown";
}

bool
parseWorkload(const std::string& name, Workload& workload)
{
    for (const Workload candidate :
         {Workload::ServeColdMix, Workload::ServeHotSmall,
          Workload::CacheStudy}) {
        if (name == workloadName(candidate)) {
            workload = candidate;
            return true;
        }
    }
    return false;
}

std::uint64_t
mixBits(std::uint64_t seed, std::uint64_t domain, std::uint64_t index)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + domain * 0xbf58476d1ce4e5b9ULL +
                      index * 0x94d049bb133111ebULL + 0x2545f4914f6cdd1dULL;
    for (int round = 0; round < 2; ++round) {
        z += 0x9e3779b97f4a7c15ULL;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        z ^= z >> 31;
    }
    return z;
}

RequestGenerator::RequestGenerator(Workload workload, std::uint64_t seed)
    : _workload(workload), _seed(seed)
{
    if (workload == Workload::CacheStudy)
        throw std::invalid_argument("cache_study has no request stream");
    using namespace ttmcas::designs;
    for (const char* process : {"7nm", "14nm", "28nm"})
        _designs.push_back(designJson(a11(process)));
    for (const Zen2Config config :
         {Zen2Config::Original, Zen2Config::Chiplet7nm})
        _designs.push_back(designJson(zen2(config)));
    for (const char* process : {"28nm", "40nm", "65nm"})
        _designs.push_back(designJson(ravenMulticore(process)));

    if (workload == Workload::ServeHotSmall) {
        double total = 0.0;
        for (std::size_t rank = 1; rank <= kHotSetSize; ++rank) {
            total += 1.0 / static_cast<double>(rank);
            _zipf_cdf.push_back(total);
        }
        for (double& weight : _zipf_cdf)
            weight /= total;
        for (std::uint64_t rank = 0; rank < kHotSetSize; ++rank)
            _hot.push_back(hotRequest(rank));
    }
}

GeneratedRequest
RequestGenerator::request(std::uint64_t index) const
{
    if (_workload == Workload::ServeColdMix)
        return coldMix(index);
    if (unit(mixBits(_seed, kHotPick, index)) >= kHotShare)
        return freshSmall(index);
    const double u = unit(mixBits(_seed, kHotRank, index));
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(_zipf_cdf.begin(), _zipf_cdf.end(), u) -
        _zipf_cdf.begin());
    GeneratedRequest request = _hot[std::min(rank, _hot.size() - 1)];
    // Same evaluation (and cache key) as the hot-set entry; only the
    // echoed id differs.
    const std::string old_id = "\"id\":\"" + request.id + "\"";
    request.index = index;
    request.id = idOf('r', index);
    request.line.replace(request.line.find(old_id), old_id.size(),
                         "\"id\":\"" + request.id + "\"");
    return request;
}

namespace {

/** Common head of every request line: id, kind, design, market. */
void
writeHead(JsonWriter& json, const std::string& id, const char* kind,
          const std::string& design, double n_chips, double capacity,
          std::uint64_t seed)
{
    json.beginObject();
    json.field("id", id);
    json.field("kind", kind);
    json.key("design");
    json.raw(design);
    json.key("market");
    json.beginObject();
    json.field("global_capacity", capacity);
    json.endObject();
    json.field("n_chips", n_chips);
    json.field("seed", seed);
}

} // namespace

GeneratedRequest
RequestGenerator::coldMix(std::uint64_t index) const
{
    // Every block of six consecutive requests holds each kind once, in
    // a seed-drawn order, so any stretch of the stream has the same mix.
    constexpr std::size_t kinds = std::size(kColdKinds);
    std::size_t order[kinds];
    for (std::size_t i = 0; i < kinds; ++i)
        order[i] = i;
    const std::uint64_t block = index / kinds;
    for (std::size_t i = kinds - 1; i > 0; --i)
        std::swap(order[i], order[mixBits(_seed, kKind, block * kinds + i) %
                                  (i + 1)]);
    const KindSize& pick = kColdKinds[order[index % kinds]];
    const std::string& design =
        _designs[mixBits(_seed, kDesign, index) % _designs.size()];
    const double n_chips =
        1e6 * std::pow(100.0, unit(mixBits(_seed, kChips, index)));
    const double capacity = 0.6 + 0.4 * unit(mixBits(_seed, kCapacity, index));
    const std::uint64_t size =
        between(mixBits(_seed, kSize, index), pick.low, pick.high);

    GeneratedRequest request;
    request.index = index;
    request.id = idOf('r', index);
    request.kind = pick.kind;
    request.size = size;
    JsonWriter json;
    writeHead(json, request.id, pick.kind, design, n_chips,
              capacity, requestSeed(mixBits(_seed, kSeed, index)));
    if (request.kind == "capacity_sweep") {
        json.key("grid");
        json.beginArray();
        for (std::uint64_t i = 0; i < size; ++i)
            json.value(0.2 + 0.8 * static_cast<double>(i + 1) /
                                 static_cast<double>(size));
        json.endArray();
    } else if (request.kind == "chiplet_pareto") {
        json.key("chiplet");
        json.beginObject();
        json.key("partitions");
        json.beginArray();
        for (std::uint64_t i = 0; i < size; ++i)
            json.value(static_cast<double>(kChipletPartitions[i]));
        json.endArray();
        json.key("nodes");
        json.beginArray();
        for (const char* node : kChipletNodes)
            json.value(node);
        json.endArray();
        json.key("redundancy");
        json.beginArray();
        for (const int spares : kChipletRedundancy)
            json.value(static_cast<double>(spares));
        json.endArray();
        json.key("split_fractions");
        json.beginArray();
        for (const double fraction : kChipletSplits)
            json.value(fraction);
        json.endArray();
        json.field("secondary_node", "14nm");
        json.endObject();
        // The check compares failures.points with the candidate count.
        request.size = size * std::size(kChipletNodes) *
                       std::size(kChipletRedundancy) *
                       std::size(kChipletSplits);
    } else {
        json.field("samples", size);
    }
    json.endObject();
    request.line = json.str();
    return request;
}

GeneratedRequest
RequestGenerator::freshSmall(std::uint64_t index) const
{
    GeneratedRequest request;
    request.index = index;
    request.id = idOf('r', index);
    request.kind = "mc_ttm";
    request.size = kFreshSamples;
    JsonWriter json;
    writeHead(json, request.id, "mc_ttm",
              _designs[mixBits(_seed, kDesign, index) % _designs.size()],
              1e7, 1.0, requestSeed(mixBits(_seed, kHotFresh, index)));
    json.field("samples", kFreshSamples);
    json.endObject();
    request.line = json.str();
    return request;
}

GeneratedRequest
RequestGenerator::hotRequest(std::uint64_t rank) const
{
    // Kinds and designs cycle with the Zipf rank and sizes are fixed per
    // kind, so every seed's hot set costs the same to serve; the seed
    // picks the markets and request seeds, hence the cache keys.
    struct HotKind
    {
        const char* kind;
        std::uint64_t size;
    };
    static constexpr HotKind kHotKinds[] = {
        {"mc_ttm", 32}, {"mc_cas", 32}, {"capacity_sweep", 12}};
    const HotKind& pick = kHotKinds[rank % std::size(kHotKinds)];
    const std::uint64_t domain = 1000;
    GeneratedRequest request;
    request.index = rank;
    request.id = idOf('h', rank);
    request.hot = true;
    request.kind = pick.kind;
    request.size = pick.size;
    const std::string& design =
        _designs[rank / std::size(kHotKinds) % _designs.size()];
    JsonWriter json;
    writeHead(json, request.id, pick.kind, design, 1e7,
              0.7 + 0.3 * unit(mixBits(_seed, domain + kCapacity, rank)),
              requestSeed(mixBits(_seed, domain + kSeed, rank)));
    if (request.kind == "capacity_sweep") {
        json.key("grid");
        json.beginArray();
        for (std::uint64_t i = 0; i < request.size; ++i)
            json.value(0.25 + 0.75 * static_cast<double>(i + 1) /
                                  static_cast<double>(request.size));
        json.endArray();
    } else {
        json.field("samples", request.size);
    }
    json.endObject();
    request.line = json.str();
    return request;
}

} // namespace perfbench
