#include "sim/miss_curves.hh"

#include <algorithm>
#include <bit>

#include "support/error.hh"
#include "support/threadpool.hh"

namespace ttmcas {

double
MissCurve::at(std::uint64_t size_bytes) const
{
    for (std::size_t i = 0; i < sizes_bytes.size(); ++i) {
        if (sizes_bytes[i] == size_bytes)
            return miss_rates[i];
    }
    throw ModelError("miss curve for '" + workload + "' has no " +
                     std::to_string(size_bytes) + "-byte point");
}

std::vector<std::uint64_t>
MissCurveOptions::paperSizes()
{
    std::vector<std::uint64_t> sizes;
    for (std::uint64_t size = 1024; size <= 1024 * 1024; size *= 2)
        sizes.push_back(size);
    return sizes;
}

MissCurve
measureMissCurve(const Workload& workload, bool instruction_stream,
                 const MissCurveOptions& options)
{
    TTMCAS_REQUIRE(options.measured_accesses > 0,
                   "need a positive measurement window");
    const std::vector<std::uint64_t> sizes =
        options.sizes_bytes.empty() ? MissCurveOptions::paperSizes()
                                    : options.sizes_bytes;

    MissCurve curve;
    curve.workload = workload.name;
    curve.instruction_stream = instruction_stream;
    curve.sizes_bytes = sizes;
    curve.miss_rates.reserve(sizes.size());

    const auto& generator_ptr = instruction_stream
                                    ? workload.instruction_stream
                                    : workload.data_stream;
    TTMCAS_REQUIRE(generator_ptr != nullptr,
                   "workload '" + workload.name + "' lacks a stream");

    // One flat tag store holds every capacity's sets back to back. Each
    // set lists its lines most recent first; an entry is line + 1, so 0
    // marks an invalid way and invalid ways sit at the tail of the set.
    struct Capacity
    {
        std::size_t base = 0;      ///< first way in the tag store
        std::uint64_t set_mask = 0;
        std::uint64_t hits = 0;
    };
    const std::uint32_t ways = options.associativity;
    std::vector<Capacity> capacities;
    capacities.reserve(sizes.size());
    std::size_t tag_store_ways = 0;
    for (std::uint64_t size : sizes) {
        CacheConfig config;
        config.size_bytes = size;
        config.line_bytes = options.line_bytes;
        config.associativity = ways;
        config.validate();
        capacities.push_back({tag_store_ways, config.numSets() - 1, 0});
        tag_store_ways += config.numSets() * ways;
    }
    std::vector<std::uint64_t> tags(tag_store_ways, 0);
    const int line_shift = std::countr_zero(options.line_bytes);

    // Stream the trace once and feed every access to every capacity.
    // Move-to-front on a hit and shift-in-at-front on a miss is exact
    // LRU with invalid-ways-first fill, so the hit counts equal those
    // of one Cache per capacity replaying the same addresses.
    generator_ptr->reset();
    Rng rng(options.seed);
    const std::size_t accesses =
        options.warmup_accesses + options.measured_accesses;
    // Measured accesses to the line of the access just before: that
    // line is already most recent in its set at every capacity, so it
    // hits everywhere and changes nothing.
    std::uint64_t repeat_hits = 0;
    std::uint64_t previous = 0;
    for (std::size_t i = 0; i < accesses; ++i) {
        const std::uint64_t line = generator_ptr->next(rng) >> line_shift;
        const std::uint64_t entry = line + 1;
        const bool measuring = i >= options.warmup_accesses;
        if (entry == previous) {
            repeat_hits += measuring ? 1 : 0;
            continue;
        }
        previous = entry;
        for (Capacity& capacity : capacities) {
            std::uint64_t* set =
                tags.data() + capacity.base + (line & capacity.set_mask) * ways;
            // One walk does lookup and move-to-front: each way takes its
            // predecessor until the entry is found (hit) or the LRU way
            // falls off the end (miss).
            std::uint64_t carry = entry;
            std::uint32_t way = 0;
            for (; way < ways; ++way) {
                const std::uint64_t resident = set[way];
                set[way] = carry;
                if (resident == entry)
                    break;
                carry = resident;
            }
            if (measuring && way < ways)
                ++capacity.hits;
        }
    }

    const auto measured = static_cast<double>(options.measured_accesses);
    for (const Capacity& capacity : capacities) {
        const std::uint64_t hits = capacity.hits + repeat_hits;
        curve.miss_rates.push_back(
            static_cast<double>(options.measured_accesses - hits) / measured);
    }
    return curve;
}

std::pair<MissCurve, MissCurve>
averageMissCurves(const std::vector<Workload>& suite,
                  const MissCurveOptions& options)
{
    TTMCAS_REQUIRE(!suite.empty(), "workload suite must not be empty");
    const std::vector<std::uint64_t> sizes =
        options.sizes_bytes.empty() ? MissCurveOptions::paperSizes()
                                    : options.sizes_bytes;

    MissCurve instr;
    instr.workload = "suite-average";
    instr.instruction_stream = true;
    instr.sizes_bytes = sizes;
    instr.miss_rates.assign(sizes.size(), 0.0);
    MissCurve data = instr;
    data.instruction_stream = false;

    // Stream k is suite[k / 2]'s instruction stream when k is even and
    // its data stream when odd. A stream whose generator object already
    // appears at an earlier k reuses that curve: measuring it again
    // would give the same rates (each measurement resets the generator
    // and reseeds its Rng), and measuring it concurrently would race.
    const std::size_t streams = 2 * suite.size();
    const auto generatorOf = [&](std::size_t k) {
        const Workload& workload = suite[k / 2];
        return k % 2 == 0 ? workload.instruction_stream.get()
                          : workload.data_stream.get();
    };
    std::vector<std::size_t> slot(streams);
    std::vector<std::size_t> measured;
    for (std::size_t k = 0; k < streams; ++k) {
        std::size_t first = 0;
        while (generatorOf(first) != generatorOf(k))
            ++first;
        if (first == k) {
            slot[k] = measured.size();
            measured.push_back(k);
        } else {
            slot[k] = slot[first];
        }
    }

    // One curve per claim on the process-wide pool. Each curve stays on
    // the thread that measured it; only its rates are copied into this
    // thread's buffer, so no pool thread's heap blocks are freed here.
    // The sums below run serially in suite order, so every average is
    // bitwise the serial loop's for any thread count.
    const std::size_t points = sizes.size();
    std::vector<double> rates(measured.size() * points);
    parallelFor(ParallelConfig{0, 1}, measured.size(),
                [&](std::size_t begin, std::size_t end) {
                    for (std::size_t m = begin; m < end; ++m) {
                        const std::size_t k = measured[m];
                        const MissCurve curve = measureMissCurve(
                            suite[k / 2], k % 2 == 0, options);
                        std::copy(curve.miss_rates.begin(),
                                  curve.miss_rates.end(),
                                  rates.begin() + m * points);
                    }
                });
    for (std::size_t w = 0; w < suite.size(); ++w) {
        const double* wi = rates.data() + slot[2 * w] * points;
        const double* wd = rates.data() + slot[2 * w + 1] * points;
        for (std::size_t i = 0; i < points; ++i) {
            instr.miss_rates[i] += wi[i];
            data.miss_rates[i] += wd[i];
        }
    }
    const auto n = static_cast<double>(suite.size());
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        instr.miss_rates[i] /= n;
        data.miss_rates[i] /= n;
    }
    return {instr, data};
}

} // namespace ttmcas
