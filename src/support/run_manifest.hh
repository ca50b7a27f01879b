#ifndef TTMCAS_SUPPORT_RUN_MANIFEST_HH
#define TTMCAS_SUPPORT_RUN_MANIFEST_HH

/**
 * @file
 * Per-run provenance manifest (part of ttmcas_obs).
 *
 * A RunManifest captures everything needed to reproduce and audit one
 * batch run: the tool that ran, the library git hash it was built
 * from, the RNG seed, the thread count, the active FailurePolicy,
 * per-kernel wall-clock timings with point/failure counts, and a
 * FailureReport summary. Manifests serialize to JSON and round-trip
 * through fromJson() (docs/OBSERVABILITY.md documents the schema).
 *
 * Timings and the failure summary are the only non-deterministic
 * fields; everything else is bitwise stable across runs with the same
 * inputs, which is what makes manifests diffable provenance records.
 */

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "support/outcome.hh"

namespace ttmcas::obs {

struct MetricsSnapshot;

/** The git hash the library was compiled from ("unknown" outside git). */
std::string buildGitHash();

/**
 * Throughput summary of the compiled SoA batch path (core/ttm_batch),
 * lifted from the ttm.batch.* histograms of a MetricsSnapshot. All
 * zeros when the run never exercised the batch path (scalar fallback,
 * metrics disabled, or no TTM kernel invoked).
 */
struct BatchKernelMetrics
{
    /** Batches evaluated through the compiled kernels. */
    std::uint64_t batches = 0;
    /** Samples across those batches (sum of batch sizes). */
    std::uint64_t samples = 0;
    /** Mean amortized ns/sample across batches (0 when none ran). */
    double mean_ns_per_sample = 0.0;

    bool operator==(const BatchKernelMetrics& other) const = default;
};

/** Wall-clock accounting for one instrumented kernel invocation. */
struct KernelTiming
{
    /** Kernel name, e.g. "sampleTtm" or "sobolAnalyze". */
    std::string kernel;
    /** Wall-clock time of the invocation in milliseconds. */
    double wall_ms = 0.0;
    /** Points evaluated (samples, grid cells, matrix entries). */
    std::uint64_t points = 0;
    /** Points that failed and were skipped or aborted on. */
    std::uint64_t failures = 0;

    bool operator==(const KernelTiming& other) const = default;
};

/** Per-run provenance record; see file comment for the field story. */
struct RunManifest
{
    /** Name of the binary or harness that produced the run. */
    std::string tool;
    /** Library git hash (buildGitHash() unless overridden). */
    std::string git_hash;
    /** Master RNG seed of the run. */
    std::uint64_t seed = 0;
    /** Thread count used (0 = hardware concurrency). */
    std::uint64_t threads = 0;
    /** Active failure-policy mode: "abort" or "skip_and_record". */
    std::string failure_policy = "abort";
    /** Circuit-breaker fraction of the FailurePolicy. */
    double max_failure_fraction = 1.0;
    /** One entry per instrumented kernel invocation, in run order. */
    std::vector<KernelTiming> kernels;
    /** Total points across all recorded kernels. */
    std::uint64_t total_points = 0;
    /** Total failed points across all recorded kernels. */
    std::uint64_t total_failures = 0;
    /** Per-DiagCode failure counts rendered as {"code-name": n}. */
    std::vector<std::pair<std::string, std::uint64_t>> failure_counts;
    /**
     * How the run ended: "completed" (default), "deadline_exceeded"
     * (the --deadline fired and a checkpoint holds partial results),
     * "cancelled" (SIGINT), or "resumed" (this run restored completed
     * points from a parent checkpoint and finished the remainder).
     */
    std::string disposition = "completed";
    /** Lineage: path of the checkpoint this run resumed from. */
    std::string parent_checkpoint;
    /** Completed points carried in the checkpoint this run wrote. */
    std::uint64_t checkpoint_points = 0;
    /** Compiled batch-path throughput (docs/PERFORMANCE.md). */
    BatchKernelMetrics kernel_metrics;

    /** Copy mode + circuit breaker from a FailurePolicy. */
    void setPolicy(const FailurePolicy& policy);

    /**
     * Fill kernel_metrics from @p snapshot's ttm.batch.size /
     * ttm.batch.ns_per_sample histograms (absent histograms leave the
     * zero defaults). Call once after the instrumented kernels ran,
     * typically with obs::snapshotMetrics().
     */
    void captureKernelMetrics(const MetricsSnapshot& snapshot);

    /**
     * Record one kernel invocation and fold its point/failure counts
     * into the totals.
     */
    void addKernel(KernelTiming timing);

    /** Fold a FailureReport's per-code counts into failure_counts. */
    void addFailureReport(const FailureReport& report);

    /** Serialize to a pretty-stable JSON object. */
    std::string toJson() const;

    /**
     * Parse a manifest previously produced by toJson(). Throws
     * ModelError on malformed input or missing fields.
     */
    static RunManifest fromJson(const std::string& text);

    /**
     * Write toJson() to @p path, creating parent directories. Throws
     * ModelError when the file cannot be written.
     */
    void write(const std::string& path) const;

    bool operator==(const RunManifest& other) const = default;
};

/**
 * Scoped helper that times one kernel invocation into a RunManifest:
 * construction stamps the start, finish() (or destruction) appends a
 * KernelTiming. Intended for CLI/bench drivers, not hot loops.
 */
class ManifestKernelScope
{
  public:
    /** Start timing @p kernel into @p manifest. */
    ManifestKernelScope(RunManifest& manifest, std::string kernel);
    /** Appends the timing if finish() was never called. */
    ~ManifestKernelScope();

    ManifestKernelScope(const ManifestKernelScope&) = delete;
    ManifestKernelScope& operator=(const ManifestKernelScope&) = delete;

    /** Set the evaluated point count reported for this kernel. */
    void setPoints(std::uint64_t points) { _points = points; }
    /** Set the failed point count reported for this kernel. */
    void setFailures(std::uint64_t failures) { _failures = failures; }

    /** Stop the clock and append the KernelTiming now. */
    void finish();

  private:
    RunManifest& _manifest;
    std::string _kernel;
    std::uint64_t _points = 0;
    std::uint64_t _failures = 0;
    bool _done = false;
    std::chrono::steady_clock::time_point _start;
};

} // namespace ttmcas::obs

#endif // TTMCAS_SUPPORT_RUN_MANIFEST_HH
