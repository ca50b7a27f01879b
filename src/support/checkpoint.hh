#ifndef TTMCAS_SUPPORT_CHECKPOINT_HH
#define TTMCAS_SUPPORT_CHECKPOINT_HH

/**
 * @file
 * Atomic checkpoint/resume for batch sweeps.
 *
 * A sweep killed by a deadline or SIGINT should not recompute what it
 * already finished. SweepCheckpoint captures completed per-point
 * scalar results as they are recorded and persists them as a JSON
 * document via the support/json layer; a resumed run loads the file,
 * verifies the binding (kernel name, seed, point count), restores the
 * completed points without re-evaluating them, and recomputes only
 * the rest.
 *
 * Two properties carry the whole design:
 *
 *  - Bitwise exactness. JSON numbers are doubles in this parser, so a
 *    decimal rendering could silently round. Point values are instead
 *    stored as 16-hex-digit IEEE-754 bit patterns ("3fe5551d68c692bb")
 *    and bit-cast back on load: a resumed run's restored values are
 *    the *identical* doubles the interrupted run computed, which is
 *    what makes kill-and-resume output bitwise equal to an
 *    uninterrupted run (per-point RNG streams make the recomputed
 *    remainder equal too).
 *
 *  - Atomic persistence. writeAtomic() writes a temp file next to the
 *    target and std::filesystem::rename()s it into place — POSIX
 *    rename is atomic within a filesystem, so a reader (or a resumed
 *    run after a mid-write kill) sees either the previous complete
 *    checkpoint or the new complete checkpoint, never a torn file.
 *
 * Thread safety: record()/has()/value() take an internal mutex, so
 * parallel workers may record concurrently; the underlying map is
 * ordered by point index, so the serialized document is deterministic
 * for any recording order.
 */

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace ttmcas {

/** Completed-point store for one batch sweep, persistable as JSON. */
class SweepCheckpoint
{
  public:
    SweepCheckpoint() = default;

    /** Move-construct (the moved-from object must be otherwise idle). */
    SweepCheckpoint(SweepCheckpoint&& other) noexcept;

    SweepCheckpoint(const SweepCheckpoint&) = delete;
    SweepCheckpoint& operator=(const SweepCheckpoint&) = delete;
    SweepCheckpoint& operator=(SweepCheckpoint&&) = delete;

    /**
     * Bind this checkpoint to one specific sweep: @p kernel (e.g.
     * "drawSamples"), the run @p seed, and the sweep's @p total_points.
     * A kernel binds the checkpoint it is handed; binding twice with
     * different values throws ModelError (the checkpoint belongs to a
     * different run), binding twice identically is a no-op.
     */
    void bind(const std::string& kernel, std::uint64_t seed,
              std::size_t total_points);

    /**
     * Throw ModelError unless this checkpoint is bound to exactly
     * (@p kernel, @p seed, @p total_points) — the resume-safety check
     * that stops a Monte-Carlo checkpoint from seeding a Sobol run.
     */
    void requireMatches(const std::string& kernel, std::uint64_t seed,
                        std::size_t total_points) const;

    /** True once bind() has been called (or a file was loaded). */
    bool bound() const { return !_kernel.empty(); }

    /** The bound kernel name; empty when unbound. */
    const std::string& kernel() const { return _kernel; }
    /** The bound run seed. */
    std::uint64_t seed() const { return _seed; }
    /** The bound sweep size in points. */
    std::size_t totalPoints() const { return _total_points; }

    /** Record the completed value of @p point. Thread-safe. */
    void record(std::size_t point, double value);

    /** True when @p point has a recorded value. Thread-safe. */
    bool has(std::size_t point) const;

    /**
     * The recorded value of @p point (bit-exact); throws ModelError
     * when absent. Thread-safe.
     */
    double value(std::size_t point) const;

    /** Number of completed points recorded so far. Thread-safe. */
    std::size_t completedCount() const;

    /** Lineage: path of the checkpoint this run resumed from. */
    const std::string& parent() const { return _parent; }
    /** Set the lineage parent path (recorded in the manifest). */
    void setParent(std::string path) { _parent = std::move(path); }

    /**
     * Serialize to a JSON document: binding, lineage, and completed
     * points as {"index": N, "bits": "16-hex-digit"} records in
     * ascending index order (deterministic for any recording order).
     */
    std::string toJson() const;

    /** Parse a toJson() document; throws ModelError on any mismatch. */
    static SweepCheckpoint fromJson(const std::string& text);

    /**
     * Persist toJson() atomically: write "@p path.tmp", flush, then
     * rename over @p path. Throws ModelError when the file cannot be
     * written. Thread-safe (serialized internally).
     */
    void writeAtomic(const std::string& path) const;

    /** Load a checkpoint file; throws ModelError when unreadable. */
    static SweepCheckpoint load(const std::string& path);

    /** Most auto-flushes one bound sweep triggers (see enableAutoFlush). */
    static constexpr std::size_t kMaxAutoFlushes = 64;

    /**
     * Arm periodic persistence: every @p every_points record() calls,
     * writeAtomic(@p path). every_points must be >= 1. The cadence
     * stretches to totalPoints() / kMaxAutoFlushes when that is
     * larger, so a run rewrites its file at most ~64 times and the
     * total flush work stays linear in the sweep size. The final flush
     * is still the caller's job (a kernel flushes once after its loop).
     */
    void enableAutoFlush(std::string path, std::size_t every_points);

  private:
    std::string _kernel;
    std::uint64_t _seed = 0;
    std::size_t _total_points = 0;
    std::string _parent;

    mutable std::mutex _mutex;
    /** point index -> IEEE-754 bit pattern (ordered => stable JSON). */
    std::map<std::size_t, std::uint64_t> _points;

    std::string _autoflush_path;
    std::size_t _autoflush_every = 0;
    std::size_t _records_since_flush = 0;

    /** toJson() body; caller holds _mutex. */
    std::string toJsonLocked() const;

    /** writeAtomic() body; caller holds _mutex. */
    void writeAtomicLocked(const std::string& path) const;
};

} // namespace ttmcas

#endif // TTMCAS_SUPPORT_CHECKPOINT_HH
