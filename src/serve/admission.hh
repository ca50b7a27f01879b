#ifndef TTMCAS_SERVE_ADMISSION_HH
#define TTMCAS_SERVE_ADMISSION_HH

/**
 * @file
 * Bounded admission control for ttm_serve.
 *
 * The gate sits in front of evaluation and bounds how many requests
 * may be in flight at once, counting those that wait for one of the
 * server's evaluation permits and those that evaluate. A
 * request that arrives while the gate is full is *shed* immediately
 * with a structured "overloaded" reply instead of queueing unboundedly
 * — under flood the server stays responsive (health checks and cache
 * hits bypass the gate entirely) and memory stays bounded.
 *
 * Drain is a one-way latch: beginDrain() makes every subsequent
 * tryEnter() return Draining, and awaitIdle() lets the shutdown path
 * wait (with a timeout) for in-flight work to finish or get cancelled.
 */

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>

namespace ttmcas::serve {

/** Counting gate with a shed decision and a drain latch. */
class AdmissionGate
{
  public:
    /** What happened to an arriving request. */
    enum class Decision : std::uint8_t
    {
        Admitted, ///< a slot was taken; caller must leave() when done
        Shed,     ///< gate full — reply "overloaded"
        Draining, ///< server shutting down — reply "draining"
    };

    /** A gate admitting at most @p capacity (>= 1) concurrent requests. */
    explicit AdmissionGate(std::size_t capacity);

    /** Try to take a slot. Admitted requires a matching leave(). */
    Decision tryEnter();

    /** Release a slot taken by a successful tryEnter(). */
    void leave();

    /** Latch the drain state: no further admissions. Idempotent. */
    void beginDrain();

    /** True once beginDrain() was called. */
    bool draining() const;

    /** Requests currently holding a slot. */
    std::size_t inFlight() const;

    /** The admission bound. */
    std::size_t capacity() const { return _capacity; }

    /**
     * Block until no request holds a slot, or @p timeout elapses.
     * Returns true when idle was reached.
     */
    bool awaitIdle(std::chrono::milliseconds timeout);

  private:
    const std::size_t _capacity;
    mutable std::mutex _mutex;
    std::condition_variable _idle;
    std::size_t _in_flight = 0;
    bool _draining = false;
};

/** RAII slot holder: leave() exactly once for an admitted request. */
class AdmissionSlot
{
  public:
    /** An empty holder: releases nothing. */
    AdmissionSlot() = default;
    /** Hold a slot that @p gate admitted (tryEnter() returned Admitted). */
    explicit AdmissionSlot(AdmissionGate& gate) : _gate(&gate) {}
    /** Release the slot if it is still held. */
    ~AdmissionSlot() { release(); }

    /** Take over @p other's slot; @p other then holds none. */
    AdmissionSlot(AdmissionSlot&& other) noexcept : _gate(other._gate)
    {
        other._gate = nullptr;
    }
    /** Release this slot, then take over @p other's. */
    AdmissionSlot& operator=(AdmissionSlot&& other) noexcept
    {
        if (this != &other) {
            release();
            _gate = other._gate;
            other._gate = nullptr;
        }
        return *this;
    }
    AdmissionSlot(const AdmissionSlot&) = delete;            ///< non-copyable
    AdmissionSlot& operator=(const AdmissionSlot&) = delete; ///< non-copyable

    /** Release the slot early (destructor is then a no-op). */
    void release()
    {
        if (_gate != nullptr) {
            _gate->leave();
            _gate = nullptr;
        }
    }

  private:
    AdmissionGate* _gate = nullptr;
};

} // namespace ttmcas::serve

#endif // TTMCAS_SERVE_ADMISSION_HH
