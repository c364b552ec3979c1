/**
 * @file
 * Fixed-size binary trace ring for sweep/lifecycle/resilience events.
 *
 * A multi-producer overwrite-oldest ring of small binary slots: every
 * push claims a ticket from an atomic cursor and writes slot
 * (ticket mod kSlots) under a per-slot sequence word (a miniature
 * seqlock). Readers validate each slot's sequence before and after
 * copying the payload, so entries caught mid-overwrite are discarded
 * rather than returned torn. All fields are atomics, so concurrent
 * push/snapshot is race-free under TSan; the reader's relaxed payload
 * loads leave a theoretical window where a stale payload passes the
 * sequence recheck on weakly-ordered hardware, which diagnostic trace
 * data tolerates by design (documented in DESIGN.md §14).
 *
 * Allocation-free and fixed-size: safe to snapshot from the SIGUSR2
 * dump handler and usable on the self-hosted LD_PRELOAD path.
 */
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace msw::metrics {

/** Event identities recorded by the runtime (DESIGN.md §14). */
enum class TraceEvent : std::uint32_t {
    kNone = 0,
    kSweepBegin,        ///< a0 = locked-in quarantine entries
    kSweepEnd,          ///< a0 = duration ns, a1 = entries released
    kPhaseDirtyScan,    ///< a0 = duration ns
    kPhaseMark,         ///< a0 = duration ns, a1 = bytes scanned
    kPhaseDrain,        ///< a0 = duration ns
    kPhaseRelease,      ///< a0 = duration ns, a1 = entries released
    kStwPause,          ///< a0 = duration ns
    kAllocPause,        ///< a0 = duration ns (backpressure pause)
    kWatchdogFallback,  ///< synchronous sweep on a mutator thread
    kEmergencySweep,    ///< reclaim forced from the alloc() ladder
    kOomReturn,         ///< a0 = request bytes (alloc returned nullptr)
    kForkChild,         ///< runtime reset in an atfork child
    kCount,
};

/** Short stable name for an event ("sweep_begin", ...). */
const char* trace_event_name(TraceEvent event);

/** One decoded trace entry. */
struct TraceRecord {
    std::uint64_t ticket = 0;  ///< Global event ordinal.
    std::uint64_t ts_ns = 0;   ///< CLOCK_MONOTONIC stamp.
    TraceEvent event = TraceEvent::kNone;
    std::uint64_t a0 = 0;
    std::uint64_t a1 = 0;
};

class TraceRing
{
  public:
    /** Ring capacity; power of two. ~80 KiB of static slots. */
    static constexpr std::size_t kSlots = 2048;

    constexpr TraceRing() = default;

    TraceRing(const TraceRing&) = delete;
    TraceRing& operator=(const TraceRing&) = delete;

    /**
     * Append one event (wait-free; overwrites the oldest slot, or drops
     * the event while a producer a lap away holds that slot).
     */
    void push(TraceEvent event, std::uint64_t a0 = 0,
              std::uint64_t a1 = 0);

    /**
     * Copy up to @p cap of the *newest* stable entries into @p out,
     * oldest-first among those returned. Slots caught mid-write are
     * skipped. Allocation-free; safe from the signal dump path.
     */
    std::size_t snapshot(TraceRecord* out, std::size_t cap) const;

    /** Events pushed since construction/reset, dropped ones included. */
    std::uint64_t pushed() const;

    /** Clear the ring. Only legal with no concurrent writers. */
    void reset();

  private:
    struct Slot {
        // seq: 2*ticket+1 while writing, 2*ticket+2 once stable.
        std::atomic<std::uint64_t> seq{0};
        std::atomic<std::uint64_t> ts{0};
        std::atomic<std::uint64_t> ev{0};
        std::atomic<std::uint64_t> a0{0};
        std::atomic<std::uint64_t> a1{0};
    };

    std::atomic<std::uint64_t> cursor_{0};
    Slot slots_[kSlots];
};

}  // namespace msw::metrics
