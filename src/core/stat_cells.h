/**
 * @file
 * Sharded fast-path statistics.
 *
 * The alloc/free fast path used to bump ~20 `std::atomic<uint64_t>`
 * members that shared the MineSweeper object's cache lines: every counter
 * update from every thread contended the same lines, which is exactly
 * where drop-in schemes lose their overhead budget (cf. FreeGuard's and
 * CAMP's per-thread state separation). StatCells stripes each logical
 * counter across a small set of cache-line-padded shards; a thread
 * increments only its home shard (one relaxed RMW on a line it usually
 * owns) and readers sum the shards. Sums are exact: every delta lands in
 * exactly one shard and 64-bit wraparound is associative, so gauges that
 * mix add() and sub() also aggregate to the true value.
 *
 * The layer is allocation-free (fixed inline storage) so it is safe on
 * the self-hosted LD_PRELOAD path, and a StatCells instance is shared by
 * the whole runtime-base hierarchy (MineSweeper, MarkUs, FFMalloc), which
 * is what makes the SweepStats/AllocatorStats surfaces uniform.
 *
 * Every *time* counter (the sweep phases, kStwNs, kPauseNs and
 * kSweepWallNs) is written by exactly one primitive, PhaseScope below:
 * one clock read pair per phase, one site per phase.
 */
#pragma once

#include <atomic>
#include <cstdint>

#include "metrics/counters.h"
#include "metrics/telemetry.h"
#include "util/clock.h"

namespace msw::core {

// The counter ids and the SweepStats record come from the counter table
// (metrics/counters.h), which metrics::RunScalars reads too.
using metrics::kStatCount;
using metrics::Stat;
using metrics::SweepStats;

class StatCells
{
  public:
    StatCells() = default;

    StatCells(const StatCells&) = delete;
    StatCells& operator=(const StatCells&) = delete;

    /** Add @p delta to @p stat on the calling thread's home shard. */
    void
    add(Stat stat, std::uint64_t delta = 1)
    {
        cell(stat).fetch_add(delta, std::memory_order_relaxed);
    }

    /** Subtract @p delta (gauges); aggregates exactly via wraparound. */
    void
    sub(Stat stat, std::uint64_t delta)
    {
        cell(stat).fetch_sub(delta, std::memory_order_relaxed);
    }

    /** Sum of @p stat over all shards. */
    std::uint64_t read(Stat stat) const;

    /** Every counter in its SweepStats field (one pass over the shards). */
    SweepStats read_all() const;

    /**
     * Zero every *event* counter across all shards. Gauges (kLiveBytes,
     * kCommittedBytes) are preserved: they describe heap state the fork
     * child inherits, and zeroing them would make the sub() half of a
     * later add()/sub() pair wrap. Only legal when no other thread is
     * mutating — the atfork child handler, where the process is
     * single-threaded by construction.
     */
    void reset_events();

    /** True for add()/sub() byte gauges, false for event counters. */
    static constexpr bool
    is_gauge(Stat stat)
    {
        return metrics::kCounterRows[static_cast<unsigned>(stat)].kind ==
               metrics::CounterKind::kGauge;
    }

    /** Number of stripes (tests and benchmarks). */
    static constexpr unsigned
    shards()
    {
        return kShards;
    }

  private:
    // Few enough stripes to keep read() cheap, enough that a handful of
    // hot threads land on distinct lines. Must be a power of two.
    static constexpr unsigned kShards = 8;
    static constexpr unsigned kCacheLine = 64;

    struct alignas(kCacheLine) Shard {
        std::atomic<std::uint64_t> v[kStatCount];
    };

    /**
     * The calling thread's stripe, assigned round-robin on first use so
     * the common few-threads case spreads over distinct shards (a tid
     * hash would collide half the time at two threads).
     */
    static unsigned
    home_shard()
    {
        thread_local const unsigned shard = next_shard() & (kShards - 1);
        return shard;
    }

    static unsigned next_shard();

    std::atomic<std::uint64_t>&
    cell(Stat stat)
    {
        return shards_[home_shard()].v[static_cast<unsigned>(stat)];
    }

    Shard shards_[kShards] = {};
};

/**
 * RAII timer for one phase: on destruction it adds the elapsed
 * util::now_ns() time to @p stat and pushes @p event (a0 = duration,
 * a1 = set_arg()); with telemetry on it also records the duration into
 * @p hist. The clock reads are unconditional — phases are slow paths —
 * and only the trace push and histogram are gated.
 */
class PhaseScope
{
  public:
    PhaseScope(StatCells& stats, Stat stat, metrics::TraceEvent event,
               metrics::Histogram* hist = nullptr)
        : stats_(stats), stat_(stat), event_(event), hist_(hist),
          t0_(util::now_ns())
    {}

    ~PhaseScope()
    {
        const std::uint64_t ns = util::now_ns() - t0_;
        stats_.add(stat_, ns);
        metrics::Telemetry& tele = metrics::telemetry();
        if (tele.on()) {
            if (hist_ != nullptr)
                hist_->record(ns);
            tele.trace.push(event_, ns, arg_);
        }
    }

    PhaseScope(const PhaseScope&) = delete;
    PhaseScope& operator=(const PhaseScope&) = delete;

    /** The trace event's a1 (bytes scanned, entries released, ...). */
    void set_arg(std::uint64_t a1) { arg_ = a1; }

  private:
    StatCells& stats_;
    const Stat stat_;
    const metrics::TraceEvent event_;
    metrics::Histogram* const hist_;
    const std::uint64_t t0_;
    std::uint64_t arg_ = 0;
};

}  // namespace msw::core
