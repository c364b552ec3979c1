/**
 * @file
 * The runtime counter table. Each row of MSW_COUNTERS declares one
 * counter once: its core::Stat id, its exported name (also its
 * SweepStats field) and whether it is a gauge. The Stat enum, SweepStats,
 * kCounterRows and through them sweep_stats(), export_counters() (the
 * dumps and bench/server_tail's JSON), metrics::RunScalars and
 * tools/ci/check_server_tail.py all read it, so a new counter is one row
 * plus its writer. Needs only util: it sits below core and metrics.
 */
#pragma once

#include <cstdint>

#include "util/failpoint.h"

namespace msw::metrics {

/** kEvent counters only grow; kGauge byte gauges pair add() and sub(). */
enum class CounterKind : bool { kEvent, kGauge };

/**
 * X(id, name, kind), in Stat and export order. Times are wall-clock ns
 * except sweep_cpu_ns (sweeper + helper thread CPU). pointers_found
 * counts scanned words that hit the heap (MineSweeper) or resolve to an
 * allocation (MarkUs): at most bytes_scanned / 8.
 */
#define MSW_COUNTERS(X)                                                      \
    /* Allocation surface (all runtimes). */                                 \
    X(kAllocCalls, alloc_calls, kEvent)                                      \
    X(kFreeCalls, free_calls, kEvent)                                        \
    X(kDoubleFrees, double_frees, kEvent)                                    \
    /* Sweep and mark outcomes (MineSweeper, MarkUs). */                     \
    X(kEntriesReleased, entries_released, kEvent)                            \
    X(kBytesReleased, bytes_released, kEvent)                                \
    X(kFailedFrees, failed_frees, kEvent)                                    \
    X(kBytesScanned, bytes_scanned, kEvent)                                  \
    X(kPointersFound, pointers_found, kEvent)                                \
    X(kSweepCpuNs, sweep_cpu_ns, kEvent)                                     \
    X(kStwNs, stw_ns, kEvent)                                                \
    X(kPauseNs, pause_ns, kEvent)                                            \
    X(kUnmappedEntries, unmapped_entries, kEvent)                            \
    X(kReleaseBinLocks, release_bin_locks, kEvent)                           \
    /* Phases: disjoint, inside sweep_wall_ns; stw_ns inside the mark. */    \
    X(kPhaseDirtyScanNs, phase_dirty_scan_ns, kEvent)                        \
    X(kPhaseMarkNs, phase_mark_ns, kEvent)                                   \
    X(kPhaseDrainNs, phase_drain_ns, kEvent)                                 \
    X(kPhaseReleaseNs, phase_release_ns, kEvent)                             \
    X(kSweepWallNs, sweep_wall_ns, kEvent)                                   \
    /* Resilience (memory-pressure degradation + watchdog). */               \
    X(kEmergencySweeps, emergency_sweeps, kEvent)                            \
    X(kCommitRetries, commit_retries, kEvent)                                \
    X(kWatchdogFallbacks, watchdog_fallbacks, kEvent)                        \
    X(kOomReturns, oom_returns, kEvent)                                      \
    /* Hardened allocation policy (zero under the default policy). */        \
    X(kCanaryChecks, canary_checks, kEvent)                                  \
    X(kCanaryViolations, canary_violations, kEvent)                          \
    X(kSweepFillChecks, sweep_fill_checks, kEvent)                           \
    X(kReleaseShuffles, release_shuffles, kEvent)                            \
    /* Byte gauges (FFMalloc). */                                            \
    X(kLiveBytes, live_bytes, kGauge)                                        \
    X(kCommittedBytes, committed_bytes, kGauge)

/** Logical counter ids for the whole runtime family, one per row. */
enum class Stat : unsigned {
#define MSW_COUNTER_ID(id, name, kind) id,
    MSW_COUNTERS(MSW_COUNTER_ID)
#undef MSW_COUNTER_ID
    kCount,
};

inline constexpr unsigned kStatCount = static_cast<unsigned>(Stat::kCount);

/** One field per row, the controller's sweep count and failpoint hits. */
struct SweepStats {
    std::uint64_t sweeps = 0;
#define MSW_COUNTER_FIELD(id, name, kind) std::uint64_t name = 0;
    MSW_COUNTERS(MSW_COUNTER_FIELD)
#undef MSW_COUNTER_FIELD
    std::uint64_t failpoint_hits[util::kNumFailpoints] = {};
};

/** A row as data, for loops over the table. */
struct CounterRow {
    const char* name;
    std::uint64_t SweepStats::*field;
    CounterKind kind;
};

/** The table, indexed by Stat. */
inline constexpr CounterRow kCounterRows[kStatCount] = {
#define MSW_COUNTER_ROW(id, name, kind) \
    {#name, &SweepStats::name, CounterKind::kind},
    MSW_COUNTERS(MSW_COUNTER_ROW)
#undef MSW_COUNTER_ROW
};

}  // namespace msw::metrics
