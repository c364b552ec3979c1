/**
 * @file
 * The configuration record of both quarantine runtimes. MineSweeper
 * takes it from the caller; MarkUs builds one value of it (see
 * baselines/markus.cc). QuarantineRuntime reads every front-end
 * behaviour from it: trigger, pause gate, retry ladder, partial
 * versions.
 *
 * The toggles map one-to-one onto the paper's evaluation axes:
 *  - mode: fully concurrent vs mostly concurrent (stop-the-world recheck)
 *    vs synchronous (sweeps inline on the freeing thread) — §4.3, Fig 13;
 *  - zeroing / unmapping / purging and helper_threads: the optimisation
 *    ablation of §5.4 (Figs 15-16);
 *  - quarantine_enabled / sweep_enabled / keep_failed: the "partial
 *    versions" of §5.5 (Fig 17);
 *  - sweep_threshold (15 %), unmapped_factor (9x) and the allocation-
 *    pausing backpressure: §3.2, §4.2, §5.7.
 */
#pragma once

#include <cstddef>
#include <cstdint>

#include "alloc/jade_allocator.h"

namespace msw::core {

enum class Mode {
    /**
     * Single concurrent marking pass, no stop-the-world. Guarantees every
     * dangling pointer that does not move during the sweep is found.
     * The paper's recommended default.
     */
    kFullyConcurrent,
    /**
     * Concurrent marking plus a brief stop-the-world recheck of pages
     * dirtied during marking — MarkUs-equivalent guarantees (§4.3).
     */
    kMostlyConcurrent,
    /**
     * Sweeps run inline on the thread that trips the threshold. Used by
     * the ablation's pre-concurrency configurations.
     */
    kSynchronous,
};

struct Options {
    Mode mode = Mode::kFullyConcurrent;

    /**
     * Sweep when quarantine exceeds this fraction of the live heap, or
     * of the non-heap bytes (roots, stacks, extra roots) the last sweep
     * scanned when those are larger: a sweep's cost, not the heap alone
     * (DESIGN.md §3).
     */
    double sweep_threshold = 0.15;

    /** Do not sweep below this many quarantined bytes (startup damping). */
    std::size_t min_sweep_bytes = std::size_t{1} << 20;

    /** Zero-fill quarantined allocations on free() (§4.1). */
    bool zeroing = true;

    /** Release physical pages of large quarantined allocations (§4.2). */
    bool unmapping = true;

    /** Full allocator purge after every sweep (§4.5). */
    bool purging = true;

    /** Helper sweep threads in addition to the main sweeper (§4.4). */
    unsigned helper_threads = 6;

    /**
     * Sweep when unmapped quarantine exceeds this multiple of the
     * program's committed footprint (§4.2: nine times).
     */
    double unmapped_factor = 9.0;

    /**
     * Pause allocations briefly when the quarantine exceeds this multiple
     * of the live heap (or of the last non-heap scan, when larger) and a
     * sweep is running (§5.7 backpressure). 0 disables pausing.
     */
    double pause_factor = 8.0;

    /** Entries per thread-local quarantine buffer. */
    std::size_t tl_buffer_entries = 64;

    // --- Partial versions for the overhead-source study (§5.5) ---------

    /**
     * If false, free() forwards to the allocator after applying
     * zeroing/unmapping; nothing is quarantined (Fig 17 versions 1-2).
     */
    bool quarantine_enabled = true;

    /**
     * If false, sweeps skip the marking phase and release every
     * quarantined entry unconditionally (Fig 17 versions 3-4).
     */
    bool sweep_enabled = true;

    /**
     * If false, entries with dangling pointers are deallocated anyway
     * after the check (Fig 17 version 5). Unsafe; measurement only.
     */
    bool keep_failed = true;

    /** Report double frees to stderr (the paper's debug mode, §3). */
    bool report_double_frees = false;

    // --- Resilience under memory pressure ------------------------------

    /**
     * Attempts alloc() makes when the substrate fails (heap exhausted or
     * transient commit failure). Each attempt after the first runs the
     * emergency path: synchronous sweep draining reclaimable quarantine,
     * then a full purge. alloc() returns nullptr — never aborts — once
     * they are exhausted.
     */
    unsigned alloc_retry_attempts = 4;

    /** Backoff before each alloc() retry, doubled per attempt (µs). */
    unsigned alloc_retry_backoff_us = 100;

    /**
     * Deadline for the background sweeper to pick up a sweep request.
     * A mutator observing a miss logs once, falls back to synchronous
     * sweeping, and keeps honouring the quarantine threshold. 0 disables
     * the watchdog.
     */
    std::uint64_t watchdog_timeout_ms = 2000;

    /**
     * Capacity of the deferred-unmap queue used while a sweep is
     * scanning. Overflowing entries skip the unmap optimisation (they are
     * zeroed instead and stay quarantined — safe, just less memory win).
     */
    std::size_t max_pending_unmaps = 4096;

    /** Substrate allocator configuration. */
    alloc::JadeAllocator::Options jade{};
};

}  // namespace msw::core
