/**
 * @file
 * The layered UAF-runtime base classes.
 *
 *   alloc::Allocator                    the drop-in malloc interface
 *     └─ RuntimeBase                    sharded statistics surface
 *          ├─ FFMalloc                  (one-time allocator; no quarantine)
 *          └─ QuarantineRuntime         the allocation front end
 *               │                       + jade substrate + quarantine
 *               │                       + committed-page hooks + roots
 *               │                       + reclaimer + sweep controller
 *               │                       + the sweep pass itself
 *               ├─ MineSweeper          linear mark (paper §3–§4)
 *               └─ MarkUs               transitive conservative mark
 *
 * QuarantineRuntime owns the allocation front end, written once: alloc
 * with end-pointer slack and the hardened canary, the retry/emergency-
 * reclaim ladder, free into quarantine (or, for the §5.5 partial
 * versions, straight back to the substrate), and the sweep trigger with
 * its backpressure gate. It also owns the whole sweep pass: lock in the
 * quarantine epoch, arm the dirty tracker, mark concurrently, recheck
 * dirty pages, stacks and registers with the world stopped, drain
 * deferred unmaps, release every unmarked entry and keep the rest as
 * failed frees, purge. The layers that pass runs on — SweepController
 * (when sweeps run), Reclaimer (how memory comes back), StatCells (how
 * everything counts) — live here too, so both runtimes are timed and
 * counted by the same code. A derived runtime owns only its mark (the
 * initial scan set and the mark(ranges) hook) and the one core::Options
 * value it passes to the constructor; every front-end behaviour,
 * trigger included, is a value in that record.
 */
#pragma once

#include <memory>
#include <vector>

#include "alloc/allocator.h"
#include "alloc/jade_allocator.h"
#include "core/options.h"
#include "core/reclaimer.h"
#include "core/stat_cells.h"
#include "core/sweep_controller.h"
#include "quarantine/quarantine.h"
#include "sweep/dirty_tracker.h"
#include "sweep/page_access_map.h"
#include "sweep/roots.h"
#include "sweep/shadow_map.h"
#include "sweep/sweeper.h"
#include "util/failpoint.h"

namespace msw::core {

/**
 * Statistics surface shared by every UAF runtime: a sharded counter block
 * replacing the per-class contended atomics.
 */
class RuntimeBase : public alloc::Allocator
{
  public:
    /** The sharded counter block (tests and benchmarks introspect it). */
    StatCells& stat_cells() { return stats_; }
    const StatCells& stat_cells() const { return stats_; }

  protected:
    RuntimeBase() = default;

    mutable StatCells stats_;
};

/**
 * Shared plumbing for quarantine-based runtimes sitting on the JadeHeap
 * substrate: the allocation front end, the committed-page hooks, the
 * quarantine epochs and double-free bitmap, root/thread registration,
 * the reclaimer, the sweep controller and the sweep pass. Derived
 * classes provide the mark (scan_set() + mark()).
 */
class QuarantineRuntime : public RuntimeBase
{
  public:
    ~QuarantineRuntime() override;

    // ------------------------------------------------------- Allocator

    /** Served with one byte of end-pointer slack (paper §3.2); never
        aborts — nullptr only once the reclaim ladder is exhausted. */
    void* alloc(std::size_t size) override;
    void* alloc_aligned(std::size_t alignment, std::size_t size) override;
    /** Quarantines the block (zero-filled or unmapped) and may trigger
        a sweep; double frees of a quarantined block are absorbed. */
    void free(void* ptr) override;

    // ------------------------------------------------------ Roots/threads

    /** Register a root range to be scanned by sweeps (globals, tables). */
    void add_root(const void* base, std::size_t len);

    /** Remove a registered root range. */
    void remove_root(const void* base);

    /**
     * Register the calling thread: its stack is scanned by sweeps and it
     * participates in stop-the-world phases (mostly-concurrent mode).
     */
    void register_mutator_thread();

    /** Unregister the calling thread (required before it exits). */
    void unregister_mutator_thread();

    // ---------------------------------------------------------- Surface

    std::size_t usable_size(const void* ptr) const override;
    alloc::AllocatorStats stats() const override;

    /** Complete any in-flight sweep and flush quarantine buffers. */
    void flush() override;

    /** Trigger a sweep now and wait for it to complete. */
    void force_sweep();

    SweepStats sweep_stats() const;

    /** True while an allocation with this base is quarantined. */
    bool
    in_quarantine(const void* ptr) const
    {
        return quarantine_bitmap_.test(to_addr(ptr));
    }

    /** The substrate allocator (tests and benchmarks introspect it). */
    alloc::JadeAllocator& substrate() { return jade_; }
    const alloc::JadeAllocator& substrate() const { return jade_; }

    /** Registered mutator threads (tests assert lifecycle draining). */
    std::size_t
    mutator_thread_count() const
    {
        return roots_.num_threads();
    }

    /**
     * Memory regions owned by this instance's machinery (shadow maps,
     * allocator metadata, page maps). Conservative root scans must skip
     * them: their contents are bit-patterns and metadata, not program
     * pointers.
     */
    std::vector<sweep::Range> internal_regions() const;

  protected:
    /**
     * The derived constructor calls controller_.start() once every member
     * its mark touches exists, and its destructor calls
     * controller_.shutdown() before those members die.
     */
    explicit QuarantineRuntime(const Options& opts);

    /** The ranges the concurrent mark pass starts from. */
    virtual std::vector<sweep::Range> scan_set() const = 0;

    /**
     * Mark every quarantined allocation referenced from @p ranges in
     * mark_bits_; called once concurrently and once with the world
     * stopped (mostly-concurrent). Returns the bytes scanned and the
     * pointers found.
     */
    virtual sweep::MarkStats mark(const std::vector<sweep::Range>& ranges) = 0;

    /**
     * The configuration in effect: the caller's record with the
     * allocation policy resolved once (options_.jade.policy is never
     * null) and substrate decay purging off (§4.5).
     */
    const Options options_;
    alloc::JadeAllocator jade_;
    sweep::ShadowMap mark_bits_;         ///< Per-sweep mark bits.
    sweep::ShadowMap quarantine_bitmap_; ///< Double-free de-dup.
    sweep::PageAccessMap access_map_;
    sweep::RootRegistry roots_;
    quarantine::Quarantine quarantine_;
    std::unique_ptr<sweep::DirtyTracker> tracker_;
    Reclaimer reclaimer_;
    SweepController controller_;
    std::unique_ptr<sweep::SweepWorkers> workers_;  ///< Null: no helpers.

  private:
    class Hooks;

    /** alloc() and alloc_aligned() (alignment 0: none). */
    void* alloc_impl(std::size_t size, std::size_t alignment);

    /** Slow path once the substrate returns nullptr: retry with backoff,
        interleaving emergency reclaims; nullptr only when exhausted. */
    void* alloc_slow(std::size_t request, std::size_t alignment);

    /** Synchronous sweep + full purge to free memory *now*. */
    void emergency_reclaim();

    /** free() body; the public entry only adds optional op timing. */
    void free_impl(void* ptr);

    /** Request a sweep once the quarantine crosses a trigger (§3.2,
        §4.2), raising the pause gate past pause_factor (§5.7). */
    void maybe_trigger_sweep();

    /** One sweep pass: lock in, mark, STW recheck, drain, release. */
    void run_sweep();

    std::unique_ptr<Hooks> hooks_;
};

}  // namespace msw::core
