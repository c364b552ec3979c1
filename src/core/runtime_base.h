/**
 * @file
 * The layered UAF-runtime base classes.
 *
 *   alloc::Allocator                    the drop-in malloc interface
 *     └─ RuntimeBase                    sharded statistics surface
 *          ├─ FFMalloc                  (one-time allocator; no quarantine)
 *          └─ QuarantineRuntime         jade substrate + quarantine epochs
 *               │                       + committed-page hooks + roots
 *               │                       + reclaimer + sweep controller
 *               │                       + the sweep pass itself
 *               ├─ MineSweeper          linear mark (paper §3–§4)
 *               └─ MarkUs               transitive conservative mark
 *
 * QuarantineRuntime owns the whole sweep pass, written once: lock in the
 * quarantine epoch, arm the dirty tracker, mark concurrently, recheck
 * dirty pages, stacks and registers with the world stopped, drain
 * deferred unmaps, release every unmarked entry and keep the rest as
 * failed frees, purge. It also owns the layers that pass runs on —
 * SweepController (when sweeps run), Reclaimer (how memory comes back),
 * StatCells (how everything counts) — so both runtimes are timed and
 * counted by the same code. A derived class owns only its mark (the
 * initial scan set and the mark(ranges) hook) and its trigger policy.
 */
#pragma once

#include <memory>
#include <vector>

#include "alloc/allocator.h"
#include "alloc/jade_allocator.h"
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
 * substrate: the committed-page hooks, the quarantine epochs and
 * double-free bitmap, root/thread registration, the reclaimer, the sweep
 * controller and the sweep pass. Derived classes provide the mark
 * (scan_set() + mark()) and the trigger policy.
 */
class QuarantineRuntime : public RuntimeBase
{
  public:
    struct Config {
        alloc::JadeAllocator::Options jade{};
        std::size_t tl_buffer_entries = 64;
        Reclaimer::Config reclaim{};
        SweepController::Config control{};
        /** Create a dirty tracker (mostly-concurrent marking). */
        bool make_tracker = false;
        /** Report absorbed double frees to stderr (debug mode, §3). */
        bool report_double_frees = false;
        /** Mark before releasing; false releases every locked-in entry
            unconditionally (§5.5 partial versions 3-4). */
        bool sweep_enabled = true;
        /** Keep marked entries quarantined as failed frees; false
            releases them anyway (§5.5 version 5; unsafe). */
        bool keep_failed = true;
        /** Full allocator purge after every sweep (§4.5). */
        bool purging = true;
        /** Helper threads sharing the mark and release (§4.4). */
        unsigned helper_threads = 0;
        /**
         * Allocation policy for the whole runtime (substrate placement,
         * quarantine fill/canary, release ordering). The constructor
         * resolves this once — from jade.policy or MSW_POLICY — and
         * copies the resolved pointer into jade.policy and
         * reclaim.policy so every layer agrees; never null afterwards.
         */
        const alloc::AllocPolicy* policy = nullptr;
    };

    ~QuarantineRuntime() override;

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
    explicit QuarantineRuntime(const Config& config);

    /** The ranges the concurrent mark pass starts from. */
    virtual std::vector<sweep::Range> scan_set() const = 0;

    /**
     * Mark every quarantined allocation referenced from @p ranges in
     * mark_bits_; called once concurrently and once with the world
     * stopped (mostly-concurrent). Returns the bytes scanned.
     */
    virtual std::uint64_t mark(const std::vector<sweep::Range>& ranges) = 0;

    /** A freed pointer resolved against the substrate's metadata. */
    struct FreeTarget {
        std::uintptr_t base;
        std::size_t usable;
        bool is_large;
    };

    /** Resolve @p addr to its allocation; checks base==addr (invalid or
        interior frees are programming errors, as in the paper). */
    FreeTarget classify(std::uintptr_t addr) const;

    /**
     * Double-free de-duplication (paper §3): returns true (and counts)
     * if @p base is already quarantined — the free is idempotent.
     */
    bool absorb_double_free(void* ptr, std::uintptr_t base);

    Config config_;
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

    /** One sweep pass: lock in, mark, STW recheck, drain, release. */
    void run_sweep();

    std::unique_ptr<Hooks> hooks_;
};

}  // namespace msw::core
