/**
 * @file
 * Sweeper-thread lifecycle and control plane, extracted from the
 * MineSweeper god-object so MineSweeper and MarkUs share one audited
 * implementation of the hard parts: the request/done condition variables,
 * the single-sweeper token, the allocation-pause gate, the mutator-side
 * watchdog and the shutdown drain.
 *
 * The controller owns *when* a sweep runs, never *what* it does: the
 * owning runtime passes a sweep function that performs one full pass
 * (mark + release + purge). The function is always invoked with the
 * single-sweep token held and no controller lock held, from either the
 * background sweeper thread, a mutator that won a watchdog/force/
 * emergency fallback, or the caller itself in synchronous mode.
 *
 * Invariants preserved from the original implementation:
 *  - at most one sweep executes at a time (CAS on sweep_in_progress_);
 *  - a sweep request made before shutdown is either served or safely
 *    abandoned; the destructor-path drain guarantees no thread is left
 *    blocked on controller state while the owner destroys its members;
 *  - threads executing sweep machinery (in_sweep_context()) never block
 *    in the pause gate they are responsible for clearing.
 */
#pragma once

#include <condition_variable>
#include <functional>
#include <thread>

#include "core/stat_cells.h"
#include "util/lock_rank.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace msw::core {

class SweepController
{
  public:
    struct Config {
        /** Serve requests from a dedicated sweeper thread. When false the
            controller degenerates to synchronous inline sweeps. */
        bool background = true;

        /**
         * Deadline for the background sweeper to pick up a request before
         * mutators fall back to synchronous sweeping (0 disables the
         * watchdog).
         */
        std::uint64_t watchdog_timeout_ms = 0;

        /** Poll interval for force/flush waits when the watchdog is off. */
        std::uint64_t wait_poll_ms = 500;
    };

    /**
     * @param sweep_fn Runs exactly one sweep pass. Called with the
     *        single-sweep token held and no controller lock held.
     * @param stats Receives kPauseNs / kWatchdogFallbacks.
     */
    SweepController(const Config& config, std::function<void()> sweep_fn,
                    StatCells* stats);

    /** Implies shutdown(). */
    ~SweepController();

    SweepController(const SweepController&) = delete;
    SweepController& operator=(const SweepController&) = delete;

    /**
     * Spawn the background sweeper (no-op in synchronous mode). Called by
     * the owning runtime at the end of its constructor, once every member
     * the sweep function touches exists.
     */
    void start();

    /**
     * Stop serving: join the sweeper, wait out any in-flight fallback
     * sweep (claiming the sweep token permanently), and drain control-path
     * waiters. Idempotent. The owner MUST call this at the top of its own
     * destructor — before the members the sweep function touches are
     * destroyed; the base-class destructor chain runs too late for that.
     */
    void shutdown();

    /**
     * Ask for a background sweep (runs one inline in synchronous mode).
     * @param pause_allocations Also raise the backpressure gate: mutators
     *        entering maybe_pause() block until the sweep completes (§5.7).
     */
    void request_sweep(bool pause_allocations);

    /**
     * Run one sweep on the calling thread if no sweep is in flight
     * (single-sweeper invariant via CAS). Returns false if another thread
     * holds the sweep or shutdown has begun.
     */
    bool
    run_sweep_now()
    {
        return claim_and_sweep(/*by_sweeper=*/false);
    }

    /**
     * Request a sweep and wait for one that starts after this call to
     * complete (a sweep already in flight may have marked before the
     * caller's last writes), sweeping on the calling thread if the
     * background sweeper misses the deadline.
     */
    void force_sweep();

    /**
     * Wait until no sweep is requested or in flight (flush semantics),
     * serving stalled requests on the calling thread. Returns immediately
     * in synchronous mode.
     */
    void wait_idle();

    /** Backpressure gate on the allocation path (accounts kPauseNs). */
    void maybe_pause();

    /** Mutator-side stall detection; falls back to a synchronous sweep. */
    void check_watchdog();

    /**
     * atfork integration (called by core/lifecycle in rank order).
     *
     * prepare_fork() quiesces: it waits for any in-flight sweep to
     * complete and returns holding sweep_mu_, so the child forks with
     * the control plane consistent and no sweep half-done over the
     * subsystem locks. parent_after_fork() releases the mutex.
     * child_after_fork() releases it, resets the control state (the
     * single-sweep token, pause gate, watchdog and waiter counts all
     * described threads that do not exist in the child) and discards the
     * inherited — dead — sweeper thread handle; the sweeper itself is
     * re-spawned *lazily* on the next request (a child of a
     * multi-threaded fork may only be async-signal-safe until exec, and
     * TSan forbids thread creation in the atfork child handler).
     */
    void prepare_fork();
    void parent_after_fork();
    void child_after_fork();

    /** Wait (bounded) for the current in-flight sweep to complete. */
    void wait_for_sweep_completion(std::uint64_t timeout_ms);

    bool
    sweep_in_progress() const
    {
        return sweep_in_progress_.load(std::memory_order_acquire);
    }

    std::uint64_t
    sweeps_done() const
    {
        // msw-relaxed(sweeper-token): monotonic stats read; callers
        // needing an ordered count wait under sweep_mu_ instead.
        return sweeps_done_.load(std::memory_order_relaxed);
    }

    bool
    background() const
    {
        return config_.background;
    }

    /**
     * True on threads executing sweep machinery (the sweeper thread, and
     * a mutator while it releases for an emergency or watchdog-fallback
     * sweep). In the self-hosted deployment their internal allocations
     * arrive through the interposed malloc; they must never block in the
     * allocation-pausing backpressure they themselves are responsible
     * for clearing.
     */
    static bool in_sweep_context();

    /**
     * Mark the current scope as sweep machinery, restoring the previous
     * state on exit: release runs on the thread that runs the sweep,
     * which for emergency and watchdog-fallback sweeps is a mutator
     * whose own watchdog checks must survive the sweep.
     */
    class ScopedSweepContext
    {
      public:
        ScopedSweepContext();
        ~ScopedSweepContext();

        ScopedSweepContext(const ScopedSweepContext&) = delete;
        ScopedSweepContext& operator=(const ScopedSweepContext&) = delete;

      private:
        bool saved_;
    };

  private:
    void sweeper_loop();

    /**
     * The one sweep-claim path: take the single-sweep token (unless a
     * fork is quiescing), record the start, run sweep_fn_, record the
     * completion and notify. The background sweeper passes
     * @p by_sweeper: it runs only while its request is still pending,
     * and serving clears the watchdog's stall latch.
     */
    bool claim_and_sweep(bool by_sweeper);

    /** Serve a pending post-fork lazy respawn of the sweeper thread. */
    void ensure_sweeper();

    /** Sweep on the calling thread for a missed deadline; counts it. */
    void fallback_sweep();

    /** maybe_pause() once the gate is up: wait for the sweep (bounded
        by the watchdog deadline), accounting kPauseNs. */
    void pause_until_swept();

    Config config_;
    std::function<void()> sweep_fn_;
    StatCells* stats_;

    std::thread sweeper_thread_;
    // Rank kCoreControl: acquired with nothing else held; everything the
    // sweep does (quarantine, bins, extents) ranks higher.
    mutable Mutex sweep_mu_{util::LockRank::kCoreControl};
    std::condition_variable_any sweep_cv_;
    std::condition_variable_any sweep_done_cv_;
    bool sweep_requested_ MSW_GUARDED_BY(sweep_mu_) = false;
    /** Sweeps begun; the token serializes them, so the n-th started
     *  sweep is the n-th to bump sweeps_done_. */
    std::uint64_t sweeps_started_ MSW_GUARDED_BY(sweep_mu_) = 0;
    bool shutdown_ MSW_GUARDED_BY(sweep_mu_) = false;
    /** prepare_fork() claimed sweep_in_progress_; the after-fork hooks
     *  must release it. Written only with sweep_mu_ held. */
    bool fork_token_held_ MSW_GUARDED_BY(sweep_mu_) = false;
    /** A fork is quiescing: run_sweep_now()/the sweeper must not start
     *  new sweeps, or back-to-back sweeps under force-sweep pressure
     *  starve prepare_fork()'s token claim indefinitely. */
    std::atomic<bool> fork_pending_{false};
    std::atomic<bool> stopped_{false};
    std::atomic<bool> sweep_in_progress_{false};
    /** Set by child_after_fork(); consumed by ensure_sweeper(). */
    std::atomic<bool> sweeper_needs_respawn_{false};
    std::atomic<bool> pause_flag_{false};
    std::atomic<std::uint64_t> sweeps_done_{0};

    // Watchdog: timestamp of the oldest unserved sweep request (0 = none)
    // and a sticky "sweeper considered stalled" latch, cleared when the
    // background sweeper resumes serving requests.
    std::atomic<std::uint64_t> sweep_request_ns_{0};
    std::atomic<bool> watchdog_tripped_{false};

    // Threads blocked in force_sweep()/wait_idle()/pause waits. shutdown()
    // drains these before returning, so control-path calls that raced
    // shutdown return safely instead of touching freed owner state.
    std::atomic<int> control_waiters_{0};
};

}  // namespace msw::core
