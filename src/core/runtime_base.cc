#include "core/runtime_base.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <utility>

#include "alloc/extent.h"
#include "alloc/policy.h"
#include "alloc/size_classes.h"
#include "core/lifecycle.h"
#include "metrics/telemetry.h"
#include "util/bits.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/log.h"

namespace msw::core {

using alloc::ExtentKind;
using alloc::ExtentMeta;
using quarantine::Entry;
using sweep::Range;

using metrics::TraceEvent;

namespace {

/**
 * One release worker's tallies, kept on its own stack and summed after
 * the join, as Marker::mark_ranges sums MarkStats.
 */
struct ReleaseTally {
    std::uint64_t released = 0;
    std::uint64_t released_bytes = 0;
    std::uint64_t failed = 0;
    std::uint64_t fill_checks = 0;
    std::uint64_t fill_violations = 0;
    std::uint64_t bin_locks = 0;  ///< Bin-lock acquisitions by free_batch.
    std::vector<Entry> failed_entries;

    void
    add(const ReleaseTally& o)
    {
        released += o.released;
        released_bytes += o.released_bytes;
        failed += o.failed;
        fill_checks += o.fill_checks;
        fill_violations += o.fill_violations;
        bin_locks += o.bin_locks;
        failed_entries.insert(failed_entries.end(),
                              o.failed_entries.begin(),
                              o.failed_entries.end());
    }
};

/** The per-origin counter rows, in sweep::Origin order. */
constexpr Stat kOriginBytes[sweep::kNumOrigins] = {
    Stat::kBytesScannedHeap, Stat::kBytesScannedRoots,
    Stat::kBytesScannedStacks, Stat::kBytesScannedExtraRoots};
constexpr Stat kOriginPointers[sweep::kNumOrigins] = {
    Stat::kPointersFoundHeap, Stat::kPointersFoundRoots,
    Stat::kPointersFoundStacks, Stat::kPointersFoundExtraRoots};

/** Quarantine release-order adapter: the quarantine layer knows nothing
    of AllocPolicy, so the hook arrives as fn-pointer + context. */
void
shuffle_entries(quarantine::Entry* entries, std::size_t count, void* ctx)
{
    static_cast<const alloc::AllocPolicy*>(ctx)->shuffle(
        entries, count, sizeof(quarantine::Entry));
}

}  // namespace

/**
 * Extent hooks that keep the committed-page map exact: this is how sweeps
 * know which pages exist, and how purged pages are excluded from scanning
 * instead of being faulted back in (paper §4.5).
 */
class QuarantineRuntime::Hooks final : public alloc::ExtentHooks
{
  public:
    Hooks(QuarantineRuntime* owner, const vm::Reservation* heap)
        : alloc::ExtentHooks(heap), owner_(owner)
    {}

    [[nodiscard]] bool
    commit(std::uintptr_t addr, std::size_t len) override
    {
        if (heap_->protect_rw(addr, len) != vm::VmStatus::kOk) {
            return false;
        }
        owner_->access_map_.set_range(addr, len);
        // Pages appearing mid-epoch must be treated as dirty.
        if (owner_->tracker_ != nullptr &&
            owner_->reclaimer_.scan_active()) {
            owner_->tracker_->note_committed(addr, len);
        }
        return true;
    }

    [[nodiscard]] bool
    purge(std::uintptr_t addr, std::size_t len) override
    {
        // True decommit (discard + PROT_NONE), not jemalloc's
        // keep-accessible purge: sweeps skip these pages entirely.
        if (heap_->decommit(addr, len) != vm::VmStatus::kOk) {
            // Pages keep their backing and stay in the access map; the
            // extent stays accounted committed and is re-purged later.
            return false;
        }
        owner_->access_map_.clear_range(addr, len);
        return true;
    }

  private:
    QuarantineRuntime* owner_;
};

QuarantineRuntime::QuarantineRuntime(const Options& opts)
    : options_([&] {
          Options o = opts;
          // Quarantine runtimes replace decay purging with the post-sweep
          // full purge (§4.5); leaving decay on would purge behind the
          // page-access map's back from unhooked call sites.
          o.jade.decay_ms = 0;
          // Resolve the allocation policy exactly once, here, and hand
          // the same resolved pointer to every layer (substrate placement,
          // reclaimer fill, quarantine release order) so they cannot
          // disagree mid-run if MSW_POLICY changes.
          o.jade.policy = &alloc::resolve_policy(o.jade.policy);
          return o;
      }()),
      jade_(options_.jade),
      mark_bits_(jade_.reservation().base(), jade_.reservation().size()),
      quarantine_bitmap_(jade_.reservation().base(),
                         jade_.reservation().size()),
      access_map_(jade_.reservation().base(), jade_.reservation().size()),
      quarantine_(options_.tl_buffer_entries,
                  options_.jade.policy->shuffle != nullptr ? &shuffle_entries
                                                           : nullptr,
                  const_cast<alloc::AllocPolicy*>(options_.jade.policy)),
      reclaimer_({.unmapping = options_.unmapping,
                  .zeroing = options_.zeroing,
                  .max_pending_unmaps = options_.max_pending_unmaps,
                  .policy = options_.jade.policy},
                 &jade_, &access_map_, &quarantine_bitmap_, &stats_),
      controller_({.background = options_.mode != Mode::kSynchronous,
                   .watchdog_timeout_ms = options_.watchdog_timeout_ms},
                  [this] { run_sweep(); }, &stats_)
{
    // Before any chaining SEGV handler below (the MprotectTracker) is
    // installed: the crash classifier must be the innermost handler so
    // the tracker forwards non-write-barrier faults to it.
    lifecycle::install_crash_handler_from_env();

    hooks_ = std::make_unique<Hooks>(this, &jade_.reservation());
    jade_.extents().set_hooks(hooks_.get());

    if (options_.mode == Mode::kMostlyConcurrent) {
        tracker_ = sweep::make_dirty_tracker(&jade_.reservation());
        if (auto* mp =
                dynamic_cast<sweep::MprotectTracker*>(tracker_.get())) {
            mp->set_committed_filter(
                [](std::uintptr_t addr, void* arg) {
                    return static_cast<sweep::PageAccessMap*>(arg)->test(
                        addr);
                },
                &access_map_);
        }
    }
    if (options_.helper_threads > 0)
        workers_ = std::make_unique<sweep::SweepWorkers>(
            options_.helper_threads);
    // The derived constructor calls controller_.start() once every member
    // its mark touches exists.
}

QuarantineRuntime::~QuarantineRuntime()
{
    // The derived destructor already called controller_.shutdown() (it
    // must: the sweep pass calls the derived mark). Idempotent here.
    controller_.shutdown();
    // Restore default hooks before jade_ (a member) is destroyed, so any
    // destructor-time extent operations do not touch freed state.
    jade_.extents().set_hooks(nullptr);
}

// ----------------------------------------------------------------- alloc

// Inline: alloc() and alloc_aligned() each carry the whole body, so the
// front end adds no call or jump to the allocation path.
inline void*
QuarantineRuntime::alloc_impl(std::size_t size, std::size_t alignment)
{
    // Telemetry op sampling (MSW_TELEMETRY=ops): off means one relaxed
    // load and a predicted-not-taken branch; on costs two clock reads.
    const bool timed = __builtin_expect(metrics::telemetry().ops_on(), 0);
    const std::uint64_t t0 = timed ? util::now_ns() : 0;
    stats_.add(Stat::kAllocCalls);
    controller_.maybe_pause();
    // +1 byte so one-past-the-end pointers stay inside the allocation
    // (paper §3.2); size classes are 16 B-granular so this usually costs
    // nothing.
    void* p = alignment > 0 ? jade_.alloc_aligned(alignment, size + 1)
                            : jade_.alloc(size + 1);
    if (__builtin_expect(p == nullptr, 0))
        p = alloc_slow(size + 1, alignment);
    // Hardened policy: arm the canary in the reserved slack byte. Under
    // the default policy this is one predicted-not-taken branch.
    const auto arm = options_.jade.policy->arm_canary;
    if (__builtin_expect(arm != nullptr, 0) && p != nullptr)
        arm(p, jade_.usable_size(p));
    if (__builtin_expect(timed, 0))
        metrics::telemetry().alloc_ns.record(util::now_ns() - t0);
    return p;
}

void*
QuarantineRuntime::alloc(std::size_t size)
{
    return alloc_impl(size, 0);
}

void*
QuarantineRuntime::alloc_aligned(std::size_t alignment, std::size_t size)
{
    return alloc_impl(size, alignment);
}

// msw-analyze: slow-path(runs only once the substrate returned
// nullptr: the out-of-memory retry and emergency-reclaim ladder)
void*
QuarantineRuntime::alloc_slow(std::size_t request, std::size_t alignment)
{
    // Degradation ladder (never abort): the substrate failed, which means
    // the heap VA is exhausted or a commit hit transient ENOMEM — both
    // conditions a quarantine full of reclaimable memory can cause. Back
    // off, then interleave retries with emergency reclaims; only report
    // OOM to the caller once every attempt is spent.
    unsigned backoff_us = options_.alloc_retry_backoff_us;
    for (unsigned attempt = 0; attempt < options_.alloc_retry_attempts;
         ++attempt) {
        if (attempt > 0) {
            // First retry is cheap (the kernel may just have been briefly
            // unwilling); later ones drain quarantine first.
            emergency_reclaim();
        }
        if (backoff_us > 0) {
            ::usleep(backoff_us);
            backoff_us *= 2;
        }
        stats_.add(Stat::kCommitRetries);
        void* p = alignment > 0 ? jade_.alloc_aligned(alignment, request)
                                : jade_.alloc(request);
        if (p != nullptr)
            return p;
    }
    stats_.add(Stat::kOomReturns);
    metrics::telemetry().trace_event(TraceEvent::kOomReturn, request);
    MSW_LOG_WARN("alloc of %zu bytes failed after %u attempts with "
                 "emergency sweeps; returning nullptr",
                 request, options_.alloc_retry_attempts);
    return nullptr;
}

void
QuarantineRuntime::emergency_reclaim()
{
    stats_.add(Stat::kEmergencySweeps);
    metrics::telemetry().trace_event(TraceEvent::kEmergencySweep);
    if (!SweepController::in_sweep_context()) {
        quarantine_.flush_thread_buffer();
        if (!controller_.run_sweep_now()) {
            // Another thread owns the sweep; give it a moment to finish
            // so the purge below sees its released extents.
            controller_.wait_for_sweep_completion(100);
        }
    }
    // Return every free extent's pages to the OS so the next commit can
    // succeed even when the kernel is the constraint.
    jade_.purge_all();
}

// ------------------------------------------------------------------ free

void
QuarantineRuntime::free(void* ptr)
{
    if (ptr == nullptr)
        return;
    // Same sampling shape as alloc(): gate cost when off is one relaxed
    // load; the early returns inside free_impl stay untouched.
    const bool timed = __builtin_expect(metrics::telemetry().ops_on(), 0);
    if (!timed) {
        free_impl(ptr);
        return;
    }
    const std::uint64_t t0 = util::now_ns();
    free_impl(ptr);
    metrics::telemetry().free_ns.record(util::now_ns() - t0);
}

void
QuarantineRuntime::free_impl(void* ptr)
{
    stats_.add(Stat::kFreeCalls);
    // Resolve the block; base==addr is checked (invalid or interior
    // frees are programming errors, as in the paper).
    const std::uintptr_t addr = to_addr(ptr);
    MSW_CHECK(jade_.contains(addr));
    const ExtentMeta* meta = jade_.extents().lookup_live(addr);
    const bool is_large = meta->kind == ExtentKind::kLarge;
    std::uintptr_t base;
    std::size_t usable;
    if (is_large) {
        base = meta->base;
        usable = meta->bytes();
    } else {
        usable = alloc::class_size(meta->cls);
        base = meta->base + ((addr - meta->base) / usable) * usable;
    }
    MSW_CHECK(base == addr);

    // Double-free de-duplication (paper §3): while the allocation is in
    // quarantine, further frees are idempotent. Checked before the canary:
    // the quarantine fill already overwrote the canary of a freed block,
    // so testing it again on a double free would false-positive.
    if (quarantine_bitmap_.test_and_set(base)) {
        stats_.add(Stat::kDoubleFrees);
        if (options_.report_double_frees)
            MSW_LOG_WARN("double free of %p absorbed", ptr);
        return;
    }

    const auto check = options_.jade.policy->check_canary;
    if (__builtin_expect(check != nullptr, 0)) {
        stats_.add(Stat::kCanaryChecks);
        if (!check(ptr, usable)) {
            stats_.add(Stat::kCanaryViolations);
            alloc::policy_violation("heap-overflow canary clobbered at free",
                                    ptr);
        }
    }

    if (!options_.quarantine_enabled) {
        // Partial versions 1-2 (§5.5): apply unmap/zero side effects, then
        // forward straight to the allocator.
        if (options_.unmapping && is_large) {
            if (jade_.reservation().decommit(base, usable) ==
                vm::VmStatus::kOk) {
                if (!reclaimer_.protect_rw_with_retry(base, usable)) {
                    // Pages stuck inaccessible: handing them back for
                    // reuse would fault the program. Keep the block
                    // quarantined (bounded leak) instead of crashing.
                    quarantine_.insert(Entry::make(base, usable, true));
                    return;
                }
            } else if (options_.zeroing) {
                std::memset(ptr, 0, usable);
            }
        } else if (options_.zeroing) {
            std::memset(ptr, 0, usable);
        }
        quarantine_bitmap_.clear(base);
        jade_.free(ptr);
        return;
    }

    quarantine_.insert(
        reclaimer_.quarantine_prepare(ptr, base, usable, is_large));
    maybe_trigger_sweep();
}

// ------------------------------------------------------------- triggering

TriggerDecision
decide_trigger(const Options& opts, const TriggerInput& in)
{
    // Heap size for the trigger: total live bytes minus failed frees
    // (subtracted from both sides, §3.2) minus unmapped quarantine (which
    // no longer consumes memory, §4.2).
    const std::size_t heap = in.jade_live > in.failed + in.unmapped
                                 ? in.jade_live - in.failed - in.unmapped
                                 : 0;
    // What the next sweep will scan: the heap, and the roots, stacks and
    // extra roots the last one scanned. While those are the smaller part
    // this is the paper's rule; when they dominate, the quarantine may
    // grow with them so each sweep frees in proportion to its cost.
    const double cost =
        static_cast<double>(std::max(heap, in.last_non_heap_scan));
    const double pending = static_cast<double>(in.pending);

    TriggerDecision d;
    d.sweep = in.pending >= opts.min_sweep_bytes &&
              pending >= opts.sweep_threshold * cost;

    // Unmapped quarantine pressures kernel/allocator metadata even though
    // it holds no memory: sweep when it reaches 9x the footprint (§4.2).
    if (!d.sweep && in.unmapped >= opts.min_sweep_bytes &&
        static_cast<double>(in.unmapped) >=
            opts.unmapped_factor * static_cast<double>(in.committed)) {
        d.sweep = true;
    }
    if (!d.sweep)
        return d;

    // Backpressure (§5.7): if the quarantine has grown far past what a
    // sweep scans (the live heap, or the non-heap ranges when they are
    // larger) while a sweep is running, pause this allocating thread
    // until the sweep completes.
    const std::size_t live =
        heap > in.pending ? heap - in.pending : in.pending;
    d.pause = opts.pause_factor > 0 &&
              pending > opts.pause_factor *
                            static_cast<double>(
                                std::max(live, in.last_non_heap_scan));
    return d;
}

void
QuarantineRuntime::maybe_trigger_sweep()
{
    const std::size_t pending = quarantine_.pending_bytes();
    const std::size_t unmapped = quarantine_.unmapped_bytes();
    if (pending < options_.min_sweep_bytes &&
        unmapped < options_.min_sweep_bytes) {
        return;
    }
    const TriggerDecision d = decide_trigger(
        options_,
        {.pending = pending,
         .failed = quarantine_.failed_bytes(),
         .unmapped = unmapped,
         .jade_live = jade_.live_bytes(),
         .committed = access_map_.committed_bytes(),
         // msw-relaxed(stat-cells): threshold heuristic read; a stale
         // value only shifts when the next sweep triggers.
         .last_non_heap_scan =
             last_non_heap_scan_.load(std::memory_order_relaxed)});
    if (d.sweep)
        controller_.request_sweep(d.pause);
}

std::size_t
QuarantineRuntime::usable_size(const void* ptr) const
{
    // One byte of the underlying allocation is reserved for the
    // end-pointer guarantee; never report it as usable.
    return jade_.usable_size(ptr) - 1;
}

void
QuarantineRuntime::flush()
{
    quarantine_.flush_thread_buffer();
    jade_.flush();
    // Wait out any in-flight or requested sweep (no-op in synchronous
    // mode; serves stalled requests on this thread otherwise).
    controller_.wait_idle();
}

void
QuarantineRuntime::force_sweep()
{
    quarantine_.flush_thread_buffer();
    controller_.force_sweep();
}

void
QuarantineRuntime::run_sweep()
{
    reclaimer_.begin_scan();
    // Test hook: hold the sweep open while armed so tests can exercise
    // the concurrent free()/deferred-unmap machinery deterministically.
    while (util::failpoint_should_fail(util::Failpoint::kSweepDelay))
        ::usleep(1000);
    std::vector<Entry> locked_in;
    quarantine_.lock_in(locked_in);
    if (locked_in.empty()) {
        reclaimer_.end_scan();
        return;
    }
    // lock_in already ran the policy's release-order shuffle; count it.
    if (options_.jade.policy->shuffle != nullptr)
        stats_.add(Stat::kReleaseShuffles);

    const std::uint64_t cpu0 = util::thread_cpu_ns();
    const std::uint64_t helpers0 =
        workers_ != nullptr ? workers_->helper_cpu_ns() : 0;
    metrics::Telemetry& tele = metrics::telemetry();
    tele.trace_event(TraceEvent::kSweepBegin, locked_in.size());
    PhaseScope whole(stats_, Stat::kSweepWallNs, TraceEvent::kSweepEnd);

    if (options_.sweep_enabled) {
        {
            // Phase 1a (dirty-scan): arm the write tracker over the
            // ranges whose mutations the STW recheck must observe.
            PhaseScope dirty(stats_, Stat::kPhaseDirtyScanNs,
                             TraceEvent::kPhaseDirtyScan);
            if (tracker_ != nullptr) {
                std::vector<Range> tracked = access_map_.committed_runs();
                if (tracker_->tracks_arbitrary_memory()) {
                    for (const Range& r : roots_.roots())
                        tracked.push_back(r);
                }
                tracker_->begin(tracked);
            }
        }

        // Phase 1b (mark): concurrent mark from the runtime's scan set,
        // plus the STW recheck when tracking. The mark phase spans both
        // passes (the STW window included: its recheck is marking work;
        // kStwNs isolates the stop itself).
        PhaseScope marking(stats_, Stat::kPhaseMarkNs,
                           TraceEvent::kPhaseMark);
        sweep::MarkStats marked = mark(scan_set());

        if (tracker_ != nullptr) {
            // Phase 2 (mostly-concurrent only): brief stop-the-world
            // recheck of pages modified during phase 1 (§4.3).
            PhaseScope stw(stats_, Stat::kStwNs, TraceEvent::kStwPause,
                           &tele.stw_ns);
            roots_.stop_world();
            sweep::ScanSet rescan;
            std::vector<Range> dirty;
            tracker_->end_collect(dirty);
            // A tracker of arbitrary memory also reports dirty root pages.
            for (const Range& r : dirty) {
                rescan[jade_.contains(r.base) ? sweep::Origin::kHeap
                                              : sweep::Origin::kRoots]
                    .push_back(r);
            }
            if (!tracker_->tracks_arbitrary_memory()) {
                for (const Range& r : roots_.roots_stw())
                    sweep::append_resident_subranges(
                        r, &rescan[sweep::Origin::kRoots]);
            }
            std::vector<Range>& stacks = rescan[sweep::Origin::kStacks];
            for (const Range& r : roots_.stacks_stw())
                sweep::append_resident_subranges(r, &stacks);
            for (const Range& r : roots_.parked_registers())
                stacks.push_back(r);
            marked.add(mark(rescan));
            roots_.resume_world();
        }
        stats_.add(Stat::kBytesScanned, marked.bytes_scanned);
        stats_.add(Stat::kPointersFound, marked.pointers_found);
        for (unsigned o = 0; o < sweep::kNumOrigins; ++o) {
            stats_.add(kOriginBytes[o], marked.origin_bytes[o]);
            stats_.add(kOriginPointers[o], marked.origin_pointers[o]);
        }
        // msw-relaxed(stat-cells): threshold heuristic input; a stale
        // read only shifts when the next sweep triggers.
        last_non_heap_scan_.store(marked.non_heap_bytes(),
                                  std::memory_order_relaxed);
        marking.set_arg(marked.bytes_scanned);
    }

    {
        // Perform deferred page-unmaps now that marking is done: every
        // affected entry is still quarantined at this point, so this is
        // safe and the pages have already been scanned.
        PhaseScope drain(stats_, Stat::kPhaseDrainNs,
                         TraceEvent::kPhaseDrain);
        reclaimer_.drain_pending();
    }

    // Phase 3: walk the locked-in quarantine; release unmarked entries.
    // Mark bits are clear when no mark ran, so every entry passes.
    // Hardened policy: audit the quarantine fill of every entry about to
    // be released. A byte that changed while the block sat unreferenced
    // in quarantine is a write-after-free. Needs the fill to have been
    // written in the first place, hence the zeroing gate; unmapped
    // entries have no bytes to audit.
    const auto check_fill = options_.zeroing
                                ? options_.jade.policy->check_free_fill
                                : nullptr;
    std::vector<ReleaseTally> per_worker(
        workers_ != nullptr ? workers_->count() : 1);
    std::atomic<std::size_t> next{0};
    auto release_job = [&](unsigned index) {
        // Sweep context with restore on exit: index 0 runs on the
        // *calling* thread, which for emergency and watchdog-fallback
        // sweeps is a mutator whose own watchdog checks must survive.
        SweepController::ScopedSweepContext scoped;
        constexpr std::size_t kBatch = alloc::JadeAllocator::kFreeBatch;
        ReleaseTally t;
        for (;;) {
            // msw-relaxed(work-cursor): batch ticket; only RMW
            // atomicity matters, entries are read-only here.
            const std::size_t start =
                next.fetch_add(kBatch, std::memory_order_relaxed);
            if (start >= locked_in.size())
                break;
            const std::size_t end =
                std::min(start + kBatch, locked_in.size());
            void* frees[kBatch];
            std::size_t nfree = 0;
            for (std::size_t i = start; i < end; ++i) {
                const Entry& e = locked_in[i];
                if (mark_bits_.test_range(e.real_base(), e.usable)) {
                    ++t.failed;
                    if (options_.keep_failed) {
                        t.failed_entries.push_back(e);
                        continue;
                    }
                }
                if (check_fill != nullptr && !e.unmapped) {
                    ++t.fill_checks;
                    const void* bad = check_fill(to_ptr(e.real_base()),
                                                 e.usable);
                    if (bad != nullptr) {
                        ++t.fill_violations;
                        alloc::policy_violation(
                            "quarantined memory tampered before release",
                            bad);
                    }
                }
                if (!reclaimer_.prepare_release(e)) {
                    // Could not restore access under pressure: keep the
                    // entry quarantined; a later sweep retries.
                    ++t.failed;
                    t.failed_entries.push_back(e);
                    continue;
                }
                frees[nfree++] = to_ptr(e.real_base());
                ++t.released;
                t.released_bytes += e.usable;
            }
            // The ticket's releasable blocks go back in one call: each
            // bin lock once, the allocator's counters once.
            t.bin_locks += jade_.free_batch(frees, nfree);
        }
        // One store per worker, after its loop: no shared line is
        // written per entry, and the join below publishes it.
        per_worker[index] = std::move(t);
    };
    ReleaseTally total;
    {
        PhaseScope release(stats_, Stat::kPhaseReleaseNs,
                           TraceEvent::kPhaseRelease);
        if (workers_ != nullptr)
            workers_->run(release_job);
        else
            release_job(0);
        for (const ReleaseTally& t : per_worker)
            total.add(t);
        release.set_arg(total.released);
    }
    stats_.add(Stat::kEntriesReleased, total.released);
    stats_.add(Stat::kBytesReleased, total.released_bytes);
    stats_.add(Stat::kFailedFrees, total.failed);
    stats_.add(Stat::kSweepFillChecks, total.fill_checks);
    stats_.add(Stat::kCanaryViolations, total.fill_violations);
    stats_.add(Stat::kReleaseBinLocks, total.bin_locks);
    mark_bits_.clear_marks();
    quarantine_.store_failed(std::move(total.failed_entries));

    reclaimer_.end_scan();

    // §4.5: full allocator purge synchronised with the end of the sweep.
    if (options_.purging)
        jade_.purge_all();

    const std::uint64_t helpers1 =
        workers_ != nullptr ? workers_->helper_cpu_ns() : 0;
    stats_.add(Stat::kSweepCpuNs, (util::thread_cpu_ns() - cpu0) +
                                      (helpers1 - helpers0));
    whole.set_arg(total.released);
}

SweepStats
QuarantineRuntime::sweep_stats() const
{
    SweepStats s = stats_.read_all();
    s.sweeps = controller_.sweeps_done();
    // The gauge rows are FFMalloc's cells; this runtime's gauges are the
    // values stats() reports.
    s.live_bytes = live_bytes();
    s.committed_bytes = access_map_.committed_bytes();
    for (unsigned i = 0; i < util::kNumFailpoints; ++i)
        s.failpoint_hits[i] =
            util::failpoint_hits(static_cast<util::Failpoint>(i));
    return s;
}

void
QuarantineRuntime::add_root(const void* base, std::size_t len)
{
    roots_.add_root(base, len);
}

void
QuarantineRuntime::remove_root(const void* base)
{
    roots_.remove_root(base);
}

// msw-analyze: slow-path(once-per-thread registration at thread birth,
// not a per-allocation operation)
void
QuarantineRuntime::register_mutator_thread()
{
    roots_.register_current_thread();
    // Arm the lifecycle auto-drain: if this thread exits without the
    // matching unregister call, the TSD destructor performs it.
    lifecycle::note_mutator_thread(this);
}

void
QuarantineRuntime::unregister_mutator_thread()
{
    lifecycle::forget_mutator_thread();
    quarantine_.flush_thread_buffer();
    jade_.flush();
    roots_.unregister_current_thread();
    // A sweep that snapshotted the stack list before the removal may
    // still be scanning this thread's stack; the thread must not exit
    // (and its stack must not be unmapped) until that sweep drains.
    while (controller_.sweep_in_progress())
        util::sleep_ns(1000000);
}

std::vector<Range>
QuarantineRuntime::internal_regions() const
{
    std::vector<Range> out;
    const auto add = [&out](const vm::Reservation& r) {
        if (r.size() != 0)
            out.push_back(Range{r.base(), r.size()});
    };
    add(jade_.extents().meta_reservation());
    add(jade_.extents().page_map_reservation());
    add(mark_bits_.storage());
    add(mark_bits_.chunk_storage());
    add(quarantine_bitmap_.storage());
    add(quarantine_bitmap_.chunk_storage());
    add(access_map_.storage());
    return out;
}

std::size_t
QuarantineRuntime::live_bytes() const
{
    const std::size_t jade_live = jade_.live_bytes();
    const std::size_t quarantined = quarantine_.pending_bytes() +
                                    quarantine_.failed_bytes() +
                                    quarantine_.unmapped_bytes();
    return jade_live > quarantined ? jade_live - quarantined : 0;
}

alloc::AllocatorStats
QuarantineRuntime::stats() const
{
    const quarantine::QuarantineStats qs = quarantine_.stats();
    alloc::AllocatorStats s;
    s.live_bytes = live_bytes();
    s.committed_bytes = access_map_.committed_bytes();
    s.metadata_bytes =
        jade_.stats().metadata_bytes + mark_bits_.shadow_bytes() * 2;
    s.quarantine_bytes =
        qs.pending_bytes + qs.failed_bytes + qs.unmapped_bytes;
    s.sweeps = controller_.sweeps_done();
    s.alloc_calls = stats_.read(Stat::kAllocCalls);
    s.free_calls = stats_.read(Stat::kFreeCalls);
    return s;
}

}  // namespace msw::core
