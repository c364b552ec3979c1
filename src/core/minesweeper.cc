#include "core/minesweeper.h"

#include "core/lifecycle.h"
#include "metrics/telemetry.h"

namespace msw::core {

using sweep::Range;

// msw-analyze: slow-path(one-time engine construction under the shim's
// g_state init latch; never runs on the steady-state alloc/free path)
MineSweeper::MineSweeper(const Options& opts)
    : QuarantineRuntime(opts),
      marker_(&mark_bits_, jade_.reservation().base(),
              jade_.reservation().end())
{
    controller_.start();

    // Last: every member is live, so the instance can safely serve
    // atfork callbacks from here on. First registered instance wins.
    lifecycle::register_runtime(this);
}

MineSweeper::~MineSweeper()
{
    // First: stop serving atfork callbacks before any member dies.
    lifecycle::unregister_runtime(this);
    // Before our members die: the sweep pass calls mark(), which
    // touches marker_, gone by the time the base destructor runs.
    controller_.shutdown();
}

// ---------------------------------------------------------------- sweeps

std::vector<Range>
MineSweeper::scan_set() const
{
    std::vector<Range> ranges = access_map_.committed_runs();
    for (const Range& r : roots_.roots())
        sweep::append_resident_subranges(r, &ranges);
    // Stacks are filtered to resident pages: untouched stack pages are
    // all-zero and cannot hold pointers.
    for (const Range& r : roots_.stacks())
        sweep::append_resident_subranges(r, &ranges);
    // Copy the provider under its lock: the shim may swap it while this
    // sweep is already running.
    std::function<std::vector<Range>()> provider;
    {
        LockGuard g(extra_roots_lock_);
        provider = extra_roots_provider_;
    }
    if (provider) {
        const std::vector<Range> internal = internal_regions();
        for (const Range& r : provider()) {
            bool overlaps_internal = false;
            for (const Range& i : internal) {
                if (r.base < i.end() && i.base < r.end()) {
                    overlaps_internal = true;
                    break;
                }
            }
            if (!overlaps_internal)
                sweep::append_resident_subranges(r, &ranges);
        }
    }
    return ranges;
}

sweep::MarkStats
MineSweeper::mark(const std::vector<Range>& ranges)
{
    return marker_.mark_ranges(ranges, workers_.get());
}

// msw-analyze: slow-path(configuration API: called once at engine
// construction and from tests, never on the alloc/free path)
void
MineSweeper::set_extra_roots_provider(
    std::function<std::vector<sweep::Range>()> provider)
{
    LockGuard g(extra_roots_lock_);
    extra_roots_provider_ = std::move(provider);
}

// ----------------------------------------------------- process lifecycle

// The acquire/release pairings below straddle fork(), outside what the
// static analysis can see; ordering is enforced at runtime by the
// lock-rank validator instead (lock_rank_fork_begin tolerates the bulk
// same-rank runs, inversions still panic).

void
MineSweeper::prepare_fork() MSW_NO_THREAD_SAFETY_ANALYSIS
{
    controller_.prepare_fork();  // kCoreControl (10); quiesces the sweep
    roots_.prepare_fork();       // kCoreRoots   (12)
    if (workers_ != nullptr)
        workers_->prepare_fork();  // kCoreWorkers (14); drains helpers
    reclaimer_.prepare_fork();     // kCoreUnmap   (16)
    extra_roots_lock_.lock();      // kCoreConfig  (18)
    quarantine_.prepare_fork();    // kQuarantineRegistry (20) -> (22)
    jade_.prepare_fork();          // kBinRegistry (30) -> ... -> (42)
}

void
MineSweeper::parent_after_fork() MSW_NO_THREAD_SAFETY_ANALYSIS
{
    jade_.parent_after_fork();
    quarantine_.parent_after_fork();
    extra_roots_lock_.unlock();
    reclaimer_.parent_after_fork();
    if (workers_ != nullptr)
        workers_->parent_after_fork();
    roots_.parent_after_fork();
    controller_.parent_after_fork();
}

void
MineSweeper::child_after_fork() MSW_NO_THREAD_SAFETY_ANALYSIS
{
    // Phase 1 — release the whole hierarchy (reverse rank order) and
    // reset state describing threads that did not survive the fork.
    jade_.child_after_fork();
    quarantine_.child_after_fork();
    extra_roots_lock_.unlock();
    reclaimer_.child_after_fork();
    if (workers_ != nullptr)
        workers_->child_after_fork();
    roots_.child_after_fork();
    controller_.child_after_fork();

    // Event counters described the parent's history; gauges (live /
    // committed bytes) describe the inherited heap and are kept.
    stats_.reset_events();
    metrics::telemetry().trace_event(metrics::TraceEvent::kForkChild);

    // Phase 2 — allocating fixups. These free and flush through the
    // interposed allocator, re-acquiring quarantine/bin/extent locks,
    // so they must only run once phase 1 has released everything.
    roots_.child_fixup();
    jade_.child_fixup();
}

void
MineSweeper::quiesce()
{
    controller_.shutdown();
}

}  // namespace msw::core
