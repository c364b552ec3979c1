#include "baselines/markus.h"

#include <limits>

#include "util/bits.h"

namespace msw::baseline {

using sweep::Range;

namespace {

/** MarkUs as one core::Options value (the fidelity notes in markus.h). */
core::Options
core_options(const MarkUs::Options& opts)
{
    core::Options o;
    o.jade = opts.jade;
    // Background concurrent marking plus the STW recheck of dirty pages.
    o.mode = core::Mode::kMostlyConcurrent;
    o.sweep_threshold = 0.25;
    o.min_sweep_bytes = opts.min_mark_bytes;
    // MarkUs does *not* zero freed data — reachability through the
    // quarantine is resolved by the transitive marking pass instead.
    o.zeroing = false;
    o.helper_threads = 0;
    o.watchdog_timeout_ms = 0;
    // No allocation backpressure, and unmapped quarantine never triggers
    // a mark: no byte count reaches an infinite multiple of the
    // footprint.
    o.pause_factor = 0;
    o.unmapped_factor = std::numeric_limits<double>::infinity();
    return o;
}

}  // namespace

MarkUs::MarkUs(const Options& opts)
    : QuarantineRuntime(core_options(opts))
{
    controller_.start();
}

MarkUs::~MarkUs()
{
    // Before our members die: the sweep pass runs on the controller's
    // thread and calls back into this (derived) object's mark().
    controller_.shutdown();
}

std::uint64_t
MarkUs::scan_for_objects(std::uintptr_t base, std::size_t len,
                         std::vector<Range>* worklist)
{
    // Conservative Boehm-style scan: every aligned word is treated as a
    // potential pointer; any word resolving to an allocation marks that
    // allocation and schedules its contents for scanning. The per-word
    // allocation lookup is the cost MineSweeper's range test avoids.
    //
    // Ranges that lie inside the heap may have been derived from racy
    // metadata (lookup_relaxed), so inaccessible pages are skipped; this
    // is stable during a mark because decommits are deferred while the
    // reclaimer's scan epoch is open and commits only ever add
    // accessibility.
    std::uintptr_t lo = align_up(base, sizeof(std::uint64_t));
    const std::uintptr_t hi = align_down(base + len, sizeof(std::uint64_t));
    const std::uintptr_t heap_base = jade_.reservation().base();
    const std::uintptr_t heap_end = jade_.reservation().end();
    const bool in_heap = base >= heap_base && base < heap_end;
    std::uintptr_t page_checked_until = 0;
    std::uint64_t found = 0;
    for (; lo < hi; lo += sizeof(std::uint64_t)) {
        if (in_heap && lo >= page_checked_until) {
            if (!access_map_.test(lo)) {
                // Skip the rest of this inaccessible page.
                lo = align_down(lo, vm::kPageSize) + vm::kPageSize -
                     sizeof(std::uint64_t);
                continue;
            }
            page_checked_until = align_down(lo, vm::kPageSize) +
                                 vm::kPageSize;
        }
        // Relaxed atomic: mutators write scanned memory concurrently and
        // the conservative mark tolerates torn/stale words by design.
        // msw-relaxed(marker-scan): see above — conservative scan.
        const std::uint64_t v = __atomic_load_n(
            to_ptr_of<const std::uint64_t>(lo), __ATOMIC_RELAXED);
        if (v - heap_base >= heap_end - heap_base)
            continue;
        alloc::JadeAllocator::AllocationInfo info;
        if (!jade_.lookup_relaxed(v, &info))
            continue;
        ++found;
        if (mark_bits_.test_and_set(info.base))
            continue;  // already marked
        // Unmapped quarantined objects have no contents to traverse.
        if (access_map_.test(info.base))
            worklist->push_back(Range{info.base, info.usable});
    }
    return found;
}

std::vector<Range>
MarkUs::scan_set() const
{
    std::vector<Range> ranges;
    for (const Range& r : roots_.roots())
        sweep::append_resident_subranges(r, &ranges);
    for (const Range& r : roots_.stacks())
        sweep::append_resident_subranges(r, &ranges);
    return ranges;
}

sweep::MarkStats
MarkUs::mark(const std::vector<Range>& ranges)
{
    // The input ranges seed the mark stack; every object reached is
    // pushed in turn until the closure is complete.
    std::vector<Range> worklist(ranges);
    sweep::MarkStats stats;
    while (!worklist.empty()) {
        const Range r = worklist.back();
        worklist.pop_back();
        stats.bytes_scanned += r.len;
        stats.pointers_found += scan_for_objects(r.base, r.len, &worklist);
    }
    return stats;
}

}  // namespace msw::baseline
