/**
 * @file
 * MarkUs baseline (Ainsworth & Jones, S&P 2020) — the strongest prior
 * quarantine scheme the paper compares against.
 *
 * Like MineSweeper, MarkUs quarantines freed allocations; unlike
 * MineSweeper it decides safety with a *transitive, conservative
 * mark-and-sweep* in the style of the Boehm collector: starting from the
 * roots (globals, stacks, registers), every reachable object is marked by
 * chasing pointers through object contents; quarantined objects that were
 * never reached are released. This handles cycles inside the quarantine
 * naturally (a GC property) but pays for it with pointer-chasing,
 * per-word allocation lookups and mark-stack traffic — exactly the costs
 * MineSweeper's linear sweep eliminates (paper §4.1, §6.6).
 *
 * Everything shared with MineSweeper — the allocation front end (end-
 * pointer slack, hardened canary, retry/emergency-reclaim ladder, op
 * timing, the trigger), extent hooks, quarantine epochs, double-free
 * bitmap, root/thread registration, marker-thread lifecycle, deferred
 * unmaps and the sweep pass itself (lock-in, STW recheck, release,
 * counters) — lives in core::QuarantineRuntime. This class is only what
 * makes MarkUs MarkUs: the transitive mark from the roots, and the one
 * core::Options value (core_options() in markus.cc) that sets the
 * configuration below. A MarkUs-vs-MineSweeper comparison therefore
 * measures the two marks over the same front end and quarantine.
 *
 * Fidelity notes:
 *  - 25 % quarantine threshold (the paper's MarkUs configuration, §3.2);
 *  - no zeroing on free (MarkUs does not zero);
 *  - physical pages of large quarantined allocations are released, as in
 *    MarkUs (§4.2), but unmapped quarantine never triggers a mark (no
 *    9x rule) and allocations never pause (no §5.7 backpressure);
 *  - mostly-concurrent marking on one background thread, no helpers and
 *    no watchdog: a concurrent pass plus a stop-the-world recheck that
 *    rescans pages dirtied during marking and continues the transitive
 *    closure to a fixpoint (Boehm's mostly-parallel scheme).
 */
#pragma once

#include <vector>

#include "core/runtime_base.h"

namespace msw::baseline {

class MarkUs final : public core::QuarantineRuntime
{
  public:
    struct Options {
        /** Do not mark below this many quarantined bytes. */
        std::size_t min_mark_bytes = std::size_t{1} << 20;
        alloc::JadeAllocator::Options jade{};
    };

    MarkUs() : MarkUs(Options{}) {}
    explicit MarkUs(const Options& opts);
    ~MarkUs() override;

    MarkUs(const MarkUs&) = delete;
    MarkUs& operator=(const MarkUs&) = delete;

    const char* name() const override { return "markus"; }

  private:
    /** Resident roots and stacks: the transitive mark's starting set. */
    sweep::ScanSet scan_set() const override;
    /** Transitive closure from @p set (Boehm-style mark stack); the
        objects it reaches count as heap origin. */
    sweep::MarkStats mark(const sweep::ScanSet& set) override;
    /**
     * Scan [base, base+len) for pointers; push newly marked objects.
     * Returns the words that resolved to an allocation.
     * Conservative scan over racy memory: sanitizer instrumentation off
     * (see Marker::scan_chunk).
     */
    MSW_NO_SANITIZE_ADDRESS MSW_NO_SANITIZE_THREAD
    std::uint64_t scan_for_objects(std::uintptr_t base, std::size_t len,
                                   std::vector<sweep::Range>* worklist);
};

}  // namespace msw::baseline
