// Ledger balance over every quarantine runtime: after a deterministic
// alloc/free trace, every freed byte is either released by a sweep or
// still quarantined (pending, failed or unmapped), and every free is
// either a released entry or a still-quarantined one. The same trace
// checks the phase accounting: phase times fit inside the sweeps' wall
// time, stop-the-world windows are counted and timed exactly once,
// release takes at most one bin lock per released entry, mark finds at
// most one pointer per scanned word, and the per-origin scan counters
// add up to the totals. A synchronous run of the trace with no helpers
// and one with six must release alike and leave the same heap behind.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "alloc/policy.h"
#include "baselines/markus.h"
#include "core/minesweeper.h"
#include "metrics/telemetry.h"
#include "util/bits.h"
#include "util/rng.h"

namespace msw::core {
namespace {

struct Roots {
    void* slot[64] = {};
};

struct RuntimeCase {
    const char* name;
    std::unique_ptr<QuarantineRuntime> (*make)();
    bool stops_world;  ///< Mostly-concurrent: every sweep has an STW.
};

void
PrintTo(const RuntimeCase& c, std::ostream* os)
{
    *os << c.name;
}

constexpr std::size_t kMinSweepBytes = std::size_t{64} << 10;

std::unique_ptr<QuarantineRuntime>
make_minesweeper(Mode mode)
{
    Options o;
    o.mode = mode;
    o.helper_threads = 2;
    o.min_sweep_bytes = kMinSweepBytes;
    o.jade.heap_bytes = std::size_t{1} << 30;
    return std::make_unique<MineSweeper>(o);
}

/** What the trace freed, for the ledger checks. */
struct Freed {
    std::uint64_t frees = 0;
    std::uint64_t bytes = 0;
    std::set<std::uintptr_t> bases;
};

/**
 * The deterministic trace: 2 % page-scale blocks take the unmap path,
 * and dangling root copies make some entries fail their sweep. Ends
 * with a flush and a forced sweep.
 */
Freed
run_trace(QuarantineRuntime& rt)
{
    Roots roots;
    rt.add_root(&roots, sizeof(roots));
    Rng rng(11);
    std::vector<void*> live;
    Freed freed;
    const auto release = [&](void* p) {
        // The quarantine accounts the substrate's usable size (the
        // runtime's usable_size() hides the end-pointer slack byte).
        freed.bytes += rt.substrate().usable_size(p);
        freed.bases.insert(to_addr(p));
        ++freed.frees;
        rt.free(p);
    };

    for (int i = 0; i < 40000; ++i) {
        if (live.empty() || rng.next_bool(0.55)) {
            const std::size_t size =
                rng.next_bool(0.02) ? (16u << 10) + rng.next_below(240u << 10)
                                    : 1 + rng.next_below(512);
            void* p = rt.alloc(size);
            EXPECT_NE(p, nullptr);
            live.push_back(p);
        } else {
            const std::size_t idx = rng.next_below(live.size());
            void* p = live[idx];
            if (rng.next_below(16) == 0)
                roots.slot[rng.next_below(64)] = p;
            release(p);
            live[idx] = live.back();
            live.pop_back();
        }
    }
    for (void* p : live)
        release(p);
    rt.flush();
    rt.force_sweep();
    rt.remove_root(&roots);
    return freed;
}

class LedgerTest : public ::testing::TestWithParam<RuntimeCase>
{
};

TEST_P(LedgerTest, FreedBytesAndEntriesBalance)
{
    const std::unique_ptr<QuarantineRuntime> rt = GetParam().make();
    const Freed freed = run_trace(*rt);

    const SweepStats st = rt->sweep_stats();
    EXPECT_GT(st.sweeps, 1u);
    EXPECT_GT(st.failed_frees, 0u);
    EXPECT_EQ(freed.bytes, st.bytes_released + rt->stats().quarantine_bytes);

    std::uint64_t quarantined = 0;
    for (std::uintptr_t base : freed.bases)
        quarantined += rt->in_quarantine(to_ptr(base)) ? 1 : 0;
    EXPECT_GT(quarantined, 0u);
    EXPECT_EQ(st.entries_released + quarantined, freed.frees);
}

// Release hands each ticket to JadeAllocator::free_batch, which takes a
// bin lock once per bin the ticket touches: never more than one per
// released entry (page-scale entries take none).
TEST_P(LedgerTest, ReleaseTakesAtMostOneBinLockPerEntry)
{
    const std::unique_ptr<QuarantineRuntime> rt = GetParam().make();
    run_trace(*rt);
    const SweepStats st = rt->sweep_stats();
    EXPECT_GT(st.release_bin_locks, 0u);
    EXPECT_LE(st.release_bin_locks, st.entries_released);
}

// pointers_found counts scanned words, so it is bounded by the words
// scanned; the dangling root copies guarantee some hits.
TEST_P(LedgerTest, MarkFindsAtMostOnePointerPerScannedWord)
{
    const std::unique_ptr<QuarantineRuntime> rt = GetParam().make();
    run_trace(*rt);
    const SweepStats st = rt->sweep_stats();
    EXPECT_GT(st.pointers_found, 0u);
    EXPECT_LE(st.pointers_found, st.bytes_scanned / 8);
}

TEST_P(LedgerTest, PhaseTimesFitTheSweepWallTime)
{
    metrics::Telemetry& tele = metrics::telemetry();
    tele.enabled.store(true, std::memory_order_relaxed);
    const std::uint64_t stw_count0 = tele.stw_ns.count();
    const std::uint64_t stw_sum0 = tele.stw_ns.sum();
    const std::uint64_t pushed0 = tele.trace.pushed();

    const std::unique_ptr<QuarantineRuntime> rt = GetParam().make();
    run_trace(*rt);
    const SweepStats st = rt->sweep_stats();

    // Sweeps that locked in a non-empty epoch, from the trace ring (each
    // one stops the world once in mostly-concurrent mode).
    static metrics::TraceRecord ring[metrics::TraceRing::kSlots];
    ASSERT_LE(tele.trace.pushed() - pushed0, metrics::TraceRing::kSlots)
        << "trace ring wrapped; the sweep census would be partial";
    const std::size_t n = tele.trace.snapshot(ring, metrics::TraceRing::kSlots);
    std::uint64_t swept = 0;
    for (std::size_t i = 0; i < n; ++i) {
        swept += ring[i].ticket >= pushed0 &&
                 ring[i].event == metrics::TraceEvent::kSweepBegin;
    }
    tele.enabled.store(false, std::memory_order_relaxed);

    EXPECT_GT(swept, 0u);
    EXPECT_GT(st.sweep_wall_ns, 0u);
    EXPECT_LE(st.phase_dirty_scan_ns + st.phase_mark_ns + st.phase_drain_ns +
                  st.phase_release_ns,
              st.sweep_wall_ns);
    EXPECT_LE(st.stw_ns, st.phase_mark_ns);
    EXPECT_EQ(st.stw_ns > 0, GetParam().stops_world);
    EXPECT_EQ(tele.stw_ns.count() - stw_count0,
              GetParam().stops_world ? swept : 0u);
    EXPECT_EQ(tele.stw_ns.sum() - stw_sum0, st.stw_ns);
}

// The per-origin rows split the two mark totals: they sum to
// bytes_scanned and to pointers_found. The registered root table is
// scanned every sweep; MineSweeper scans the committed heap and MarkUs
// the objects its mark reaches.
TEST_P(LedgerTest, ScanOriginsSumToTheTotals)
{
    const std::unique_ptr<QuarantineRuntime> rt = GetParam().make();
    run_trace(*rt);
    const SweepStats st = rt->sweep_stats();
    EXPECT_EQ(st.bytes_scanned_heap + st.bytes_scanned_roots +
                  st.bytes_scanned_stacks + st.bytes_scanned_extra_roots,
              st.bytes_scanned);
    EXPECT_EQ(st.pointers_found_heap + st.pointers_found_roots +
                  st.pointers_found_stacks + st.pointers_found_extra_roots,
              st.pointers_found);
    EXPECT_GT(st.bytes_scanned_roots, 0u);
    EXPECT_GT(st.pointers_found_roots, 0u);
    EXPECT_GT(st.bytes_scanned_heap, 0u);
    EXPECT_EQ(st.bytes_scanned_extra_roots, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Runtimes, LedgerTest,
    ::testing::Values(
        RuntimeCase{"fully",
                    [] { return make_minesweeper(Mode::kFullyConcurrent); },
                    false},
        RuntimeCase{"mostly",
                    [] { return make_minesweeper(Mode::kMostlyConcurrent); },
                    true},
        RuntimeCase{"synchronous",
                    [] { return make_minesweeper(Mode::kSynchronous); },
                    false},
        RuntimeCase{"markus",
                    []() -> std::unique_ptr<QuarantineRuntime> {
                        baseline::MarkUs::Options o;
                        o.min_mark_bytes = kMinSweepBytes;
                        o.jade.heap_bytes = std::size_t{1} << 30;
                        return std::make_unique<baseline::MarkUs>(o);
                    },
                    true}),
    [](const ::testing::TestParamInfo<RuntimeCase>& info) {
        return std::string(info.param.name);
    });

/** What a synchronous trace left behind, for the helper-count diff. */
struct ReleaseOutcome {
    std::uint64_t entries_released;
    std::uint64_t failed_frees;
    std::uint64_t release_bin_locks;
    alloc::AllocatorStats stats;
    std::vector<std::uintptr_t> next_offsets;  ///< From the heap base.
};

ReleaseOutcome
synchronous_outcome(unsigned helpers)
{
    Options o;
    o.mode = Mode::kSynchronous;
    o.helper_threads = helpers;
    o.min_sweep_bytes = kMinSweepBytes;
    o.jade.heap_bytes = std::size_t{1} << 30;
    // The hardened policy shuffles and places from a per-thread entropy
    // seed, so only the default policy makes the heap's shape a function
    // of the trace (HardenedRuntime covers the shuffled order).
    o.jade.policy = &alloc::default_policy();
    MineSweeper rt(o);
    run_trace(rt);
    const SweepStats st = rt.sweep_stats();
    ReleaseOutcome out{st.entries_released, st.failed_frees,
                       st.release_bin_locks, rt.stats(), {}};
    const std::uintptr_t base = rt.substrate().reservation().base();
    Rng rng(23);
    for (int i = 0; i < 4000; ++i) {
        const std::size_t size =
            rng.next_bool(0.02) ? (16u << 10) + rng.next_below(240u << 10)
                                : 1 + rng.next_below(512);
        void* p = rt.alloc(size);
        EXPECT_NE(p, nullptr);
        out.next_offsets.push_back(to_addr(p) - base);
    }
    return out;
}

// Release runs on the sweeping thread alone, walking the locked-in list
// in order, so helpers change how fast the mark runs and nothing else:
// the same entries go back through the same bin locks, and the heap they
// leave hands out the same blocks.
TEST(ReleaseDifferential, OutcomeDoesNotDependOnHelperCount)
{
    const ReleaseOutcome none = synchronous_outcome(0);
    const ReleaseOutcome six = synchronous_outcome(6);
    EXPECT_GT(none.entries_released, 0u);
    EXPECT_GT(none.failed_frees, 0u);
    EXPECT_EQ(none.entries_released, six.entries_released);
    EXPECT_EQ(none.failed_frees, six.failed_frees);
    EXPECT_EQ(none.release_bin_locks, six.release_bin_locks);
    EXPECT_EQ(none.stats.live_bytes, six.stats.live_bytes);
    EXPECT_EQ(none.stats.committed_bytes, six.stats.committed_bytes);
    EXPECT_EQ(none.stats.metadata_bytes, six.stats.metadata_bytes);
    EXPECT_EQ(none.stats.quarantine_bytes, six.stats.quarantine_bytes);
    EXPECT_EQ(none.stats.sweeps, six.stats.sweeps);
    EXPECT_EQ(none.stats.alloc_calls, six.stats.alloc_calls);
    EXPECT_EQ(none.stats.free_calls, six.stats.free_calls);
    EXPECT_EQ(none.next_offsets, six.next_offsets);
}

}  // namespace
}  // namespace msw::core
