// The sweep trigger scaled by what a sweep scans (DESIGN.md §3): a sweep
// fires once pending quarantine reaches sweep_threshold x the larger of
// the heap and the non-heap bytes (roots, stacks, extra roots, registers)
// the last sweep scanned. Synchronous mode makes every trace here
// deterministic: the sweep runs inside the free() that trips it. Also
// checked: the pause gate is not raised at the trigger point, and a
// sweep that registers the main thread does not grow its [stack]
// mapping by reading below it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/minesweeper.h"
#include "util/rng.h"

namespace msw::core {
namespace {

constexpr std::size_t kMinSweepBytes = std::size_t{64} << 10;
constexpr std::size_t kBlock = 1000;

Options
sync_options()
{
    Options o;
    o.mode = Mode::kSynchronous;
    o.helper_threads = 0;
    o.min_sweep_bytes = kMinSweepBytes;
    o.jade.heap_bytes = std::size_t{1} << 30;
    return o;
}

/** Non-heap bytes scanned so far, from the exported per-origin rows. */
std::uint64_t
non_heap_scanned(const SweepStats& s)
{
    return s.bytes_scanned_roots + s.bytes_scanned_stacks +
           s.bytes_scanned_extra_roots;
}

/** What one trace observed. */
struct TraceResult {
    std::uint64_t sweeps = 0;
    /** Pending quarantine bytes at each sweep's trigger. */
    std::vector<std::size_t> trigger_pending;
    /** Non-heap bytes each sweep scanned. */
    std::vector<std::uint64_t> sweep_non_heap;
};

/**
 * A fixed churn: keep @p live_blocks blocks of kBlock bytes alive and
 * replace a random one @p steps times. After every free, check that
 * pending quarantine stays within the trigger's bound: sweep_threshold x
 * max(heap, the last sweep's non-heap scan), or min_sweep_bytes, plus one
 * thread buffer. @p at_step runs before each step (it may add or remove
 * roots).
 */
template <typename AtStep>
TraceResult
churn(QuarantineRuntime& rt, const Options& o, std::size_t live_blocks,
      std::size_t steps, AtStep at_step)
{
    Rng rng(5);
    std::vector<void*> live;
    for (std::size_t i = 0; i < live_blocks; ++i)
        live.push_back(rt.alloc(kBlock));
    const std::size_t usable = rt.substrate().usable_size(live[0]);

    TraceResult out;
    std::uint64_t last_non_heap = 0;
    std::uint64_t non_heap_total = 0;
    for (std::size_t step = 0; step < steps; ++step) {
        at_step(step);
        const std::size_t idx = rng.next_below(live.size());
        const std::size_t pending_before = rt.stats().quarantine_bytes;
        rt.free(live[idx]);
        live[idx] = rt.alloc(kBlock);

        const SweepStats s = rt.sweep_stats();
        if (s.sweeps != out.sweeps) {
            EXPECT_EQ(s.sweeps, out.sweeps + 1) << "one sweep per free";
            out.sweeps = s.sweeps;
            out.trigger_pending.push_back(pending_before + usable);
            last_non_heap = non_heap_scanned(s) - non_heap_total;
            non_heap_total = non_heap_scanned(s);
            out.sweep_non_heap.push_back(last_non_heap);
        }
        // No failed or unmapped entries here, so the quarantine is the
        // pending epoch; live + quarantine bounds the trigger's heap.
        const alloc::AllocatorStats a = rt.stats();
        const double cost = static_cast<double>(std::max<std::uint64_t>(
            a.live_bytes + a.quarantine_bytes, last_non_heap));
        const double bound =
            std::max(o.sweep_threshold * cost,
                     static_cast<double>(o.min_sweep_bytes)) +
            static_cast<double>(o.tl_buffer_entries * usable);
        EXPECT_LE(static_cast<double>(a.quarantine_bytes), bound)
            << "step " << step;
        if (::testing::Test::HasFailure())
            break;
    }
    for (void* p : live)
        rt.free(p);
    EXPECT_EQ(rt.sweep_stats().failed_frees, 0u);
    return out;
}

/** A resident, zero-filled root range of @p bytes. */
std::vector<std::uint64_t>
zero_root(std::size_t bytes)
{
    return std::vector<std::uint64_t>(bytes / sizeof(std::uint64_t), 0);
}

// A registered root much larger than the heap makes every sweep after
// the first scan it, so the trigger waits for threshold x R pending.
TEST(SweepTrigger, LargeRootScalesTheTrigger)
{
    const Options o = sync_options();
    MineSweeper ms(o);
    std::vector<std::uint64_t> root = zero_root(std::size_t{8} << 20);
    const std::size_t r = root.size() * sizeof(std::uint64_t);
    ms.add_root(root.data(), r);

    const TraceResult t = churn(ms, o, 256, 6000, [](std::size_t) {});
    ASSERT_GE(t.sweeps, 3u);
    const double at_r = o.sweep_threshold * static_cast<double>(r);
    // The first sweep has no scan to go by: the paper's rule, which
    // min_sweep_bytes dominates on this small heap.
    EXPECT_LT(static_cast<double>(t.trigger_pending[0]), at_r);
    for (std::size_t i = 1; i < t.trigger_pending.size(); ++i) {
        EXPECT_EQ(t.sweep_non_heap[i - 1], r) << "sweep " << i;
        EXPECT_GE(static_cast<double>(t.trigger_pending[i]), at_r)
            << "sweep " << i;
        EXPECT_LT(static_cast<double>(t.trigger_pending[i]), at_r + kBlock * 2)
            << "sweep " << i;
    }
    ms.remove_root(root.data());
}

// A root smaller than the heap leaves the paper's rule in charge: the
// same trace sweeps exactly as often as with no root at all.
TEST(SweepTrigger, SmallRootKeepsThePaperSweepCount)
{
    const Options o = sync_options();
    std::vector<std::uint64_t> root = zero_root(std::size_t{64} << 10);
    std::uint64_t with_root = 0;
    std::uint64_t without = 0;
    {
        MineSweeper ms(o);
        ms.add_root(root.data(), root.size() * sizeof(std::uint64_t));
        const TraceResult t = churn(ms, o, 2048, 20000, [](std::size_t) {});
        for (std::uint64_t nh : t.sweep_non_heap)
            EXPECT_EQ(nh, root.size() * sizeof(std::uint64_t));
        with_root = t.sweeps;
        ms.remove_root(root.data());
    }
    {
        MineSweeper ms(o);
        without = churn(ms, o, 2048, 20000, [](std::size_t) {}).sweeps;
    }
    EXPECT_GE(without, 5u);
    EXPECT_EQ(with_root, without);
}

// The bound holds while the non-heap scan changes under the trace: a
// large root registered halfway, then removed. The bound check runs in
// churn() after every free.
TEST(SweepTrigger, PendingStaysUnderTheScaledThreshold)
{
    const Options o = sync_options();
    MineSweeper ms(o);
    std::vector<std::uint64_t> root = zero_root(std::size_t{4} << 20);
    const TraceResult t = churn(ms, o, 512, 12000, [&](std::size_t step) {
        if (step == 3000)
            ms.add_root(root.data(), root.size() * sizeof(std::uint64_t));
        if (step == 8000)
            ms.remove_root(root.data());
    });
    EXPECT_GE(t.sweeps, 4u);
    const auto large = std::count(t.sweep_non_heap.begin(),
                                  t.sweep_non_heap.end(),
                                  root.size() * sizeof(std::uint64_t));
    EXPECT_GE(large, 1);
    EXPECT_EQ(t.sweep_non_heap.back(), 0u) << "the root was removed";
}

// §5.7 backpressure shares the trigger's cost base: reaching the scaled
// trigger point with a small live heap and large roots does not pause
// allocations, while a quarantine far past both still does.
TEST(SweepTrigger, PauseDoesNotFireAtTheTriggerPoint)
{
    const Options o;
    TriggerInput in;
    in.last_non_heap_scan = std::size_t{64} << 20;
    in.pending = static_cast<std::size_t>(std::ceil(
        o.sweep_threshold * static_cast<double>(in.last_non_heap_scan)));
    in.jade_live = (std::size_t{1} << 20) + in.pending;  // 1 MiB live
    in.committed = in.jade_live;

    TriggerDecision d = decide_trigger(o, in);
    EXPECT_TRUE(d.sweep);
    EXPECT_FALSE(d.pause);

    // The same quarantine against the heap alone (the paper's cost base)
    // is 9.6x the live heap: past pause_factor.
    in.last_non_heap_scan = 0;
    d = decide_trigger(o, in);
    EXPECT_TRUE(d.sweep);
    EXPECT_TRUE(d.pause);

    // Past pause_factor x the non-heap scan, the gate rises again.
    in.last_non_heap_scan = std::size_t{64} << 20;
    in.pending = static_cast<std::size_t>(
        (o.pause_factor + 1) * static_cast<double>(in.last_non_heap_scan));
    in.jade_live = (std::size_t{1} << 20) + in.pending;
    d = decide_trigger(o, in);
    EXPECT_TRUE(d.sweep);
    EXPECT_TRUE(d.pause);
}

/** Low end of the main thread's [stack] mapping, or 0. */
std::uintptr_t
stack_mapping_low()
{
    std::ifstream maps("/proc/self/maps");
    std::string line;
    while (std::getline(maps, line)) {
        if (line.find("[stack]") != std::string::npos)
            return std::stoull(line.substr(0, line.find('-')), nullptr, 16);
    }
    return 0;
}

/** Grow the stack mapping @p bytes below the caller's frame. */
__attribute__((noinline)) void
pre_grow_stack(std::size_t bytes)
{
    auto* p = static_cast<volatile char*>(__builtin_alloca(bytes));
    for (std::size_t i = 0; i < bytes; i += 4096)
        p[i] = 0;
}

// pthread_getattr_np reports the main thread's whole rlimit range, but
// [stack] maps only the pages the program has touched. The sweep scans
// the mapped, resident part; reading below it would grow the mapping
// to the full range and make every later sweep scan it.
TEST(SweepTrigger, MainThreadStackMappingDoesNotGrow)
{
    // Room for the sweep's own frames, so only a read far below the
    // mapping could move its low end.
    pre_grow_stack(std::size_t{256} << 10);
    const std::uintptr_t low0 = stack_mapping_low();
    ASSERT_NE(low0, 0u);

    Options o = sync_options();
    o.helper_threads = 2;
    MineSweeper ms(o);
    ms.register_mutator_thread();
    for (int sweep = 0; sweep < 2; ++sweep) {
        ms.free(ms.alloc(64));
        ms.force_sweep();
    }
    const SweepStats s = ms.sweep_stats();
    ms.unregister_mutator_thread();

    EXPECT_EQ(stack_mapping_low(), low0);
    EXPECT_EQ(s.sweeps, 2u);
    EXPECT_GT(s.bytes_scanned_stacks, 0u);
    EXPECT_LT(s.bytes_scanned_stacks, std::uint64_t{2} << 20)
        << "two sweeps of the touched stack, not of the 8 MiB range";
}

// Fully concurrent: the sweeper publishes each sweep's non-heap scan
// while mutators read it in their trigger decisions (tsan label).
TEST(SweepTrigger, ConcurrentMutatorsReadThePublishedScanSize)
{
    Options o;
    o.helper_threads = 1;
    o.min_sweep_bytes = kMinSweepBytes;
    o.jade.heap_bytes = std::size_t{1} << 30;
    MineSweeper ms(o);
    std::vector<std::uint64_t> root = zero_root(std::size_t{1} << 20);
    ms.add_root(root.data(), root.size() * sizeof(std::uint64_t));

    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
        threads.emplace_back([&ms, t] {
            ms.register_mutator_thread();
            Rng rng(t + 1);
            std::vector<void*> live(128, nullptr);
            for (int i = 0; i < 20000; ++i) {
                void*& slot = live[rng.next_below(live.size())];
                ms.free(slot);
                slot = ms.alloc(kBlock);
            }
            for (void* p : live)
                ms.free(p);
            ms.unregister_mutator_thread();
        });
    }
    for (std::thread& t : threads)
        t.join();
    ms.flush();
    ms.force_sweep();
    const SweepStats s = ms.sweep_stats();
    EXPECT_GE(s.sweeps, 2u);
    EXPECT_GE(s.bytes_scanned_roots, 2 * root.size() * sizeof(std::uint64_t));
    ms.remove_root(root.data());
}

}  // namespace
}  // namespace msw::core
