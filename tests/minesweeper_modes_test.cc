// Mode- and option-matrix tests: fully/mostly concurrent and synchronous
// sweeps, the ablation toggles (§5.4), the partial versions (§5.5), and
// the moved-pointer guarantee of every runtime with an STW recheck.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "alloc/policy.h"
#include "baselines/markus.h"
#include "core/minesweeper.h"
#include "util/rng.h"

namespace msw::core {
namespace {

Options
base_options(Mode mode)
{
    Options o;
    o.mode = mode;
    o.helper_threads = 2;
    o.min_sweep_bytes = 4096;
    o.jade.heap_bytes = std::size_t{1} << 30;
    return o;
}

struct Roots {
    void* slot[64] = {};
};

// The core safety property, replayed under every mode.
class ModeTest : public ::testing::TestWithParam<Mode>
{
};

TEST_P(ModeTest, CoreGuaranteesHoldInEveryMode)
{
    MineSweeper ms(base_options(GetParam()));
    Roots roots;
    ms.add_root(&roots, sizeof(roots));

    // Dangling pointer pins; removal releases.
    void* p = ms.alloc(64);
    roots.slot[0] = p;
    ms.free(p);
    ms.force_sweep();
    EXPECT_TRUE(ms.in_quarantine(p));
    roots.slot[0] = nullptr;
    ms.force_sweep();
    EXPECT_FALSE(ms.in_quarantine(p));

    // Cycle collapse via zeroing.
    auto** a = static_cast<void**>(ms.alloc(64));
    auto** b = static_cast<void**>(ms.alloc(64));
    a[0] = b;
    b[0] = a;
    ms.free(a);
    ms.free(b);
    ms.force_sweep();
    EXPECT_FALSE(ms.in_quarantine(a));
    EXPECT_FALSE(ms.in_quarantine(b));

    // Double free absorbed.
    void* d = ms.alloc(32);
    ms.free(d);
    ms.free(d);
    EXPECT_EQ(ms.sweep_stats().double_frees, 1u);
}

TEST_P(ModeTest, ChurnCompletesAndSweeps)
{
    MineSweeper ms(base_options(GetParam()));
    Rng rng(3);
    std::vector<void*> live;
    for (int i = 0; i < 30000; ++i) {
        if (live.empty() || rng.next_bool(0.5)) {
            live.push_back(ms.alloc(1 + rng.next_below(400)));
        } else {
            const std::size_t idx = rng.next_below(live.size());
            ms.free(live[idx]);
            live[idx] = live.back();
            live.pop_back();
        }
    }
    for (void* p : live)
        ms.free(p);
    ms.flush();
    ms.force_sweep();
    EXPECT_GT(ms.stats().sweeps, 0u);
    EXPECT_EQ(ms.stats().live_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllModes, ModeTest,
                         ::testing::Values(Mode::kFullyConcurrent,
                                           Mode::kMostlyConcurrent,
                                           Mode::kSynchronous),
                         [](const ::testing::TestParamInfo<Mode>& info) {
                             switch (info.param) {
                               case Mode::kFullyConcurrent:
                                 return "fully";
                               case Mode::kMostlyConcurrent:
                                 return "mostly";
                               case Mode::kSynchronous:
                                 return "synchronous";
                             }
                             return "unknown";
                         });

// ------------------------------------------------- mostly-concurrent STW

// Every quarantine runtime with a stop-the-world recheck: mostly-
// concurrent MineSweeper and MarkUs run the same sweep pass.
struct StwRuntime {
    const char* name;
    std::unique_ptr<QuarantineRuntime> (*make)();
};

void
PrintTo(const StwRuntime& r, std::ostream* os)
{
    *os << r.name;
}

class MostlyConcurrentRuntime : public ::testing::TestWithParam<StwRuntime>
{
};

TEST_P(MostlyConcurrentRuntime, MovedPointerIsStillFound)
{
    // A mutator thread continuously moves the only copy of a dangling
    // pointer between two root slots while sweeps run. The STW recheck
    // guarantees the pointer is found regardless (§4.3): the allocation
    // must never be released while a copy exists.
    const std::unique_ptr<QuarantineRuntime> rt = GetParam().make();
    Roots roots;
    rt->add_root(&roots, sizeof(roots));

    void* victim = rt->alloc(64);
    roots.slot[0] = victim;
    rt->free(victim);

    std::atomic<bool> stop{false};
    std::thread mover([&] {
        rt->register_mutator_thread();
        bool at_zero = true;
        while (!stop.load(std::memory_order_relaxed)) {
            if (at_zero) {
                // Move: write the new copy, then erase the old one.
                roots.slot[63] = roots.slot[0];
                roots.slot[0] = nullptr;
            } else {
                roots.slot[0] = roots.slot[63];
                roots.slot[63] = nullptr;
            }
            at_zero = !at_zero;
        }
        rt->unregister_mutator_thread();
    });

    for (int i = 0; i < 10; ++i) {
        rt->force_sweep();
        ASSERT_TRUE(rt->in_quarantine(victim))
            << "moved dangling pointer lost on sweep " << i;
    }
    stop.store(true);
    mover.join();
    roots.slot[0] = nullptr;
    roots.slot[63] = nullptr;
    rt->force_sweep();
    EXPECT_FALSE(rt->in_quarantine(victim));
}

INSTANTIATE_TEST_SUITE_P(
    Runtimes, MostlyConcurrentRuntime,
    ::testing::Values(
        StwRuntime{"minesweeper",
                   []() -> std::unique_ptr<QuarantineRuntime> {
                       return std::make_unique<MineSweeper>(
                           base_options(Mode::kMostlyConcurrent));
                   }},
        StwRuntime{"markus",
                   []() -> std::unique_ptr<QuarantineRuntime> {
                       baseline::MarkUs::Options o;
                       o.jade.heap_bytes = std::size_t{1} << 30;
                       return std::make_unique<baseline::MarkUs>(o);
                   }}),
    [](const ::testing::TestParamInfo<StwRuntime>& info) {
        return std::string(info.param.name);
    });

TEST(MostlyConcurrent, RegisterHeldPointerIsFoundDuringStw)
{
    // Keep the only pointer in a parked thread's context (stack/register
    // file): the STW register/stack scan must pin the allocation.
    MineSweeper ms(base_options(Mode::kMostlyConcurrent));
    std::atomic<bool> stop{false};
    std::atomic<void*> handoff{nullptr};
    std::atomic<void* volatile*> escape{nullptr};

    std::thread holder([&] {
        ms.register_mutator_thread();
        // A volatile stack slot whose address escapes keeps a genuinely
        // live copy of the pointer on the registered stack (a plain local
        // — even a volatile one whose address is never taken — can be
        // kept out of memory entirely).
        void* mine = ms.alloc(64);
        void* volatile stack_copy = mine;
        escape.store(&stack_copy, std::memory_order_release);
        handoff.store(mine, std::memory_order_release);
        while (!stop.load(std::memory_order_relaxed))
            std::this_thread::yield();
        // Erase the stack copy, then tell the main thread.
        stack_copy = nullptr;
        (void)stack_copy;
        handoff.store(nullptr, std::memory_order_release);
        while (handoff.load(std::memory_order_acquire) == nullptr)
            std::this_thread::yield();  // wait for ack before unwinding
        ms.unregister_mutator_thread();
    });

    void* victim;
    while ((victim = handoff.load(std::memory_order_acquire)) == nullptr)
        std::this_thread::yield();
    ms.free(victim);
    ms.force_sweep();
    EXPECT_TRUE(ms.in_quarantine(victim))
        << "stack-held dangling pointer must pin the allocation";
    stop.store(true);
    while (handoff.load(std::memory_order_acquire) != nullptr)
        std::this_thread::yield();
    handoff.store(&stop, std::memory_order_release);  // ack
    holder.join();
}

// ------------------------------------------------------ ablation toggles

TEST(Ablation, WithoutZeroingCyclesPersist)
{
    Options o = base_options(Mode::kSynchronous);
    o.zeroing = false;
    o.helper_threads = 0;
    MineSweeper ms(o);
    auto** a = static_cast<void**>(ms.alloc(64));
    auto** b = static_cast<void**>(ms.alloc(64));
    a[0] = b;
    b[0] = a;
    ms.free(a);
    ms.free(b);
    ms.force_sweep();
    EXPECT_TRUE(ms.in_quarantine(a))
        << "without zeroing, cyclic quarantined data pins itself";
    EXPECT_TRUE(ms.in_quarantine(b));
}

TEST(Ablation, WithoutUnmappingPagesStayCommitted)
{
    Options o = base_options(Mode::kSynchronous);
    o.unmapping = false;
    o.helper_threads = 0;
    // Keep the sweep from firing so the allocation stays quarantined for
    // the duration of the check.
    o.min_sweep_bytes = std::size_t{1} << 30;
    MineSweeper ms(o);
    const std::size_t before = ms.stats().committed_bytes;
    void* p = ms.alloc(4 << 20);
    std::memset(p, 1, 4 << 20);
    ms.free(p);
    EXPECT_GE(ms.stats().committed_bytes, before + (4u << 20))
        << "pages must remain committed while quarantined";
    EXPECT_EQ(ms.sweep_stats().unmapped_entries, 0u);
}

TEST(Ablation, WithoutPurgingFreeExtentsRemainCommitted)
{
    Options with = base_options(Mode::kSynchronous);
    with.helper_threads = 0;
    Options without = with;
    without.purging = false;

    auto run = [](MineSweeper& ms) {
        std::vector<void*> ptrs;
        for (int i = 0; i < 2000; ++i)
            ptrs.push_back(ms.alloc(4096));
        for (void* p : ptrs)
            ms.free(p);
        ms.force_sweep();
        return ms.stats().committed_bytes;
    };
    MineSweeper ms_with(with);
    MineSweeper ms_without(without);
    const std::size_t committed_with = run(ms_with);
    const std::size_t committed_without = run(ms_without);
    EXPECT_LT(committed_with, committed_without)
        << "post-sweep purge must reduce committed memory";
}

// ------------------------------------------------------ partial versions

TEST(PartialVersions, NoQuarantineForwardsImmediately)
{
    Options o = base_options(Mode::kSynchronous);
    o.quarantine_enabled = false;
    o.helper_threads = 0;
    // The q == p check below is the default policy's LIFO reuse; pin it
    // so an MSW_POLICY=hardened environment cannot randomize the pick.
    o.jade.policy = &alloc::default_policy();
    MineSweeper ms(o);
    void* p = ms.alloc(64);
    ms.free(p);
    EXPECT_FALSE(ms.in_quarantine(p));
    // Reuse happens immediately (thread cache LIFO).
    void* q = ms.alloc(64);
    EXPECT_EQ(q, p);
    ms.free(q);
}

TEST(PartialVersions, QuarantineWithoutSweepReleasesEverything)
{
    Options o = base_options(Mode::kSynchronous);
    o.sweep_enabled = false;
    o.helper_threads = 0;
    MineSweeper ms(o);
    Roots roots;
    ms.add_root(&roots, sizeof(roots));
    void* p = ms.alloc(64);
    roots.slot[0] = p;  // dangling — but version 3 releases regardless
    ms.free(p);
    EXPECT_TRUE(ms.in_quarantine(p));
    ms.force_sweep();
    EXPECT_FALSE(ms.in_quarantine(p));
    EXPECT_EQ(ms.sweep_stats().failed_frees, 0u);
    roots.slot[0] = nullptr;
}

TEST(PartialVersions, SweepWithoutKeepFailedCountsButReleases)
{
    Options o = base_options(Mode::kSynchronous);
    o.keep_failed = false;
    o.helper_threads = 0;
    MineSweeper ms(o);
    Roots roots;
    ms.add_root(&roots, sizeof(roots));
    void* p = ms.alloc(64);
    roots.slot[0] = p;
    ms.free(p);
    ms.force_sweep();
    EXPECT_FALSE(ms.in_quarantine(p)) << "version 5 deallocates regardless";
    EXPECT_GE(ms.sweep_stats().failed_frees, 1u)
        << "the failed test is still recorded";
    roots.slot[0] = nullptr;
}

TEST(Backpressure, ExtremeChurnStaysBoundedViaPausing)
{
    // mimalloc-bench-style pure churn (§5.7): quarantine growth must be
    // throttled by sweeps (plus pausing) rather than growing unboundedly.
    Options o = base_options(Mode::kFullyConcurrent);
    o.pause_factor = 4.0;
    MineSweeper ms(o);
    for (int i = 0; i < 200000; ++i) {
        void* p = ms.alloc(256);
        ms.free(p);
    }
    ms.flush();
    const auto s = ms.stats();
    EXPECT_GT(s.sweeps, 0u);
    EXPECT_LT(s.quarantine_bytes, 64u << 20);
}

}  // namespace
}  // namespace msw::core
