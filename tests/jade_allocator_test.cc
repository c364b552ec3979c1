// JadeHeap end-to-end tests: malloc/free semantics, size classes, thread
// caches, large allocations, alignment, realloc, lookup, stats, and
// multi-threaded stress.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <set>
#include <thread>
#include <unordered_set>
#include <vector>

#include "alloc/jade_allocator.h"
#include "alloc/policy.h"
#include "util/bits.h"
#include "util/rng.h"

namespace msw::alloc {
namespace {

class JadeTest : public ::testing::Test
{
  protected:
    JadeAllocator::Options
    options()
    {
        JadeAllocator::Options o;
        o.heap_bytes = std::size_t{1} << 30;
        o.decay_ms = 0;
        return o;
    }

    JadeAllocator jade{options()};
};

TEST_F(JadeTest, AllocReturnsWritableMemory)
{
    void* p = jade.alloc(100);
    ASSERT_NE(p, nullptr);
    std::memset(p, 0xcd, 100);
    jade.free(p);
}

TEST_F(JadeTest, ZeroSizeAllocationIsValid)
{
    void* p = jade.alloc(0);
    ASSERT_NE(p, nullptr);
    EXPECT_GE(jade.usable_size(p), 1u);
    jade.free(p);
}

TEST_F(JadeTest, FreeNullIsNoop)
{
    jade.free(nullptr);
}

TEST_F(JadeTest, UsableSizeCoversRequest)
{
    for (std::size_t size : {1ul, 16ul, 17ul, 100ul, 4096ul, 14336ul,
                             14337ul, 100000ul, 5000000ul}) {
        void* p = jade.alloc(size);
        EXPECT_GE(jade.usable_size(p), size) << size;
        jade.free(p);
    }
}

TEST_F(JadeTest, SmallAllocationsAreGranuleAligned)
{
    for (std::size_t size = 1; size <= 512; size += 13) {
        void* p = jade.alloc(size);
        EXPECT_TRUE(is_aligned(to_addr(p), kGranule)) << size;
        jade.free(p);
    }
}

TEST_F(JadeTest, LargeAllocationsArePageAligned)
{
    void* p = jade.alloc(1 << 20);
    EXPECT_TRUE(is_aligned(to_addr(p), vm::kPageSize));
    jade.free(p);
}

TEST_F(JadeTest, DistinctLiveAllocationsDoNotOverlap)
{
    struct Range {
        std::uintptr_t lo, hi;
    };
    std::vector<Range> live;
    std::vector<void*> ptrs;
    Rng rng(3);
    for (int i = 0; i < 2000; ++i) {
        const std::size_t size = 1 + rng.next_below(300);
        void* p = jade.alloc(size);
        const std::uintptr_t lo = to_addr(p);
        const std::uintptr_t hi = lo + jade.usable_size(p);
        for (const Range& r : live)
            ASSERT_TRUE(hi <= r.lo || r.hi <= lo)
                << "overlap at iteration " << i;
        live.push_back({lo, hi});
        ptrs.push_back(p);
    }
    for (void* p : ptrs)
        jade.free(p);
}

TEST_F(JadeTest, MemoryIsReusedAfterFree)
{
    // Same-class alloc after free should come from the thread cache (LIFO).
    void* a = jade.alloc(64);
    jade.free(a);
    void* b = jade.alloc(64);
    EXPECT_EQ(a, b);
    jade.free(b);
}

TEST_F(JadeTest, ContentsArePreservedWhileLive)
{
    std::vector<void*> ptrs;
    for (int i = 0; i < 500; ++i) {
        auto* p = static_cast<int*>(jade.alloc(sizeof(int) * 8));
        p[0] = i;
        p[7] = ~i;
        ptrs.push_back(p);
    }
    for (int i = 0; i < 500; ++i) {
        auto* p = static_cast<int*>(ptrs[i]);
        ASSERT_EQ(p[0], i);
        ASSERT_EQ(p[7], ~i);
        jade.free(p);
    }
}

TEST_F(JadeTest, AlignedAllocHonoursAlignment)
{
    for (std::size_t align : {16ul, 32ul, 64ul, 128ul, 256ul, 1024ul,
                              4096ul, 16384ul}) {
        for (std::size_t size : {1ul, 100ul, 5000ul, 20000ul}) {
            void* p = jade.alloc_aligned(align, size);
            ASSERT_NE(p, nullptr);
            EXPECT_TRUE(is_aligned(to_addr(p), align))
                << "align " << align << " size " << size;
            EXPECT_GE(jade.usable_size(p), size);
            jade.free(p);
        }
    }
}

TEST_F(JadeTest, ReallocGrowsAndPreservesData)
{
    auto* p = static_cast<char*>(jade.alloc(64));
    std::memset(p, 'x', 64);
    auto* q = static_cast<char*>(jade.realloc(p, 100000));
    for (int i = 0; i < 64; ++i)
        ASSERT_EQ(q[i], 'x');
    jade.free(q);
}

TEST_F(JadeTest, ReallocSameSizeKeepsPointer)
{
    void* p = jade.alloc(100);
    EXPECT_EQ(jade.realloc(p, 101), p);
    jade.free(p);
}

TEST_F(JadeTest, ReallocNullBehavesLikeAlloc)
{
    void* p = jade.realloc(nullptr, 50);
    ASSERT_NE(p, nullptr);
    jade.free(p);
}

TEST_F(JadeTest, LookupAllocationFindsInteriorPointers)
{
    auto* p = static_cast<char*>(jade.alloc(1000));
    JadeAllocator::AllocationInfo info;
    ASSERT_TRUE(jade.lookup_allocation(to_addr(p) + 500, &info));
    EXPECT_EQ(info.base, to_addr(p));
    EXPECT_GE(info.usable, 1000u);
    EXPECT_TRUE(info.live);
    jade.free(p);
}

TEST_F(JadeTest, LookupAllocationLargeInterior)
{
    auto* p = static_cast<char*>(jade.alloc(1 << 20));
    JadeAllocator::AllocationInfo info;
    ASSERT_TRUE(jade.lookup_allocation(to_addr(p) + (1 << 19), &info));
    EXPECT_EQ(info.base, to_addr(p));
    EXPECT_TRUE(info.live);
    jade.free(p);
}

TEST_F(JadeTest, LookupAllocationSeesFreedSlotAsDead)
{
    void* p = jade.alloc(64);
    jade.flush();  // ensure the free below reaches the bin, not the tcache
    jade.free(p);
    jade.flush();
    // The bin caches one empty slab, so the slot still resolves, free.
    JadeAllocator::AllocationInfo info;
    ASSERT_TRUE(jade.lookup_allocation(to_addr(p), &info));
    EXPECT_FALSE(info.live);
}

TEST_F(JadeTest, LookupRejectsNonHeapAddresses)
{
    int local = 0;
    JadeAllocator::AllocationInfo info;
    EXPECT_FALSE(jade.lookup_allocation(to_addr(&local), &info));
}

TEST_F(JadeTest, StatsTrackLiveBytes)
{
    const std::size_t before = jade.live_bytes();
    void* p = jade.alloc(1000);
    EXPECT_GE(jade.live_bytes(), before + 1000);
    jade.free(p);
    EXPECT_EQ(jade.live_bytes(), before);
}

TEST_F(JadeTest, StatsCountCalls)
{
    const AllocatorStats before = jade.stats();
    void* p = jade.alloc(10);
    jade.free(p);
    const AllocatorStats after = jade.stats();
    EXPECT_EQ(after.alloc_calls, before.alloc_calls + 1);
    EXPECT_EQ(after.free_calls, before.free_calls + 1);
}

TEST_F(JadeTest, FreeDirectBypassesThreadCache)
{
    void* p = jade.alloc(64);
    jade.free_direct(p);
    // The object must be back in the bin: a fresh alloc may or may not
    // return it, but live accounting must be exact. The rest of the
    // thread cache's refill batch keeps the slab, so the lookup resolves.
    JadeAllocator::AllocationInfo info;
    ASSERT_TRUE(jade.lookup_allocation(to_addr(p), &info));
    EXPECT_EQ(info.base, to_addr(p));
    EXPECT_FALSE(info.live);
}

TEST_F(JadeTest, SlabsAreReleasedWhenEmptied)
{
    // Allocate enough objects of one class to build several slabs, then
    // free them all; active bytes must drop back.
    std::vector<void*> ptrs;
    for (int i = 0; i < 5000; ++i)
        ptrs.push_back(jade.alloc(128));
    const std::size_t active_peak = jade.extents().stats().active_bytes;
    for (void* p : ptrs)
        jade.free(p);
    jade.flush();
    const std::size_t active_after = jade.extents().stats().active_bytes;
    EXPECT_LT(active_after, active_peak / 4);
}

TEST_F(JadeTest, RandomChurnMaintainsIntegrity)
{
    // Property test: randomly allocate/free with canary values; canaries
    // must survive until their free.
    struct Obj {
        void* ptr;
        std::size_t size;
        unsigned char canary;
    };
    std::vector<Obj> live;
    Rng rng(99);
    for (int i = 0; i < 30000; ++i) {
        if (live.empty() || rng.next_bool(0.55)) {
            const std::size_t size = 1 + static_cast<std::size_t>(
                                             rng.next_lognormal(4.0, 1.5));
            auto canary = static_cast<unsigned char>(rng.next_below(256));
            void* p = jade.alloc(size);
            std::memset(p, canary, size);
            live.push_back({p, size, canary});
        } else {
            const std::size_t idx = rng.next_below(live.size());
            Obj o = live[idx];
            auto* bytes = static_cast<unsigned char*>(o.ptr);
            ASSERT_EQ(bytes[0], o.canary);
            ASSERT_EQ(bytes[o.size - 1], o.canary);
            ASSERT_EQ(bytes[o.size / 2], o.canary);
            jade.free(o.ptr);
            live[idx] = live.back();
            live.pop_back();
        }
    }
    for (const Obj& o : live)
        jade.free(o.ptr);
}

TEST_F(JadeTest, MultiThreadedChurnIsSafe)
{
    const int kThreads = 4;
    const int kIters = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Rng rng(1000 + t);
            std::vector<std::pair<void*, unsigned char>> mine;
            for (int i = 0; i < kIters; ++i) {
                if (mine.empty() || rng.next_bool(0.5)) {
                    const std::size_t size = 1 + rng.next_below(2000);
                    auto canary =
                        static_cast<unsigned char>(rng.next_below(256));
                    void* p = jade.alloc(size);
                    std::memset(p, canary, size);
                    mine.emplace_back(p, canary);
                } else {
                    const std::size_t idx = rng.next_below(mine.size());
                    auto [p, canary] = mine[idx];
                    ASSERT_EQ(*static_cast<unsigned char*>(p), canary);
                    jade.free(p);
                    mine[idx] = mine.back();
                    mine.pop_back();
                }
            }
            for (auto [p, canary] : mine)
                jade.free(p);
            jade.flush();
        });
    }
    for (auto& th : threads)
        th.join();
}

TEST_F(JadeTest, CrossThreadFreeIsSafe)
{
    // Allocate on one thread, free on another (producer/consumer pattern).
    std::vector<void*> ptrs;
    std::thread producer([&] {
        for (int i = 0; i < 10000; ++i)
            ptrs.push_back(jade.alloc(1 + (i % 500)));
        jade.flush();
    });
    producer.join();
    std::thread consumer([&] {
        for (void* p : ptrs)
            jade.free(p);
        jade.flush();
    });
    consumer.join();
    EXPECT_EQ(jade.live_bytes(), 0u);
}

TEST(JadeMultiArena, ArenasDistributeThreads)
{
    JadeAllocator::Options o;
    o.heap_bytes = std::size_t{1} << 30;
    o.arenas = 4;
    JadeAllocator jade(o);
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&] {
            std::vector<void*> ptrs;
            for (int i = 0; i < 5000; ++i)
                ptrs.push_back(jade.alloc(64));
            for (void* p : ptrs)
                jade.free(p);
            jade.flush();
        });
    }
    for (auto& th : threads)
        th.join();
    EXPECT_EQ(jade.live_bytes(), 0u);
}

TEST(JadeNoTcache, WorksWithThreadCacheDisabled)
{
    JadeAllocator::Options o;
    o.heap_bytes = 256 << 20;
    o.enable_tcache = false;
    JadeAllocator jade(o);
    std::vector<void*> ptrs;
    for (int i = 0; i < 1000; ++i)
        ptrs.push_back(jade.alloc(1 + (i % 300)));
    for (void* p : ptrs)
        jade.free(p);
    EXPECT_EQ(jade.live_bytes(), 0u);
}

/**
 * free_batch against the per-pointer path: two allocators run one seeded
 * trace, then free the same shuffled set, one in kFreeBatch-pointer
 * free_batch calls, the other one pointer at a time through free() (no
 * thread cache, so every small block takes Bin::free_one). The set
 * empties whole slabs (the first into each bin's cache, the rest back
 * to the extent allocator), turns full slabs nonfull and holds
 * page-scale blocks. Both heaps must come out identical: the same
 * stats, and the same next allocations as offsets into each heap.
 */
TEST(JadeFreeBatch, MatchesPerPointerFrees)
{
    JadeAllocator::Options o;
    o.heap_bytes = std::size_t{1} << 30;
    o.decay_ms = 0;
    o.enable_tcache = false;
    o.policy = &default_policy();
    JadeAllocator batched(o);
    JadeAllocator single(o);
    const auto offset = [](const JadeAllocator& j, void* p) {
        return to_addr(p) - j.reservation().base();
    };
    // Same size stream for both heaps; checks they stay in step.
    const auto alloc_both = [&](Rng& rng, std::vector<void*>* out) {
        const std::size_t size =
            rng.next_bool(0.03) ? (16u << 10) + rng.next_below(240u << 10)
                                : 1 + rng.next_below(4096);
        void* a = batched.alloc(size);
        void* b = single.alloc(size);
        ASSERT_NE(a, nullptr);
        ASSERT_NE(b, nullptr);
        ASSERT_EQ(offset(batched, a), offset(single, b));
        out->push_back(a);
    };

    Rng rng(7);
    std::vector<void*> live;
    for (int i = 0; i < 6000; ++i)
        alloc_both(rng, &live);
    // Blocks of up to 256 bytes go entirely, so their slabs empty;
    // the rest go with probability 0.6.
    std::vector<void*> doomed;
    for (void* p : live) {
        if (batched.usable_size(p) <= 256 || rng.next_bool(0.6))
            doomed.push_back(p);
    }
    for (std::size_t i = doomed.size(); i > 1; --i)
        std::swap(doomed[i - 1], doomed[rng.next_below(i)]);

    std::size_t slabs_emptied_to_extents = 0;
    for (std::size_t start = 0; start < doomed.size();
         start += JadeAllocator::kFreeBatch) {
        const std::size_t n = std::min<std::size_t>(
            JadeAllocator::kFreeBatch, doomed.size() - start);
        std::set<unsigned> bins;
        for (std::size_t i = start; i < start + n; ++i) {
            const ExtentMeta* e = batched.extents().lookup(to_addr(doomed[i]));
            if (e->kind == ExtentKind::kSlab)
                bins.insert(e->cls);
        }
        const std::size_t active0 = single.extents().stats().active_bytes;
        EXPECT_EQ(batched.free_batch(&doomed[start], n), bins.size());
        std::size_t large_bytes = 0;
        for (std::size_t i = start; i < start + n; ++i) {
            void* q = to_ptr(offset(batched, doomed[i]) +
                             single.reservation().base());
            if (single.usable_size(q) > kMaxSmallSize)
                large_bytes += single.usable_size(q);
            single.free(q);
        }
        slabs_emptied_to_extents +=
            active0 - single.extents().stats().active_bytes > large_bytes;
    }
    EXPECT_GT(slabs_emptied_to_extents, 0u);

    const AllocatorStats a = batched.stats();
    const AllocatorStats b = single.stats();
    EXPECT_EQ(a.live_bytes, b.live_bytes);
    EXPECT_EQ(a.committed_bytes, b.committed_bytes);
    EXPECT_EQ(a.metadata_bytes, b.metadata_bytes);
    EXPECT_EQ(a.alloc_calls, b.alloc_calls);
    EXPECT_EQ(a.free_calls, b.free_calls);
    EXPECT_EQ(batched.extents().stats().active_bytes,
              single.extents().stats().active_bytes);

    std::vector<void*> after;
    for (int i = 0; i < 4000; ++i)
        alloc_both(rng, &after);
}

TEST(JadeLifecycle, ThreadExitFlushesItsCache)
{
    JadeAllocator jade;
    void* p = nullptr;
    std::thread worker([&] {
        p = jade.alloc(64);
        jade.free(p);  // lands in the worker's tcache
    });
    worker.join();  // tcache destructor must flush to the bin
    // Back in its bin, the slot is free; the bin caches its one empty
    // slab, so the lookup still resolves. Left in the dead thread's
    // cache, the slot would still count as allocated.
    JadeAllocator::AllocationInfo info;
    ASSERT_TRUE(jade.lookup_allocation(to_addr(p), &info));
    EXPECT_EQ(info.base, to_addr(p));
    EXPECT_FALSE(info.live);
}

}  // namespace
}  // namespace msw::alloc
