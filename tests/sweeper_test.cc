// Marker and worker-pool tests: pointer discovery in scanned ranges,
// chunking, parallel dispatch, and the page-access map.
#include <gtest/gtest.h>

#include <sys/mman.h>

#include <atomic>
#include <cstring>
#include <vector>

#include "sweep/page_access_map.h"
#include "sweep/sweeper.h"
#include "vm/vm.h"

namespace msw::sweep {
namespace {

class MarkerTest : public ::testing::Test
{
  protected:
    MarkerTest()
        : heap(vm::Reservation::reserve(16 << 20)),
          shadow(heap.base(), heap.size()),
          marker(&shadow, heap.base(), heap.end())
    {
        heap.commit_must(heap.base(), heap.size());
    }

    vm::Reservation heap;
    ShadowMap shadow;
    Marker marker;

    // A scannable buffer outside the heap.
    alignas(8) std::uint64_t buffer[1024] = {};
};

TEST_F(MarkerTest, FindsPointerIntoHeap)
{
    buffer[10] = heap.base() + 4096;
    const MarkStats stats =
        marker.mark_one(Range{to_addr(buffer), sizeof(buffer)});
    EXPECT_EQ(stats.pointers_found, 1u);
    EXPECT_TRUE(shadow.test(heap.base() + 4096));
}

TEST_F(MarkerTest, IgnoresNonHeapValues)
{
    buffer[0] = 0x12345678;
    buffer[1] = heap.base() - 8;   // just below
    buffer[2] = heap.end();        // one past
    buffer[3] = 0;
    const MarkStats stats =
        marker.mark_one(Range{to_addr(buffer), sizeof(buffer)});
    EXPECT_EQ(stats.pointers_found, 0u);
}

TEST_F(MarkerTest, FirstAndLastHeapByteCount)
{
    buffer[0] = heap.base();
    buffer[1] = heap.end() - 1;
    const MarkStats stats =
        marker.mark_one(Range{to_addr(buffer), sizeof(buffer)});
    EXPECT_EQ(stats.pointers_found, 2u);
    EXPECT_TRUE(shadow.test(heap.base()));
    EXPECT_TRUE(shadow.test(heap.end() - 1));
}

TEST_F(MarkerTest, InteriorPointersMarkInteriorGranules)
{
    buffer[0] = heap.base() + 1000;  // interior of some allocation
    marker.mark_one(Range{to_addr(buffer), sizeof(buffer)});
    EXPECT_TRUE(shadow.test_range(heap.base() + 512, 1024));
    EXPECT_FALSE(shadow.test_range(heap.base() + 1024, 1024));
}

TEST_F(MarkerTest, MisalignedWordsAreNotSeen)
{
    // A pointer at an odd byte offset is invisible to the aligned scan —
    // the paper's "correctly aligned" design point (§1.2).
    char raw[64] = {};
    const std::uint64_t value = heap.base() + 64;
    std::memcpy(raw + 1, &value, sizeof(value));
    marker.mark_one(Range{to_addr(raw), sizeof(raw)});
    EXPECT_FALSE(shadow.test(heap.base() + 64));
}

TEST_F(MarkerTest, ScansHeapItselfForHeapPointers)
{
    // Pointer stored *inside* the heap (live object referencing another).
    auto* in_heap = reinterpret_cast<std::uint64_t*>(heap.base() + 8192);
    in_heap[0] = heap.base() + 123456;
    marker.mark_one(Range{heap.base() + 8192, 64});
    EXPECT_TRUE(shadow.test(heap.base() + 123456));
}

TEST_F(MarkerTest, XoredPointerIsHidden)
{
    buffer[0] = (heap.base() + 4096) ^ 0xdeadbeefcafebabeull;
    const MarkStats stats =
        marker.mark_one(Range{to_addr(buffer), sizeof(buffer)});
    // Value lands far outside the heap: legitimately not found.
    EXPECT_FALSE(shadow.test(heap.base() + 4096));
    (void)stats;
}

TEST_F(MarkerTest, ParallelMarkingFindsEverything)
{
    // Fill 8 MiB of heap with pointers to pseudo-random heap locations,
    // then mark in parallel and verify all targets are set.
    auto* words = reinterpret_cast<std::uint64_t*>(heap.base());
    const std::size_t n = (8 << 20) / sizeof(std::uint64_t);
    for (std::size_t i = 0; i < n; ++i)
        words[i] = heap.base() + (i * 2654435761u) % heap.size();

    SweepWorkers workers(3);
    const MarkStats stats = marker.mark_ranges(
        {Range{heap.base(), 8 << 20}}, &workers);
    EXPECT_EQ(stats.pointers_found, n);
    EXPECT_EQ(stats.bytes_scanned, std::uint64_t{8} << 20);
    for (std::size_t i = 0; i < n; i += 97)
        ASSERT_TRUE(
            shadow.test(heap.base() + (i * 2654435761u) % heap.size()));
}

// Each chunk adds its bytes and pointers to its range's origin, and the
// origins sum to the totals.
TEST_F(MarkerTest, CountsEachOriginApart)
{
    auto* words = reinterpret_cast<std::uint64_t*>(heap.base());
    for (std::size_t i = 0; i < 3; ++i)
        words[i] = heap.base() + 4096;
    buffer[0] = heap.base() + 8192;
    alignas(8) std::uint64_t stack_words[64] = {};
    stack_words[1] = heap.base();
    stack_words[2] = heap.base() + 16;

    ScanSet set;
    set[Origin::kHeap].push_back(Range{heap.base(), std::size_t{3} << 20});
    set[Origin::kRoots].push_back(Range{to_addr(buffer), sizeof(buffer)});
    set[Origin::kStacks].push_back(
        Range{to_addr(stack_words), sizeof(stack_words)});
    SweepWorkers workers(2);
    const MarkStats stats = marker.mark_ranges(set, &workers);

    const auto at = [](Origin o) { return static_cast<unsigned>(o); };
    EXPECT_EQ(stats.origin_bytes[at(Origin::kHeap)], std::uint64_t{3} << 20);
    EXPECT_EQ(stats.origin_bytes[at(Origin::kRoots)], sizeof(buffer));
    EXPECT_EQ(stats.origin_bytes[at(Origin::kStacks)], sizeof(stack_words));
    EXPECT_EQ(stats.origin_bytes[at(Origin::kExtraRoots)], 0u);
    EXPECT_EQ(stats.origin_pointers[at(Origin::kHeap)], 3u);
    EXPECT_EQ(stats.origin_pointers[at(Origin::kRoots)], 1u);
    EXPECT_EQ(stats.origin_pointers[at(Origin::kStacks)], 2u);
    EXPECT_EQ(stats.bytes_scanned,
              (std::uint64_t{3} << 20) + sizeof(buffer) + sizeof(stack_words));
    EXPECT_EQ(stats.pointers_found, 6u);
    EXPECT_EQ(stats.non_heap_bytes(), sizeof(buffer) + sizeof(stack_words));
}

/** Start of @p pages fresh anonymous pages, each written once. */
std::uintptr_t
map_touched(std::size_t pages)
{
    void* p = ::mmap(nullptr, pages * vm::kPageSize, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    EXPECT_NE(p, MAP_FAILED);
    for (std::size_t i = 0; i < pages; ++i)
        static_cast<char*>(p)[i * vm::kPageSize] = 1;
    return to_addr(p);
}

// mincore fails a whole query that covers an unmapped page; the hole
// must come back as not resident while the mapped pages around it keep
// their residency, untouched pages included (they are not resident).
TEST(ResidentSubranges, SkipsAnUnmappedHole)
{
    constexpr std::size_t kPage = vm::kPageSize;
    const std::uintptr_t base = map_touched(64);
    ASSERT_EQ(::munmap(to_ptr(base + 16 * kPage), 16 * kPage), 0);
    ASSERT_EQ(::madvise(to_ptr(base + 40 * kPage), 8 * kPage,
                        MADV_DONTNEED),
              0);

    std::vector<Range> out;
    append_resident_subranges(Range{base + 8, 64 * kPage - 16}, &out);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].base, base + 8);
    EXPECT_EQ(out[0].end(), base + 16 * kPage);
    EXPECT_EQ(out[1].base, base + 32 * kPage);
    EXPECT_EQ(out[1].end(), base + 40 * kPage);
    EXPECT_EQ(out[2].base, base + 48 * kPage);
    EXPECT_EQ(out[2].end(), base + 64 * kPage - 8);

    ::munmap(to_ptr(base), 16 * kPage);
    ::munmap(to_ptr(base + 32 * kPage), 32 * kPage);
}

TEST(ResidentSubranges, UnmappedRangeIsEmpty)
{
    const std::uintptr_t base = map_touched(8);
    ASSERT_EQ(::munmap(to_ptr(base), 8 * vm::kPageSize), 0);
    std::vector<Range> out;
    append_resident_subranges(Range{base, 8 * vm::kPageSize}, &out);
    EXPECT_TRUE(out.empty());
}

TEST(ChunkRanges, SplitsAndPreservesCoverage)
{
    std::vector<Range> ranges = {Range{0, 1000}, Range{5000, 3000}};
    const auto chunks = chunk_ranges(ranges, 1024);
    std::size_t total = 0;
    for (const Range& c : chunks) {
        EXPECT_LE(c.len, 1024u);
        total += c.len;
    }
    EXPECT_EQ(total, 4000u);
    EXPECT_EQ(chunks.size(), 4u);  // 1000 | 1024+1024+952
}

TEST(ChunkRanges, EmptyInput)
{
    EXPECT_TRUE(chunk_ranges({}, 1024).empty());
}

TEST(SweepWorkersTest, RunsJobOnAllWorkers)
{
    SweepWorkers workers(3);
    EXPECT_EQ(workers.count(), 4u);
    std::atomic<unsigned> mask{0};
    workers.run([&](unsigned index) {
        mask.fetch_or(1u << index, std::memory_order_relaxed);
    });
    EXPECT_EQ(mask.load(), 0b1111u);
}

TEST(SweepWorkersTest, SequentialRunsAreIsolated)
{
    SweepWorkers workers(2);
    for (int round = 0; round < 100; ++round) {
        std::atomic<int> count{0};
        workers.run([&](unsigned) { count.fetch_add(1); });
        ASSERT_EQ(count.load(), 3);
    }
}

TEST(SweepWorkersTest, ZeroHelpersRunsCallerOnly)
{
    SweepWorkers workers(0);
    int runs = 0;
    workers.run([&](unsigned index) {
        EXPECT_EQ(index, 0u);
        ++runs;
    });
    EXPECT_EQ(runs, 1);
}

TEST(SweepWorkersTest, HelperCpuTimeAccumulates)
{
    SweepWorkers workers(2);
    workers.run([&](unsigned) {
        volatile std::uint64_t x = 0;
        for (int i = 0; i < 2000000; ++i)
            x += i;
    });
    EXPECT_GT(workers.helper_cpu_ns(), 0u);
}

TEST(PageAccessMapTest, SetClearAndRuns)
{
    const std::uintptr_t base = std::uintptr_t{1} << 40;
    PageAccessMap map(base, 1 << 20);  // 256 pages
    EXPECT_EQ(map.committed_bytes(), 0u);
    map.set_range(base, 3 * vm::kPageSize);
    map.set_range(base + 10 * vm::kPageSize, 2 * vm::kPageSize);
    EXPECT_EQ(map.committed_bytes(), 5 * vm::kPageSize);
    EXPECT_TRUE(map.test(base));
    EXPECT_TRUE(map.test(base + 2 * vm::kPageSize + 5));
    EXPECT_FALSE(map.test(base + 3 * vm::kPageSize));

    const auto runs = map.committed_runs();
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs[0].base, base);
    EXPECT_EQ(runs[0].len, 3 * vm::kPageSize);
    EXPECT_EQ(runs[1].base, base + 10 * vm::kPageSize);
    EXPECT_EQ(runs[1].len, 2 * vm::kPageSize);

    map.clear_range(base + vm::kPageSize, vm::kPageSize);
    EXPECT_EQ(map.committed_bytes(), 4 * vm::kPageSize);
    EXPECT_EQ(map.committed_runs().size(), 3u);
}

TEST(PageAccessMapTest, IdempotentUpdatesKeepCountExact)
{
    const std::uintptr_t base = std::uintptr_t{1} << 40;
    PageAccessMap map(base, 1 << 20);
    map.set_range(base, 4 * vm::kPageSize);
    map.set_range(base, 4 * vm::kPageSize);  // again
    EXPECT_EQ(map.committed_bytes(), 4 * vm::kPageSize);
    map.clear_range(base, 2 * vm::kPageSize);
    map.clear_range(base, 2 * vm::kPageSize);  // again
    EXPECT_EQ(map.committed_bytes(), 2 * vm::kPageSize);
}

}  // namespace
}  // namespace msw::sweep
