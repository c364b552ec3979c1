// Dirty-tracker tests, parameterised over the available backends so the
// soft-dirty and mprotect implementations are held to the same contract.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "sweep/dirty_tracker.h"
#include "util/bits.h"
#include "vm/vm.h"

namespace msw::sweep {
namespace {

// Plain bytes, no heap or code pointers: gtest prints a param it has no
// printer for as its raw bytes, and that dump is part of the test name
// gtest_discover_tests registers, so it must not change from run to run.
struct Backend {
    char name[64];
};

std::vector<Backend>
available_backends()
{
    std::vector<Backend> out;
    if (SoftDirtyTracker::make() != nullptr)
        out.push_back(Backend{"softdirty"});
    out.push_back(Backend{"mprotect"});
    return out;
}

std::unique_ptr<DirtyTracker>
make_backend(const Backend& backend, const vm::Reservation* heap)
{
    if (std::strcmp(backend.name, "softdirty") == 0)
        return std::unique_ptr<DirtyTracker>(
            SoftDirtyTracker::make().release());
    return std::unique_ptr<DirtyTracker>(new MprotectTracker(heap));
}

class DirtyTrackerTest : public ::testing::TestWithParam<Backend>
{
  protected:
    DirtyTrackerTest() : heap(vm::Reservation::reserve(8 << 20))
    {
        heap.commit_must(heap.base(), heap.size());
        tracker = make_backend(GetParam(), &heap);
    }

    static bool
    contains_page(const std::vector<Range>& dirty, std::uintptr_t addr)
    {
        const std::uintptr_t page = align_down(addr, vm::kPageSize);
        for (const Range& r : dirty) {
            if (page >= r.base && page < r.end())
                return true;
        }
        return false;
    }

    vm::Reservation heap;
    std::unique_ptr<DirtyTracker> tracker;
};

TEST_P(DirtyTrackerTest, DetectsWriteDuringEpoch)
{
    tracker->begin({Range{heap.base(), heap.size()}});
    auto* p = reinterpret_cast<volatile char*>(heap.base() + 5 * 4096 + 17);
    *p = 1;
    std::vector<Range> dirty;
    tracker->end_collect(dirty);
    EXPECT_TRUE(contains_page(dirty, heap.base() + 5 * 4096));
}

TEST_P(DirtyTrackerTest, UntouchedPagesStayClean)
{
    // Touch everything before the epoch so pre-epoch dirtiness can't leak.
    std::memset(to_ptr(heap.base()), 1, heap.size());
    tracker->begin({Range{heap.base(), heap.size()}});
    auto* p = reinterpret_cast<volatile char*>(heap.base());
    *p = 2;
    std::vector<Range> dirty;
    tracker->end_collect(dirty);
    EXPECT_TRUE(contains_page(dirty, heap.base()));
    EXPECT_FALSE(contains_page(dirty, heap.base() + 4096))
        << "adjacent untouched page must be clean";
    EXPECT_FALSE(contains_page(dirty, heap.base() + (4 << 20)));
}

TEST_P(DirtyTrackerTest, ReadsDoNotDirty)
{
    std::memset(to_ptr(heap.base()), 1, heap.size());
    tracker->begin({Range{heap.base(), heap.size()}});
    volatile char sink = 0;
    for (std::size_t off = 0; off < heap.size(); off += 4096)
        sink += *reinterpret_cast<volatile char*>(heap.base() + off);
    std::vector<Range> dirty;
    tracker->end_collect(dirty);
    std::size_t dirty_bytes = 0;
    for (const Range& r : dirty)
        dirty_bytes += r.len;
    EXPECT_EQ(dirty_bytes, 0u) << "pure reads dirtied pages";
    (void)sink;
}

TEST_P(DirtyTrackerTest, SecondEpochStartsClean)
{
    tracker->begin({Range{heap.base(), heap.size()}});
    *reinterpret_cast<volatile char*>(heap.base() + 4096) = 1;
    std::vector<Range> dirty;
    tracker->end_collect(dirty);
    EXPECT_TRUE(contains_page(dirty, heap.base() + 4096));

    // New epoch: old write must not reappear.
    tracker->begin({Range{heap.base(), heap.size()}});
    std::vector<Range> dirty2;
    tracker->end_collect(dirty2);
    EXPECT_FALSE(contains_page(dirty2, heap.base() + 4096));
}

TEST_P(DirtyTrackerTest, MultipleWritesCoalesceToRuns)
{
    std::memset(to_ptr(heap.base()), 1, heap.size());
    tracker->begin({Range{heap.base(), heap.size()}});
    for (int p = 10; p < 14; ++p)
        *reinterpret_cast<volatile char*>(heap.base() + p * 4096) = 1;
    std::vector<Range> dirty;
    tracker->end_collect(dirty);
    // All four pages dirty, as one or more runs.
    for (int p = 10; p < 14; ++p)
        EXPECT_TRUE(contains_page(dirty, heap.base() + p * 4096)) << p;
}

TEST_P(DirtyTrackerTest, WritesOutsideTrackedRangesIgnored)
{
    std::memset(to_ptr(heap.base()), 1, heap.size());
    // Track only the first megabyte.
    tracker->begin({Range{heap.base(), 1 << 20}});
    *reinterpret_cast<volatile char*>(heap.base() + (2 << 20)) = 1;
    std::vector<Range> dirty;
    tracker->end_collect(dirty);
    EXPECT_FALSE(contains_page(dirty, heap.base() + (2 << 20)));
}

INSTANTIATE_TEST_SUITE_P(
    Backends, DirtyTrackerTest, ::testing::ValuesIn(available_backends()),
    [](const ::testing::TestParamInfo<Backend>& info) {
        return info.param.name;
    });

TEST(MakeDirtyTracker, ReturnsSomeBackend)
{
    vm::Reservation heap = vm::Reservation::reserve(1 << 20);
    auto tracker = make_dirty_tracker(&heap);
    ASSERT_NE(tracker, nullptr);
}

TEST(MprotectTrackerTest, NoteCommittedMarksDirty)
{
    vm::Reservation heap = vm::Reservation::reserve(1 << 20);
    heap.commit_must(heap.base(), heap.size());
    MprotectTracker tracker(&heap);
    tracker.begin({Range{heap.base(), 1 << 20}});
    tracker.note_committed(heap.base() + 64 * 1024, 4096);
    std::vector<Range> dirty;
    tracker.end_collect(dirty);
    bool found = false;
    for (const Range& r : dirty)
        found |= r.base <= heap.base() + 64 * 1024 &&
                 heap.base() + 64 * 1024 < r.end();
    EXPECT_TRUE(found);
}

// A page committed after begin()'s snapshot is outside the tracked
// ranges; the STW recheck must still see it. The mutator notes it
// concurrently with begin() (tsan label: that pairing must be race-free).
TEST(MprotectTrackerTest, HarvestsPagesCommittedAfterTheSnapshot)
{
    constexpr std::size_t kTracked = 64 * 1024;
    vm::Reservation heap = vm::Reservation::reserve(1 << 20);
    heap.commit_must(heap.base(), kTracked);
    MprotectTracker tracker(&heap);
    const std::uintptr_t late = heap.base() + 512 * 1024;
    const auto reported = [&](const std::vector<Range>& dirty) {
        for (const Range& r : dirty) {
            if (r.base <= late && late < r.end())
                return true;
        }
        return false;
    };

    std::thread mutator([&] {
        heap.commit_must(late, vm::kPageSize);
        tracker.note_committed(late, vm::kPageSize);
    });
    tracker.begin({Range{heap.base(), kTracked}});
    mutator.join();
    std::vector<Range> dirty;
    tracker.end_collect(dirty);
    EXPECT_TRUE(reported(dirty));

    // Harvesting resets the page: the next epoch starts clean.
    tracker.begin({Range{heap.base(), kTracked}});
    dirty.clear();
    tracker.end_collect(dirty);
    EXPECT_FALSE(reported(dirty));
}

}  // namespace
}  // namespace msw::sweep
