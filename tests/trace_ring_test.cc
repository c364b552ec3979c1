// Trace-ring tests: ordering, wraparound/overwrite behaviour, and the
// per-slot seqlock holding up under concurrent pushers and readers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "metrics/trace_ring.h"

namespace msw::metrics {
namespace {

TEST(TraceRing, EmptySnapshot)
{
    TraceRing ring;
    TraceRecord out[8];
    EXPECT_EQ(ring.snapshot(out, 8), 0u);
    EXPECT_EQ(ring.pushed(), 0u);
}

TEST(TraceRing, RecordsInOrder)
{
    TraceRing ring;
    for (std::uint64_t i = 0; i < 10; ++i)
        ring.push(TraceEvent::kSweepBegin, i, i * 2);
    TraceRecord out[64];
    const std::size_t n = ring.snapshot(out, 64);
    ASSERT_EQ(n, 10u);
    for (std::uint64_t i = 0; i < 10; ++i) {
        EXPECT_EQ(out[i].ticket, i);
        EXPECT_EQ(out[i].event, TraceEvent::kSweepBegin);
        EXPECT_EQ(out[i].a0, i);
        EXPECT_EQ(out[i].a1, i * 2);
        if (i > 0) {
            EXPECT_GE(out[i].ts_ns, out[i - 1].ts_ns);
        }
    }
}

TEST(TraceRing, CapLimitsToNewest)
{
    TraceRing ring;
    for (std::uint64_t i = 0; i < 100; ++i)
        ring.push(TraceEvent::kAllocPause, i, 0);
    TraceRecord out[10];
    const std::size_t n = ring.snapshot(out, 10);
    ASSERT_EQ(n, 10u);
    // The cap keeps the newest records, oldest-first.
    EXPECT_EQ(out[0].ticket, 90u);
    EXPECT_EQ(out[9].ticket, 99u);
}

TEST(TraceRing, WraparoundOverwritesOldest)
{
    TraceRing ring;
    const std::uint64_t total = TraceRing::kSlots * 3 + 17;
    for (std::uint64_t i = 0; i < total; ++i)
        ring.push(TraceEvent::kPhaseMark, i, 0);
    EXPECT_EQ(ring.pushed(), total);

    std::vector<TraceRecord> out(TraceRing::kSlots);
    const std::size_t n = ring.snapshot(out.data(), out.size());
    ASSERT_EQ(n, TraceRing::kSlots);
    // Only the newest kSlots survive; everything older was overwritten.
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i].ticket, total - TraceRing::kSlots + i);
        EXPECT_EQ(out[i].a0, out[i].ticket);
    }
}

TEST(TraceRing, ResetEmptiesTheRing)
{
    TraceRing ring;
    ring.push(TraceEvent::kSweepEnd, 1, 2);
    ring.reset();
    EXPECT_EQ(ring.pushed(), 0u);
    TraceRecord out[8];
    EXPECT_EQ(ring.snapshot(out, 8), 0u);
}

TEST(TraceRing, EventNamesCoverTheEnum)
{
    for (unsigned e = 0;
         e < static_cast<unsigned>(TraceEvent::kCount); ++e) {
        const char* name =
            trace_event_name(static_cast<TraceEvent>(e));
        ASSERT_NE(name, nullptr);
        EXPECT_GT(std::string(name).size(), 0u);
        EXPECT_STRNE(name, "unknown");
    }
}

// Many pushers racing a snapshotting reader. Each thread pushes records
// whose a1 is a pure function of a0, so a snapshot that mixed fields
// from two different writers (a torn read) breaks the pairing. The
// seqlock must reject such slots rather than return them.
TEST(TraceRingConcurrent, SnapshotNeverTears)
{
    TraceRing ring;
    constexpr unsigned kThreads = 4;
    constexpr std::uint64_t kPerThread = 50000;
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> bad{0};

    std::thread reader([&] {
        std::vector<TraceRecord> out(256);
        while (!stop.load(std::memory_order_acquire)) {
            const std::size_t n = ring.snapshot(out.data(), out.size());
            for (std::size_t i = 0; i < n; ++i) {
                const TraceRecord& r = out[i];
                if (r.a1 != (r.a0 ^ 0xdeadbeefull) ||
                    r.event != TraceEvent::kAllocPause)
                    bad.fetch_add(1, std::memory_order_relaxed);
            }
        }
    });

    std::vector<std::thread> pushers;
    for (unsigned t = 0; t < kThreads; ++t) {
        pushers.emplace_back([&, t] {
            for (std::uint64_t i = 0; i < kPerThread; ++i) {
                const std::uint64_t a0 = t * kPerThread + i;
                ring.push(TraceEvent::kAllocPause, a0,
                          a0 ^ 0xdeadbeefull);
            }
        });
    }
    for (auto& th : pushers)
        th.join();
    stop.store(true, std::memory_order_release);
    reader.join();

    EXPECT_EQ(bad.load(), 0u) << "snapshot returned a torn record";
    EXPECT_EQ(ring.pushed(), kThreads * kPerThread);
}

}  // namespace
}  // namespace msw::metrics
