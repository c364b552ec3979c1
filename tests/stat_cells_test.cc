/**
 * @file
 * StatCells aggregation-exactness tests: the striped counters must sum to
 * exactly what was added (and subtracted — gauges rely on 64-bit
 * wraparound across shards) no matter how many threads wrote from which
 * shards. Labelled tsan so the sanitizer build replays the races.
 */
#include "core/stat_cells.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

namespace msw::core {
namespace {

TEST(StatCellsTest, SingleThreadExact)
{
    StatCells cells;
    EXPECT_EQ(cells.read(Stat::kAllocCalls), 0u);
    for (int i = 0; i < 1000; ++i)
        cells.add(Stat::kAllocCalls);
    cells.add(Stat::kBytesReleased, 12345);
    EXPECT_EQ(cells.read(Stat::kAllocCalls), 1000u);
    EXPECT_EQ(cells.read(Stat::kBytesReleased), 12345u);
    EXPECT_EQ(cells.read(Stat::kFreeCalls), 0u);
}

TEST(StatCellsTest, MultiThreadAggregationIsExact)
{
    constexpr unsigned kThreads = 16;  // > shard count: shards are shared
    constexpr std::uint64_t kPerThread = 100'000;
    StatCells cells;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&cells] {
            for (std::uint64_t i = 0; i < kPerThread; ++i) {
                cells.add(Stat::kAllocCalls);
                cells.add(Stat::kBytesScanned, 3);
            }
        });
    }
    for (auto& t : threads)
        t.join();
    EXPECT_EQ(cells.read(Stat::kAllocCalls), kThreads * kPerThread);
    EXPECT_EQ(cells.read(Stat::kBytesScanned), kThreads * kPerThread * 3);
}

TEST(StatCellsTest, GaugeSubFromOtherShardWrapsExactly)
{
    // A gauge's add and sub can land on different shards (freeing thread
    // != allocating thread). Individual shards then go "negative", but
    // unsigned wraparound makes the sum exact.
    StatCells cells;
    std::thread adder([&] { cells.add(Stat::kLiveBytes, 1'000'000); });
    adder.join();
    std::thread subber([&] { cells.sub(Stat::kLiveBytes, 999'999); });
    subber.join();
    EXPECT_EQ(cells.read(Stat::kLiveBytes), 1u);
}

TEST(StatCellsTest, ConcurrentGaugeChurnBalancesToZero)
{
    constexpr unsigned kThreads = 8;
    constexpr int kIters = 50'000;
    StatCells cells;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&cells] {
            for (int i = 0; i < kIters; ++i) {
                cells.add(Stat::kLiveBytes, 64);
                cells.sub(Stat::kLiveBytes, 64);
            }
        });
    }
    for (auto& t : threads)
        t.join();
    EXPECT_EQ(cells.read(Stat::kLiveBytes), 0u);
}

TEST(StatCellsTest, ReadAllMatchesPerStatReads)
{
    StatCells cells;
    for (unsigned s = 0; s < kStatCount; ++s)
        cells.add(static_cast<Stat>(s), s + 1);
    const SweepStats all = cells.read_all();
    for (unsigned s = 0; s < kStatCount; ++s) {
        EXPECT_EQ(all.*metrics::kCounterRows[s].field, s + 1) << "stat " << s;
        EXPECT_EQ(cells.read(static_cast<Stat>(s)), s + 1);
    }
}

}  // namespace
}  // namespace msw::core
