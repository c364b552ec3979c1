/**
 * @file
 * SweepController unit tests: request/serve ordering, the single-sweeper
 * invariant, watchdog fallback, the allocation-pause gate and shutdown
 * draining — the control-plane races the refactor moved out of
 * MineSweeper. Labelled tsan so the sanitizer build replays them.
 */
#include "core/sweep_controller.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/stat_cells.h"
#include "util/failpoint.h"

namespace msw::core {
namespace {

using util::Failpoint;
using util::FailpointPolicy;

TEST(SweepControllerTest, SynchronousModeRunsInline)
{
    StatCells stats;
    std::atomic<int> runs{0};
    SweepController::Config cfg;
    cfg.background = false;
    SweepController ctl(cfg, [&] { runs.fetch_add(1); }, &stats);
    ctl.start();  // no-op without a background sweeper

    ctl.request_sweep(false);
    EXPECT_EQ(runs.load(), 1);
    EXPECT_EQ(ctl.sweeps_done(), 1u);

    ctl.force_sweep();
    EXPECT_EQ(runs.load(), 2);

    // wait_idle is immediate in synchronous mode.
    ctl.wait_idle();
}

TEST(SweepControllerTest, BackgroundServesRequest)
{
    StatCells stats;
    std::atomic<int> runs{0};
    SweepController::Config cfg;
    SweepController ctl(cfg, [&] { runs.fetch_add(1); }, &stats);
    ctl.start();

    ctl.request_sweep(false);
    ctl.wait_idle();
    EXPECT_GE(runs.load(), 1);
    EXPECT_GE(ctl.sweeps_done(), 1u);
}

TEST(SweepControllerTest, ForceSweepWaitsForCompletion)
{
    StatCells stats;
    std::atomic<int> runs{0};
    SweepController::Config cfg;
    SweepController ctl(cfg, [&] { runs.fetch_add(1); }, &stats);
    ctl.start();

    for (int i = 0; i < 5; ++i) {
        const std::uint64_t before = ctl.sweeps_done();
        ctl.force_sweep();
        EXPECT_GE(ctl.sweeps_done(), before + 1);
    }
    EXPECT_GE(runs.load(), 5);
}

TEST(SweepControllerTest, ForceSweepWaitsOutASweepAlreadyInFlight)
{
    // A sweep that began before force_sweep() may have read the heap
    // before the caller's last writes; force_sweep() must not return on
    // its completion but on that of a sweep begun after the call.
    StatCells stats;
    std::atomic<bool> hold{true};
    std::atomic<bool> entered{false};
    std::atomic<int> state{0};
    std::atomic<int> last_seen{-1};
    SweepController::Config cfg;
    SweepController ctl(
        cfg,
        [&] {
            const int seen = state.load();
            entered.store(true);
            while (hold.load())
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            // Every sweep takes a while, so a follow-up sweep is still
            // running when the in-flight one completes.
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            last_seen.store(seen);
        },
        &stats);
    ctl.start();

    ctl.request_sweep(false);
    while (!entered.load())
        std::this_thread::yield();
    state.store(1);  // the in-flight sweep already read 0
    std::thread releaser([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        hold.store(false);
    });
    ctl.force_sweep();
    EXPECT_EQ(last_seen.load(), 1);
    releaser.join();
}

TEST(SweepControllerTest, SingleSweeperInvariant)
{
    StatCells stats;
    std::atomic<bool> release{false};
    std::atomic<int> concurrent{0};
    std::atomic<int> peak{0};
    SweepController::Config cfg;
    cfg.background = false;
    SweepController ctl(
        cfg,
        [&] {
            const int now = concurrent.fetch_add(1) + 1;
            int prev = peak.load();
            while (now > prev && !peak.compare_exchange_weak(prev, now)) {
            }
            while (!release.load(std::memory_order_acquire))
                std::this_thread::yield();
            concurrent.fetch_sub(1);
        },
        &stats);

    std::thread holder([&] { EXPECT_TRUE(ctl.run_sweep_now()); });
    // Wait until the holder is inside the sweep, then every other
    // attempt must bounce off the CAS.
    while (concurrent.load() == 0)
        std::this_thread::yield();
    for (int i = 0; i < 8; ++i)
        EXPECT_FALSE(ctl.run_sweep_now());
    EXPECT_TRUE(ctl.sweep_in_progress());
    release.store(true, std::memory_order_release);
    holder.join();
    EXPECT_EQ(peak.load(), 1);
    EXPECT_EQ(ctl.sweeps_done(), 1u);
    EXPECT_FALSE(ctl.sweep_in_progress());
}

TEST(SweepControllerTest, WatchdogFallsBackToSynchronousSweep)
{
    StatCells stats;
    std::atomic<int> runs{0};
    SweepController::Config cfg;
    cfg.watchdog_timeout_ms = 20;
    SweepController ctl(cfg, [&] { runs.fetch_add(1); }, &stats);
    ctl.start();

    // Sweeper plays dead while armed: requests age unserved.
    util::failpoint_arm(Failpoint::kSweeperStall, FailpointPolicy::prob(1.0));
    ctl.request_sweep(false);
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    // A mutator-side check past the deadline must sweep synchronously.
    ctl.check_watchdog();
    util::failpoint_disarm(Failpoint::kSweeperStall);

    EXPECT_GE(runs.load(), 1);
    EXPECT_GE(stats.read(Stat::kWatchdogFallbacks), 1u);
    ctl.wait_idle();
}

TEST(SweepControllerTest, PauseGateReleasedBySweepCompletion)
{
    StatCells stats;
    SweepController::Config cfg;
    SweepController ctl(
        cfg,
        [&] { std::this_thread::sleep_for(std::chrono::milliseconds(20)); },
        &stats);
    ctl.start();

    ctl.request_sweep(/*pause_allocations=*/true);
    // The gate must open once the sweep completes (bounded by the gate's
    // internal 2 s cap, far above the 20 ms sweep).
    ctl.maybe_pause();
    ctl.wait_idle();
    EXPECT_GE(ctl.sweeps_done(), 1u);
    EXPECT_GT(stats.read(Stat::kPauseNs), 0u);
    // Gate open: a second call returns without waiting.
    ctl.maybe_pause();
}

TEST(SweepControllerTest, SweepContextThreadsNeverPause)
{
    StatCells stats;
    SweepController::Config cfg;
    SweepController ctl(cfg, [] {}, &stats);
    ctl.start();

    EXPECT_FALSE(SweepController::in_sweep_context());
    {
        SweepController::ScopedSweepContext outer;
        EXPECT_TRUE(SweepController::in_sweep_context());
        {
            SweepController::ScopedSweepContext inner;
            EXPECT_TRUE(SweepController::in_sweep_context());
        }
        // Restore, not clear: nested scopes keep the outer context.
        EXPECT_TRUE(SweepController::in_sweep_context());
        // Sweep-machinery threads skip the gate even while it is closed.
        ctl.request_sweep(true);
        ctl.maybe_pause();
    }
    EXPECT_FALSE(SweepController::in_sweep_context());
    ctl.wait_idle();
}

TEST(SweepControllerTest, ShutdownDrainsConcurrentControlCalls)
{
    StatCells stats;
    std::atomic<bool> stop{false};
    auto ctl = std::make_unique<SweepController>(
        SweepController::Config{}, [] {}, &stats);
    ctl->start();

    // Hammer every control entry point while shutdown races them; the
    // destructor-path drain must leave no thread blocked.
    std::vector<std::thread> threads;
    for (int i = 0; i < 4; ++i) {
        threads.emplace_back([&, i] {
            while (!stop.load(std::memory_order_acquire)) {
                ctl->request_sweep(i % 2 == 0);
                ctl->force_sweep();
                ctl->maybe_pause();
                ctl->wait_for_sweep_completion(1);
            }
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ctl->shutdown();
    stop.store(true, std::memory_order_release);
    for (auto& t : threads)
        t.join();

    // Post-shutdown control calls are safe no-ops.
    EXPECT_FALSE(ctl->run_sweep_now());
    ctl->force_sweep();
    ctl.reset();
}

TEST(SweepControllerTest, ShutdownIsIdempotent)
{
    StatCells stats;
    std::atomic<int> runs{0};
    SweepController ctl(SweepController::Config{},
                        [&] { runs.fetch_add(1); }, &stats);
    ctl.start();
    ctl.force_sweep();
    ctl.shutdown();
    ctl.shutdown();
    EXPECT_GE(runs.load(), 1);
    EXPECT_FALSE(ctl.run_sweep_now());
}

}  // namespace
}  // namespace msw::core
