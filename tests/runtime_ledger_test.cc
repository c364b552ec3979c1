// Ledger balance over every quarantine runtime: after a deterministic
// alloc/free trace, every freed byte is either released by a sweep or
// still quarantined (pending, failed or unmapped), and every free is
// either a released entry or a still-quarantined one.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "baselines/markus.h"
#include "core/minesweeper.h"
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

class LedgerTest : public ::testing::TestWithParam<RuntimeCase>
{
};

TEST_P(LedgerTest, FreedBytesAndEntriesBalance)
{
    const std::unique_ptr<QuarantineRuntime> rt = GetParam().make();
    Roots roots;
    rt->add_root(&roots, sizeof(roots));

    Rng rng(11);
    std::vector<void*> live;
    std::set<std::uintptr_t> freed_bases;
    std::uint64_t frees = 0;
    std::uint64_t freed_bytes = 0;
    const auto release = [&](void* p) {
        // The quarantine accounts the substrate's usable size (the
        // runtime's usable_size() hides the end-pointer slack byte).
        freed_bytes += rt->substrate().usable_size(p);
        freed_bases.insert(to_addr(p));
        ++frees;
        rt->free(p);
    };

    for (int i = 0; i < 40000; ++i) {
        if (live.empty() || rng.next_bool(0.55)) {
            // 2 % page-scale allocations take the unmap path.
            const std::size_t size =
                rng.next_bool(0.02) ? (16u << 10) + rng.next_below(240u << 10)
                                    : 1 + rng.next_below(512);
            void* p = rt->alloc(size);
            ASSERT_NE(p, nullptr);
            live.push_back(p);
        } else {
            const std::size_t idx = rng.next_below(live.size());
            void* p = live[idx];
            // Leave a dangling copy behind for some frees, so entries
            // fail their sweep and stay quarantined as failed frees.
            if (rng.next_below(16) == 0)
                roots.slot[rng.next_below(64)] = p;
            release(p);
            live[idx] = live.back();
            live.pop_back();
        }
    }
    for (void* p : live)
        release(p);
    rt->flush();
    rt->force_sweep();

    const SweepStats st = rt->sweep_stats();
    EXPECT_GT(st.sweeps, 1u);
    EXPECT_GT(st.failed_frees, 0u);
    EXPECT_EQ(freed_bytes, st.bytes_released + rt->stats().quarantine_bytes);

    std::uint64_t quarantined = 0;
    for (std::uintptr_t base : freed_bases)
        quarantined += rt->in_quarantine(to_ptr(base)) ? 1 : 0;
    EXPECT_GT(quarantined, 0u);
    EXPECT_EQ(st.entries_released + quarantined, frees);
}

INSTANTIATE_TEST_SUITE_P(
    Runtimes, LedgerTest,
    ::testing::Values(
        RuntimeCase{"fully",
                    [] { return make_minesweeper(Mode::kFullyConcurrent); }},
        RuntimeCase{"mostly",
                    [] { return make_minesweeper(Mode::kMostlyConcurrent); }},
        RuntimeCase{"synchronous",
                    [] { return make_minesweeper(Mode::kSynchronous); }},
        RuntimeCase{"markus",
                    []() -> std::unique_ptr<QuarantineRuntime> {
                        baseline::MarkUs::Options o;
                        o.min_mark_bytes = kMinSweepBytes;
                        o.jade.heap_bytes = std::size_t{1} << 30;
                        return std::make_unique<baseline::MarkUs>(o);
                    }}),
    [](const ::testing::TestParamInfo<RuntimeCase>& info) {
        return std::string(info.param.name);
    });

}  // namespace
}  // namespace msw::core
