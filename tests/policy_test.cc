// Allocation-policy layer tests: the default policy's table is all-null
// and behaviour-preserving (deterministic placement identical across
// instances), the hardened policy randomizes placement and reuse, and
// its canary/fill checks catch overflow and use-after-free writes —
// fatally by default, as counted events under MSW_POLICY_FATAL=0.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "alloc/jade_allocator.h"
#include "alloc/policy.h"
#include "baselines/markus.h"
#include "core/minesweeper.h"
#include "util/bits.h"

namespace msw::alloc {
namespace {

TEST(PolicyTable, DefaultPolicyIsAllNull)
{
    const AllocPolicy& p = default_policy();
    EXPECT_STREQ(p.name, "default");
    EXPECT_EQ(p.choose_slot, nullptr);
    EXPECT_EQ(p.choose_cached, nullptr);
    EXPECT_EQ(p.fill_free, nullptr);
    EXPECT_EQ(p.check_free_fill, nullptr);
    EXPECT_EQ(p.arm_canary, nullptr);
    EXPECT_EQ(p.check_canary, nullptr);
    EXPECT_EQ(p.shuffle, nullptr);
}

TEST(PolicyTable, HardenedPolicyFillsEveryHook)
{
    const AllocPolicy& p = hardened_policy();
    EXPECT_STREQ(p.name, "hardened");
    EXPECT_NE(p.choose_slot, nullptr);
    EXPECT_NE(p.choose_cached, nullptr);
    EXPECT_NE(p.fill_free, nullptr);
    EXPECT_NE(p.check_free_fill, nullptr);
    EXPECT_NE(p.arm_canary, nullptr);
    EXPECT_NE(p.check_canary, nullptr);
    EXPECT_NE(p.shuffle, nullptr);
}

TEST(PolicyTable, LookupByName)
{
    EXPECT_EQ(policy_by_name("default"), &default_policy());
    EXPECT_EQ(policy_by_name("hardened"), &hardened_policy());
    EXPECT_EQ(policy_by_name(nullptr), &default_policy());
    EXPECT_EQ(policy_by_name("no-such-policy"), nullptr);
}

TEST(PolicyTable, EnvironmentResolution)
{
    ASSERT_EQ(setenv("MSW_POLICY", "hardened", 1), 0);
    EXPECT_EQ(&policy_from_env(), &hardened_policy());
    ASSERT_EQ(setenv("MSW_POLICY", "bogus", 1), 0);
    EXPECT_EQ(&policy_from_env(), &default_policy());
    ASSERT_EQ(unsetenv("MSW_POLICY"), 0);
    EXPECT_EQ(&policy_from_env(), &default_policy());
    // An explicit policy always wins over the environment.
    ASSERT_EQ(setenv("MSW_POLICY", "hardened", 1), 0);
    EXPECT_EQ(&resolve_policy(&default_policy()), &default_policy());
    EXPECT_EQ(&resolve_policy(nullptr), &hardened_policy());
    ASSERT_EQ(unsetenv("MSW_POLICY"), 0);
}

JadeAllocator::Options
substrate_options(const AllocPolicy& policy, bool tcache)
{
    JadeAllocator::Options o;
    o.heap_bytes = std::size_t{1} << 30;
    o.enable_tcache = tcache;
    o.policy = &policy;
    return o;
}

/** Allocation offsets relative to the first allocation. */
std::vector<std::ptrdiff_t>
alloc_deltas(JadeAllocator& jade, unsigned n, std::size_t size)
{
    std::vector<std::ptrdiff_t> deltas;
    char* first = nullptr;
    for (unsigned i = 0; i < n; ++i) {
        char* p = static_cast<char*>(jade.alloc(size));
        EXPECT_NE(p, nullptr);
        if (first == nullptr)
            first = p;
        deltas.push_back(p - first);
    }
    return deltas;
}

TEST(Placement, DefaultPlacementIsDeterministicAcrossInstances)
{
    // The behaviour-preservation contract: under the default policy two
    // fresh substrates serve an identical request sequence at identical
    // slab offsets (first-fit, ascending).
    JadeAllocator a(substrate_options(default_policy(), false));
    JadeAllocator b(substrate_options(default_policy(), false));
    const auto da = alloc_deltas(a, 64, 48);
    const auto db = alloc_deltas(b, 64, 48);
    EXPECT_EQ(da, db);
    for (std::size_t i = 1; i < da.size(); ++i)
        EXPECT_GT(da[i], da[i - 1]) << "first-fit must ascend";
}

TEST(Placement, HardenedPlacementIsRandomized)
{
    JadeAllocator jade(substrate_options(hardened_policy(), false));
    const auto deltas = alloc_deltas(jade, 64, 48);
    // 64 uniformly-placed slots coming out in ascending address order
    // has probability ~1/64!; any monotone run this long means the
    // random placement is not wired in.
    bool ascending = true;
    for (std::size_t i = 1; i < deltas.size(); ++i)
        if (deltas[i] < deltas[i - 1])
            ascending = false;
    EXPECT_FALSE(ascending);
}

TEST(Placement, HardenedThreadCacheReuseIsNotLifo)
{
    JadeAllocator jade(substrate_options(hardened_policy(), true));
    constexpr unsigned kBatch = 8;
    bool deviated = false;
    for (unsigned round = 0; round < 4 && !deviated; ++round) {
        void* ptrs[kBatch];
        for (auto& p : ptrs) {
            p = jade.alloc(48);
            ASSERT_NE(p, nullptr);
        }
        for (auto& p : ptrs)
            jade.free(p);  // cached in free order
        for (unsigned i = 0; i < kBatch; ++i) {
            void* got = jade.alloc(48);
            ASSERT_NE(got, nullptr);
            // LIFO would replay the frees in exact reverse order.
            if (got != ptrs[kBatch - 1 - i])
                deviated = true;
        }
    }
    // P(perfect LIFO under random picks, 4 rounds) = (1/8!)^4.
    EXPECT_TRUE(deviated);
}

}  // namespace
}  // namespace msw::alloc

namespace msw::core {
namespace {

Options
hardened_options()
{
    Options o;
    o.mode = Mode::kSynchronous;  // deterministic sweeps, no threads
    o.helper_threads = 0;
    o.min_sweep_bytes = 4096;
    o.jade.heap_bytes = std::size_t{1} << 30;
    o.jade.policy = &alloc::hardened_policy();
    return o;
}

TEST(HardenedRuntime, CountersAdvanceWithoutFalsePositives)
{
    MineSweeper ms(hardened_options());
    std::vector<void*> ptrs;
    for (int i = 0; i < 256; ++i) {
        void* p = ms.alloc(64);
        ASSERT_NE(p, nullptr);
        std::memset(p, 0x11, 64);  // dirty the payload like real code
        ptrs.push_back(p);
    }
    for (void* p : ptrs)
        ms.free(p);
    ms.force_sweep();
    const SweepStats s = ms.sweep_stats();
    EXPECT_EQ(s.canary_checks, 256u);
    EXPECT_EQ(s.canary_violations, 0u);
    EXPECT_GT(s.sweep_fill_checks, 0u);
    EXPECT_GE(s.release_shuffles, 1u);
}

TEST(HardenedRuntime, DefaultPolicyKeepsCountersAtZero)
{
    Options o = hardened_options();
    o.jade.policy = &alloc::default_policy();
    MineSweeper ms(o);
    void* p = ms.alloc(64);
    ASSERT_NE(p, nullptr);
    ms.free(p);
    ms.force_sweep();
    const SweepStats s = ms.sweep_stats();
    EXPECT_EQ(s.canary_checks, 0u);
    EXPECT_EQ(s.canary_violations, 0u);
    EXPECT_EQ(s.sweep_fill_checks, 0u);
    EXPECT_EQ(s.release_shuffles, 0u);
}

/**
 * A quarantine runtime under the hardened policy, built by a factory
 * (the runtime_ledger_test pattern): both runtimes share the front end
 * that arms and checks the canary.
 */
struct RuntimeCase {
    const char* name;
    std::unique_ptr<QuarantineRuntime> (*make)();
};

void
PrintTo(const RuntimeCase& c, std::ostream* os)
{
    *os << c.name;
}

class HardenedCanaryDeathTest : public ::testing::TestWithParam<RuntimeCase>
{
};

TEST_P(HardenedCanaryDeathTest, OverflowCanaryTripsAtFree)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            const std::unique_ptr<QuarantineRuntime> rt = GetParam().make();
            QuarantineRuntime& ms = *rt;
            char* p = static_cast<char*>(ms.alloc(40));
            // usable_size() excludes the reserved slack byte; writing it
            // is a one-byte heap overflow onto the canary.
            p[ms.usable_size(p)] = 0x77;
            ms.free(p);
        },
        "allocation policy violation");
}

INSTANTIATE_TEST_SUITE_P(
    Runtimes, HardenedCanaryDeathTest,
    ::testing::Values(
        RuntimeCase{"minesweeper",
                    []() -> std::unique_ptr<QuarantineRuntime> {
                        return std::make_unique<MineSweeper>(
                            hardened_options());
                    }},
        RuntimeCase{"markus",
                    []() -> std::unique_ptr<QuarantineRuntime> {
                        baseline::MarkUs::Options o;
                        o.jade.heap_bytes = std::size_t{1} << 30;
                        o.jade.policy = &alloc::hardened_policy();
                        return std::make_unique<baseline::MarkUs>(o);
                    }}),
    [](const ::testing::TestParamInfo<RuntimeCase>& info) {
        return std::string(info.param.name);
    });

/** Blocks the release walk audited, in walk order. */
std::vector<std::uintptr_t> g_audited;

const void*
recording_check_free_fill(const void* p, std::size_t usable)
{
    g_audited.push_back(to_addr(p));
    return alloc::hardened_policy().check_free_fill(p, usable);
}

/**
 * Release frees each bin's blocks in the policy's shuffled locked-in
 * order: free_batch groups a ticket by bin stably. The fill audit
 * records that order (one release worker walks the tickets in turn).
 * Each released block is the only free slot of an otherwise full slab
 * and there is no thread cache, so a bin hands those slabs back out
 * most recently freed first: the reverse of its free order.
 */
TEST(HardenedRuntime, ReleaseKeepsShuffledOrderWithinEachBin)
{
    alloc::AllocPolicy policy = alloc::hardened_policy();
    policy.check_free_fill = &recording_check_free_fill;
    Options o = hardened_options();
    o.jade.policy = &policy;
    o.jade.enable_tcache = false;
    o.min_sweep_bytes = std::size_t{64} << 20;  // Sweep when forced only.
    MineSweeper ms(o);
    const alloc::ExtentAllocator& extents = ms.substrate().extents();

    constexpr std::size_t kSizes[] = {40, 100};
    constexpr unsigned kSlabs = 30;
    std::map<std::size_t, unsigned> cls_of;
    for (std::size_t size : kSizes) {
        void* first = ms.alloc(size);
        ASSERT_NE(first, nullptr);
        cls_of[size] = extents.lookup(to_addr(first))->cls;
        const unsigned nslots = alloc::slab_slots(cls_of[size]);
        std::map<std::uintptr_t, std::vector<void*>> by_slab;
        by_slab[extents.lookup(to_addr(first))->base].push_back(first);
        for (unsigned i = 0; i < kSlabs * nslots; ++i) {
            void* p = ms.alloc(size);
            ASSERT_NE(p, nullptr);
            by_slab[extents.lookup(to_addr(p))->base].push_back(p);
        }
        for (const auto& [base, blocks] : by_slab) {
            if (blocks.size() == nslots)
                ms.free(blocks.front());
        }
    }
    g_audited.clear();
    ms.force_sweep();
    EXPECT_GE(ms.sweep_stats().release_shuffles, 1u);

    for (std::size_t size : kSizes) {
        std::vector<std::uintptr_t> freed_in_bin;
        for (std::uintptr_t a : g_audited) {
            if (extents.lookup(a)->cls == cls_of[size])
                freed_in_bin.push_back(a);
        }
        ASSERT_GE(freed_in_bin.size(), kSlabs / 2) << "size " << size;
        std::vector<std::uintptr_t> reused;
        for (std::size_t i = 0; i < freed_in_bin.size(); ++i)
            reused.push_back(to_addr(ms.alloc(size)));
        EXPECT_EQ(reused, std::vector<std::uintptr_t>(freed_in_bin.rbegin(),
                                                      freed_in_bin.rend()))
            << "size " << size;
    }
}

using HardenedDeathTest = ::testing::Test;

TEST(HardenedDeathTest, QuarantineTamperTripsAtSweep)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            MineSweeper ms(hardened_options());
            char* p = static_cast<char*>(ms.alloc(64));
            ms.free(p);
            // Use-after-free write into the zero-filled quarantined
            // block; the release-time fill audit must catch it.
            p[8] = 1;
            ms.force_sweep();
        },
        "allocation policy violation");
}

TEST(HardenedRuntime, NonFatalModeCountsViolations)
{
    ASSERT_EQ(setenv("MSW_POLICY_FATAL", "0", 1), 0);
    MineSweeper ms(hardened_options());
    char* p = static_cast<char*>(ms.alloc(40));
    ASSERT_NE(p, nullptr);
    p[ms.usable_size(p)] = 0x77;
    ms.free(p);
    EXPECT_EQ(ms.sweep_stats().canary_violations, 1u);
    EXPECT_EQ(unsetenv("MSW_POLICY_FATAL"), 0);
}

}  // namespace
}  // namespace msw::core
