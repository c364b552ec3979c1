/**
 * @file
 * Figure 14 — number of sweeps triggered per benchmark (fully concurrent
 * version).
 *
 * Paper result: omnetpp triggers the most sweeps (1075), xalancbmk 654
 * (almost all close together near the end of the run); allocation-light
 * benchmarks trigger few or none. Sweep count does not correlate
 * perfectly with slowdown — sweeping is not the only overhead (§5.5).
 *
 * A fully concurrent sweep races the mutator, so how many triggers land
 * while one runs, and with them the count, varies from run to run. Each
 * profile therefore runs kRuns times; the table shows the median with
 * the min–max range, and "most sweeps" is chosen by the median. The
 * runs go round-robin over the profiles, so a slow phase of the host,
 * such as the first seconds after it sat idle, lowers one run of a
 * profile and not all of them.
 */
#include <algorithm>

#include "bench/bench_common.h"

int
main()
{
    using namespace msw::bench;
    constexpr int kRuns = 5;
    std::printf("== Fig 14: sweeps triggered per benchmark ==\n");
    std::printf("paper: omnetpp 1075, xalancbmk 654 (mostly in the "
                "end-of-run churn), compute-bound benchmarks ~0\n");
    std::printf("sweeps: median of %d runs [min-max]\n\n", kRuns);

    const auto profiles =
        msw::workload::spec2006_profiles(effective_scale(0.5));

    std::vector<std::vector<std::uint64_t>> sweeps(profiles.size());
    std::vector<RunRecord> last(profiles.size());
    for (int r = 0; r < kRuns; ++r) {
        for (std::size_t i = 0; i < profiles.size(); ++i) {
            std::fprintf(stderr, "  [%s] run %d/%d...\n",
                         profiles[i].name.c_str(), r + 1, kRuns);
            last[i] = msw::workload::measure_profile(
                SystemKind::kMineSweeper, profiles[i]);
            sweeps[i].push_back(last[i].sweeps);
        }
    }

    msw::metrics::Table table({"benchmark", "sweeps", "range", "allocs",
                               "frees"});
    std::uint64_t max_sweeps = 0;
    std::string max_bench;
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        std::vector<std::uint64_t>& s = sweeps[i];
        std::sort(s.begin(), s.end());
        const std::uint64_t median = s[kRuns / 2];
        if (median > max_sweeps) {
            max_sweeps = median;
            max_bench = profiles[i].name;
        }
        table.add_row({profiles[i].name, std::to_string(median),
                       std::to_string(s.front()) + "-" +
                           std::to_string(s.back()),
                       std::to_string(last[i].allocs),
                       std::to_string(last[i].frees)});
    }
    table.print();
    std::printf("\nmost sweeps (by median): %s (%llu) — paper: omnetpp, "
                "with xalancbmk second\n",
                max_bench.c_str(),
                static_cast<unsigned long long>(max_sweeps));
    return 0;
}
