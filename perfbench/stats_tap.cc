/**
 * @file
 * Preloaded after libminesweeper_preload.so in the traced cc1plus run.
 * At exit it writes, as JSON to $PERFBENCH_TAP_OUT, what MSW_STATS_DUMP
 * does not carry: the unmapped_entries counter, read through
 * lifecycle::registered_runtime()->sweep_stats(), and the MSW_TELEMETRY=ops
 * alloc/free histograms as interpolated percentiles (latency.h), read
 * through metrics::telemetry(). Both are the shim runtime's public API.
 */
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "core/lifecycle.h"
#include "core/minesweeper.h"
#include "metrics/telemetry.h"

#include "latency.h"

namespace {

__attribute__((destructor)) void
write_tap()
{
    const char* path = std::getenv("PERFBENCH_TAP_OUT");
    msw::core::MineSweeper* rt = msw::core::lifecycle::registered_runtime();
    if (path == nullptr || rt == nullptr)
        return;
    const msw::core::SweepStats s = rt->sweep_stats();
    const msw::metrics::Telemetry& t = msw::metrics::telemetry();
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr)
        return;
    std::fprintf(f, "{\"unmapped_entries\": %" PRIu64 ", ",
                 s.unmapped_entries);
    perfbench::print_latency(f, "alloc_ns", t.alloc_ns);
    std::fprintf(f, ", ");
    perfbench::print_latency(f, "free_ns", t.free_ns);
    std::fprintf(f, "}\n");
    std::fclose(f);
}

}  // namespace
