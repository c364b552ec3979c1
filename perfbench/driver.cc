/**
 * @file
 * One in-process repetition of a perfbench workload, printed as one JSON
 * line on stdout. run.py starts one driver process per repetition and
 * measures its wall time, CPU time and peak RSS from outside.
 *
 *   perfbench_driver server      --seed N [--system jade] [--trace]
 *   perfbench_driver large_churn --seed N [--system jade] [--trace]
 *   perfbench_driver probe
 *
 * --system jade runs the same seed on JadeHeap alone; run.py does that at
 * set-up to capture the oracle (the server ledger, the executor checksum).
 * --trace wraps the MineSweeper instance in a timing allocator that times
 * every alloc and free call from outside the runtime. `probe` times
 * sweep::Marker::mark_ranges over a fixed 64 MiB heap image at several
 * pointer densities.
 */
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "alloc/allocator.h"
#include "core/minesweeper.h"
#include "metrics/histogram.h"
#include "metrics/metrics.h"
#include "metrics/telemetry.h"
#include "sweep/shadow_map.h"
#include "sweep/sweeper.h"
#include "util/rng.h"
#include "vm/vm.h"
#include "workload/executor.h"
#include "workload/server.h"
#include "workload/system.h"

#include "latency.h"

namespace {

using namespace msw;

/**
 * Times every alloc and free call of the wrapped MineSweeper and counts
 * what the workload freed, so the traced run can check the runtime's
 * release counters against the frees actually issued.
 */
class TimingAllocator final : public alloc::Allocator
{
  public:
    TimingAllocator(std::unique_ptr<alloc::Allocator> inner,
                    core::MineSweeper* ms)
        : inner_(std::move(inner)), ms_(ms)
    {}

    void*
    alloc(std::size_t size) override
    {
        const std::uint64_t t0 = metrics::telemetry_now_ns();
        void* p = inner_->alloc(size);
        alloc_ns.record(metrics::telemetry_now_ns() - t0);
        return p;
    }

    void*
    alloc_aligned(std::size_t alignment, std::size_t size) override
    {
        const std::uint64_t t0 = metrics::telemetry_now_ns();
        void* p = inner_->alloc_aligned(alignment, size);
        alloc_ns.record(metrics::telemetry_now_ns() - t0);
        return p;
    }

    void
    free(void* ptr) override
    {
        if (ptr != nullptr) {
            // The bytes the runtime holds for the block: the substrate's
            // usable size, which is what bytes_released counts.
            const std::size_t held = ms_->substrate().usable_size(ptr);
            // Tallies only; read after the workload threads are joined.
            frees.fetch_add(1, std::memory_order_relaxed);
            bytes_freed.fetch_add(held, std::memory_order_relaxed);
        }
        const std::uint64_t t0 = metrics::telemetry_now_ns();
        inner_->free(ptr);
        free_ns.record(metrics::telemetry_now_ns() - t0);
    }

    std::size_t
    usable_size(const void* ptr) const override
    {
        return inner_->usable_size(ptr);
    }

    alloc::AllocatorStats stats() const override { return inner_->stats(); }
    const char* name() const override { return inner_->name(); }
    void flush() override { inner_->flush(); }

    metrics::Histogram alloc_ns;
    metrics::Histogram free_ns;
    std::atomic<std::uint64_t> frees{0};
    std::atomic<std::uint64_t> bytes_freed{0};

  private:
    std::unique_ptr<alloc::Allocator> inner_;
    core::MineSweeper* ms_;
};

struct Args {
    std::string mode;
    std::uint64_t seed = 1;
    bool jade = false;
    bool trace = false;
};

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: perfbench_driver "
                 "server|large_churn|probe [--seed N] [--system "
                 "minesweeper|jade] [--trace]\n",
                 why);
    std::exit(2);
}

Args
parse(int argc, char** argv)
{
    if (argc < 2)
        usage("missing mode");
    Args a;
    a.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--seed" && i + 1 < argc) {
            a.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--system" && i + 1 < argc) {
            const std::string sys = argv[++i];
            if (sys != "jade" && sys != "minesweeper")
                usage("unknown system");
            a.jade = sys == "jade";
        } else if (arg == "--trace") {
            a.trace = true;
        } else {
            usage("unknown argument");
        }
    }
    return a;
}

/** The workload's own request-latency digest (bucket upper bounds). */
void
print_summary(const char* name, const metrics::LatencySummary& s)
{
    std::printf("\"%s\": {\"count\": %" PRIu64 ", \"p50_ns\": %" PRIu64
                ", \"p99_ns\": %" PRIu64 ", \"p999_ns\": %" PRIu64 "}",
                name, s.count, s.p50_ns, s.p99_ns, s.p999_ns);
}

/** The runtime counters, named as the shim's MSW_STATS_DUMP names them. */
void
print_sweep_stats(const core::SweepStats& s)
{
    const struct {
        const char* name;
        std::uint64_t value;
    } counters[] = {
        {"sweeps", s.sweeps},
        {"entries_released", s.entries_released},
        {"bytes_released", s.bytes_released},
        {"failed_frees", s.failed_frees},
        {"bytes_scanned", s.bytes_scanned},
        {"sweep_cpu_ns", s.sweep_cpu_ns},
        {"stw_ns", s.stw_ns},
        {"pause_ns", s.pause_ns},
        {"phase_mark_ns", s.phase_mark_ns},
        {"phase_drain_ns", s.phase_drain_ns},
        {"phase_release_ns", s.phase_release_ns},
        {"unmapped_entries", s.unmapped_entries},
        {"oom_returns", s.oom_returns},
    };
    std::printf("\"counters\": {");
    bool first = true;
    for (const auto& c : counters) {
        std::printf("%s\"%s\": %" PRIu64, first ? "" : ", ", c.name,
                    c.value);
        first = false;
    }
    std::printf("}");
}

/** server: 2 closed-loop workers, a fixed number of operations each. */
workload::WorkloadResult
run_server_workload(workload::System& sys, std::uint64_t seed)
{
    workload::ServerOptions o;
    o.threads = 2;
    o.ops_per_thread = 300000;
    o.seed = seed;
    return workload::run_server(sys, o);
}

/**
 * large_churn: one thread; about 1 % of allocations are page-scale
 * (64 KiB-2 MiB) and carry most of the freed bytes, so large frees take
 * the unmap path and the unmapped-quarantine trigger fires.
 */
workload::WorkloadResult
run_large_churn(workload::System& sys, std::uint64_t seed)
{
    workload::Profile p;
    p.name = "large_churn";
    p.ticks = 200000;
    p.allocs_per_tick = 4;
    // Long lifetimes keep ~4000 objects (~40 large) live, so the peak
    // footprint averages over many large blocks rather than a few.
    p.lifetime_mean_ticks = 1024;
    p.large_prob = 0.01;
    p.large_min = 64 * 1024;
    p.large_max = 2 << 20;
    p.threads = 1;
    p.seed = seed;
    return workload::run_profile(sys, p);
}

int
run_workload(const Args& a)
{
    workload::System sys = workload::make_system(
        a.jade ? workload::SystemKind::kBaseline
               : workload::SystemKind::kMineSweeper);
    auto* ms = dynamic_cast<core::MineSweeper*>(sys.allocator.get());
    TimingAllocator* timing = nullptr;
    if (a.trace && ms != nullptr) {
        auto wrapper =
            std::make_unique<TimingAllocator>(std::move(sys.allocator), ms);
        timing = wrapper.get();
        sys.allocator = std::move(wrapper);
    }

    const double t0 = metrics::wall_seconds();
    const workload::WorkloadResult r = a.mode == "server"
                                           ? run_server_workload(sys, a.seed)
                                           : run_large_churn(sys, a.seed);
    sys.allocator->flush();
    const double wall = metrics::wall_seconds() - t0;

    std::printf("{\"workload\": \"%s\", \"system\": \"%s\", \"seed\": %" PRIu64
                ", \"run_s\": %.6f, \"allocs\": %" PRIu64
                ", \"frees\": %" PRIu64 ", \"bytes_allocated\": %" PRIu64
                ", \"failed_allocs\": %" PRIu64 ", \"checksum\": %" PRIu64
                ", ",
                a.mode.c_str(), a.jade ? "jade" : "minesweeper", a.seed, wall,
                r.allocs, r.frees, r.bytes_allocated, r.failed_allocs,
                r.checksum);
    print_summary("op_latency", r.op_latency);
    if (ms != nullptr) {
        std::printf(", ");
        print_sweep_stats(ms->sweep_stats());
    }
    if (timing != nullptr) {
        std::printf(", ");
        perfbench::print_latency(stdout, "alloc_ns", timing->alloc_ns);
        std::printf(", ");
        perfbench::print_latency(stdout, "free_ns", timing->free_ns);
        std::printf(", \"frees_issued\": %" PRIu64
                    ", \"bytes_freed\": %" PRIu64,
                    timing->frees.load(), timing->bytes_freed.load());
    }
    std::printf("}\n");
    return 0;
}

/**
 * Mark throughput on a fixed synthetic 64 MiB heap image: each word is a
 * pointer into the image with probability d, otherwise a value outside
 * it. Timed with thread-CPU time on the calling thread only (no helper
 * pool), median of several passes per density.
 */
int
run_probe()
{
    constexpr std::size_t kBytes = std::size_t{64} << 20;
    constexpr int kPasses = 5;
    vm::Reservation heap = vm::Reservation::reserve(kBytes);
    heap.commit_must(heap.base(), kBytes);
    auto* words = reinterpret_cast<std::uint64_t*>(heap.base());
    sweep::ShadowMap shadow(heap.base(), kBytes);
    sweep::Marker marker(&shadow, heap.base(), heap.base() + kBytes);
    const std::vector<sweep::Range> ranges = {
        sweep::Range{heap.base(), kBytes}};

    std::printf("{");
    const int densities[] = {0, 5, 20, 50};
    for (const int d : densities) {
        Rng rng(3);
        const double p = d / 100.0;
        for (std::size_t i = 0; i < kBytes / 8; ++i) {
            words[i] = rng.next_bool(p)
                           ? heap.base() + rng.next_below(kBytes)
                           : rng.next_u64() | (std::uint64_t{1} << 63);
        }
        std::vector<double> gbps;
        for (int pass = 0; pass < kPasses; ++pass) {
            shadow.clear_marks();
            const std::uint64_t c0 = sweep::thread_cpu_ns();
            const sweep::MarkStats st = marker.mark_ranges(ranges, nullptr);
            const std::uint64_t ns = sweep::thread_cpu_ns() - c0;
            gbps.push_back(static_cast<double>(st.bytes_scanned) /
                           static_cast<double>(std::max<std::uint64_t>(ns, 1)));
        }
        std::sort(gbps.begin(), gbps.end());
        std::printf("%s\"d%d\": {\"gbps\": %.6f}", d == 0 ? "" : ", ", d,
                    gbps[kPasses / 2]);
    }
    std::printf("}\n");
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    const Args a = parse(argc, argv);
    if (a.mode == "probe")
        return run_probe();
    if (a.mode == "server" || a.mode == "large_churn")
        return run_workload(a);
    usage("unknown mode");
}
