/**
 * @file
 * Measurement infrastructure for the benchmark harness.
 *
 * The paper measures wall-clock slowdown (SPEC reported times), memory
 * with PSRecord (periodic RSS sampling of the process), and additional
 * CPU utilisation. This module reproduces that methodology:
 *  - RssSampler: a PSRecord-like background thread sampling
 *    /proc/self/statm on an interval, yielding average/peak RSS and the
 *    full time series (Fig 8);
 *  - process CPU time via getrusage (Fig 12's utilisation numerator);
 *  - RunRecord: one benchmark execution's results, shipped over a pipe
 *    so each (system, workload) pair runs in a forked child with
 *    pristine RSS/VA (the paper runs each configuration as a separate
 *    process for the same reason).
 */
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "metrics/counters.h"
#include "metrics/histogram.h"
#include "util/clock.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace msw::metrics {

/**
 * The fixed-size part of a RunRecord: the system's SweepStats (zeros if
 * it does not sweep) plus the run's own measurements. Trivially
 * copyable, so the fork pipe ships it verbatim, new counters included.
 */
struct RunScalars : SweepStats {
    double wall_s = 0;
    double cpu_s = 0;          ///< Process CPU time (all threads).
    std::size_t avg_rss = 0;   ///< Mean sampled RSS (bytes).
    std::size_t peak_rss = 0;  ///< Max sampled RSS (bytes).
    std::uint64_t allocs = 0;
    std::uint64_t frees = 0;
    std::uint64_t checksum = 0;       ///< Workload output (validity check).
    std::uint64_t failed_allocs = 0;  ///< Workload-observed nullptrs.

    // Telemetry (observability layer, DESIGN.md §14): per-operation
    // request latency and the pause distributions.
    LatencySummary op_latency;   ///< Workload request latency digest.
    LatencySummary alloc_pause;  ///< Backpressure allocation pauses.
    LatencySummary stw_pause;    ///< Stop-the-world windows.

    bool ok = false;  ///< Child completed successfully.
};

/** Wall-clock + CPU-time measurements and counters for one run. */
struct RunRecord : RunScalars {
    /** RSS series: (seconds since start, bytes). */
    std::vector<std::pair<double, std::size_t>> rss_series;
};

/** Process CPU time (user+system, all threads) in seconds. */
double process_cpu_seconds();

/** Forward to util::now_ns(), in seconds, for out-of-tree callers. */
inline double
wall_seconds()
{
    return 1e-9 * static_cast<double>(util::now_ns());
}

/** PSRecord-style background RSS sampler. */
class RssSampler
{
  public:
    explicit RssSampler(unsigned interval_ms = 10);
    ~RssSampler();

    /** Stop sampling (idempotent). */
    void stop();

    /** Mean of samples taken so far (bytes). */
    std::size_t average() const;

    /** Max of samples taken so far (bytes). */
    std::size_t peak() const;

    /** (seconds, bytes) series. */
    std::vector<std::pair<double, std::size_t>> series() const;

  private:
    void loop();

    unsigned interval_ms_;
    std::uint64_t start_ns_;
    // Rank kMetrics: leaf lock, never held while calling anything else.
    mutable Mutex mu_{util::LockRank::kMetrics};
    std::vector<std::pair<double, std::size_t>> samples_
        MSW_GUARDED_BY(mu_);
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

/**
 * Run @p body in a forked child process and return its RunRecord.
 *
 * The child gets a pristine address space: RSS, reservations and
 * background threads of one system cannot contaminate the next
 * measurement. On child crash or timeout, a record with ok=false is
 * returned.
 *
 * @param timeout_s Kill the child after this long (0 = no timeout).
 */
RunRecord run_in_subprocess(const std::function<RunRecord()>& body,
                            unsigned timeout_s = 0);

/** Geometric mean of a vector of positive ratios. */
double geomean(const std::vector<double>& values);

/** Simple fixed-width table printer for benchmark output. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    void add_row(std::vector<std::string> cells);

    /** Render to stdout. */
    void print() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format helpers. */
std::string fmt_ratio(double r);              // "1.054x"
std::string fmt_mib(std::size_t bytes);       // "123.4"
std::string fmt_seconds(double s);            // "1.234"

/** Benchmark scale factor from MSW_BENCH_SCALE (default 1.0). */
double bench_scale();

}  // namespace msw::metrics
