/**
 * @file
 * Shared scaffolding for the per-figure benchmark binaries.
 *
 * Every figure binary follows the paper's methodology: run each
 * (system, workload) pair in its own forked process, measure wall time
 * (SPEC-style), sampled RSS (PSRecord-style) and CPU time, then print the
 * figure's rows normalised against the JadeHeap baseline, with the
 * paper's reported numbers alongside for comparison (EXPERIMENTS.md
 * records both).
 *
 * MSW_BENCH_SCALE scales workload sizes (default 1.0); figures were
 * calibrated so each binary completes in a few minutes on one core.
 */
#pragma once

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "metrics/metrics.h"
#include "workload/profile.h"
#include "workload/runner.h"
#include "workload/spec_profiles.h"
#include "workload/system.h"

namespace msw::bench {

using metrics::RunRecord;
using workload::Profile;
using workload::SystemKind;

/**
 * Schema version stamped into every BENCH_*.json, bumped whenever a key
 * is renamed or removed (additions do not bump it). Plot/CI tooling
 * checks this instead of sniffing key presence.
 */
inline constexpr int kBenchSchemaVersion = 3;

/** Build provenance: `git describe` captured at configure time. */
inline const char*
git_describe()
{
#ifdef MSW_GIT_DESCRIBE
    return MSW_GIT_DESCRIBE;
#else
    return "unknown";
#endif
}

/**
 * Stamp the provenance keys into an open JSON object. Call immediately
 * after writing the opening "{\n".
 */
inline void
json_stamp(std::FILE* f)
{
    std::fprintf(f,
                 "  \"schema_version\": %d,\n"
                 "  \"git_describe\": \"%s\",\n",
                 kBenchSchemaVersion, git_describe());
}

/** All measurements for one benchmark row. */
struct Row {
    std::string bench;
    std::map<std::string, RunRecord> runs;  // keyed by system label
};

/** One system column in a suite run. */
struct SystemColumn {
    std::string label;
    SystemKind kind;
    core::Options msw_options{};
};

/** The paper's standard four-system comparison. */
inline std::vector<SystemColumn>
paper_systems()
{
    return {
        {"baseline", SystemKind::kBaseline, {}},
        {"markus", SystemKind::kMarkUs, {}},
        {"ffmalloc", SystemKind::kFFMalloc, {}},
        {"minesweeper", SystemKind::kMineSweeper, {}},
    };
}

/** Run @p systems over @p profiles, printing progress to stderr. */
inline std::vector<Row>
run_suite(const std::vector<Profile>& profiles,
          const std::vector<SystemColumn>& systems,
          unsigned timeout_s = 300)
{
    std::vector<Row> rows;
    for (const Profile& p : profiles) {
        Row row;
        row.bench = p.name;
        for (const SystemColumn& sys : systems) {
            std::fprintf(stderr, "  [%s / %s] ...", p.name.c_str(),
                         sys.label.c_str());
            std::fflush(stderr);
            workload::MeasureOptions mo;
            mo.timeout_s = timeout_s;
            const RunRecord rec =
                workload::measure_profile(sys.kind, p, sys.msw_options, mo);
            std::fprintf(stderr, " %s %.2fs rss %.1fMiB\n",
                         rec.ok ? "ok" : "FAILED", rec.wall_s,
                         static_cast<double>(rec.avg_rss) / (1 << 20));
            row.runs[sys.label] = rec;
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

/**
 * Print a ratio table: each system column normalised to the baseline
 * column for the chosen metric, with a geomean footer. Returns the
 * geomeans keyed by system label.
 */
template <typename MetricFn>
std::map<std::string, double>
print_ratio_table(const char* title, const std::vector<Row>& rows,
                  const std::vector<SystemColumn>& systems,
                  const std::string& baseline_label, MetricFn&& metric)
{
    std::printf("\n%s\n", title);
    std::vector<std::string> headers = {"benchmark"};
    for (const auto& sys : systems) {
        if (sys.label != baseline_label)
            headers.push_back(sys.label);
    }
    metrics::Table table(headers);
    std::map<std::string, std::vector<double>> ratios;

    for (const Row& row : rows) {
        const auto base_it = row.runs.find(baseline_label);
        if (base_it == row.runs.end() || !base_it->second.ok)
            continue;
        const double base = metric(base_it->second);
        std::vector<std::string> cells = {row.bench};
        for (const auto& sys : systems) {
            if (sys.label == baseline_label)
                continue;
            const auto it = row.runs.find(sys.label);
            if (it == row.runs.end() || !it->second.ok || base <= 0) {
                cells.push_back("n/a");
                continue;
            }
            const double r = metric(it->second) / base;
            ratios[sys.label].push_back(r);
            cells.push_back(metrics::fmt_ratio(r));
        }
        table.add_row(std::move(cells));
    }

    std::vector<std::string> footer = {"geomean"};
    std::map<std::string, double> geo;
    for (const auto& sys : systems) {
        if (sys.label == baseline_label)
            continue;
        const double g = metrics::geomean(ratios[sys.label]);
        geo[sys.label] = g;
        footer.push_back(metrics::fmt_ratio(g));
    }
    table.add_row(std::move(footer));
    table.print();
    return geo;
}

inline double
metric_wall(const RunRecord& r)
{
    return r.wall_s;
}

inline double
metric_avg_rss(const RunRecord& r)
{
    return static_cast<double>(r.avg_rss);
}

inline double
metric_peak_rss(const RunRecord& r)
{
    return static_cast<double>(r.peak_rss);
}

inline double
metric_cpu(const RunRecord& r)
{
    return r.cpu_s;
}

/** Effective scale: binary default x MSW_BENCH_SCALE. */
inline double
effective_scale(double binary_default)
{
    return binary_default * metrics::bench_scale();
}

}  // namespace msw::bench
