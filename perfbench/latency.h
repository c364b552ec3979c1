/**
 * @file
 * Latency digests for perfbench output, shared by the in-process driver
 * and the stats tap.
 *
 * Histogram::percentile() returns a bucket's upper bound, so a digest
 * moves in steps of about 3 % and two different runs often print the same
 * number. The benchmark interpolates linearly inside the bucket that
 * holds the rank instead, as if the bucket's samples were spread evenly
 * over its integer range.
 */
#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>

#include "metrics/histogram.h"

namespace perfbench {

inline double
interpolated_percentile(const msw::metrics::Histogram& h, double q)
{
    using msw::metrics::Histogram;
    std::uint64_t total = 0;
    for (unsigned i = 0; i < Histogram::kBuckets; ++i)
        total += h.bucket_count(i);
    if (total == 0)
        return 0;
    const double rank = q * static_cast<double>(total);
    std::uint64_t seen = 0;
    for (unsigned i = 0; i < Histogram::kBuckets; ++i) {
        const std::uint64_t c = h.bucket_count(i);
        if (c == 0)
            continue;
        if (static_cast<double>(seen + c) >= rank) {
            const double lo = static_cast<double>(Histogram::bucket_lower(i));
            const double width =
                static_cast<double>(Histogram::bucket_upper(i)) + 1 - lo;
            return lo + width * (rank - static_cast<double>(seen)) /
                            static_cast<double>(c);
        }
        seen += c;
    }
    return static_cast<double>(h.max_value());
}

/** Prints `"name": {"count": n, "p50_ns": x, "p99_ns": y}`. */
inline void
print_latency(std::FILE* f, const char* name, const msw::metrics::Histogram& h)
{
    std::fprintf(f, "\"%s\": {\"count\": %" PRIu64
                    ", \"p50_ns\": %.3f, \"p99_ns\": %.3f}",
                 name, h.count(), interpolated_percentile(h, 0.50),
                 interpolated_percentile(h, 0.99));
}

}  // namespace perfbench
