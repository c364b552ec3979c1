/**
 * @file
 * The one clock. Every duration the runtime measures — sweep phases,
 * pauses, op latencies, decay timestamps, trace stamps — reads
 * CLOCK_MONOTONIC through now_ns(); CPU accounting reads the calling
 * thread's CPU clock through thread_cpu_ns(). Nothing else in src/
 * calls clock_gettime, so every reported time shares one time base.
 * Backoff and test-hook waits sleep through sleep_ns().
 */
#pragma once

#include <cstdint>
#include <ctime>

namespace msw::util {

namespace detail {

inline std::uint64_t
clock_ns(clockid_t id)
{
    struct timespec ts;
    ::clock_gettime(id, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace detail

/** CLOCK_MONOTONIC in nanoseconds. */
inline std::uint64_t
now_ns()
{
    return detail::clock_ns(CLOCK_MONOTONIC);
}

/** CPU time consumed by the calling thread, in nanoseconds. */
inline std::uint64_t
thread_cpu_ns()
{
    return detail::clock_ns(CLOCK_THREAD_CPUTIME_ID);
}

/** Sleep for @p ns nanoseconds (nanosleep: async-signal-safe). */
inline void
sleep_ns(std::uint64_t ns)
{
    const struct timespec ts {
        static_cast<time_t>(ns / 1000000000u),
            static_cast<long>(ns % 1000000000u)
    };
    ::nanosleep(&ts, nullptr);
}

}  // namespace msw::util
