#include "metrics/telemetry.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unistd.h>

#include "util/sigsafe_io.h"

namespace msw::metrics {

namespace {

Telemetry g_telemetry;

/// MSW_STATS_DUMP target, captured during single-threaded bootstrap.
char g_dump_path[1024];

std::atomic<bool> g_usr2_installed{false};

bool
env_truthy(const char* v)
{
    if (v == nullptr || *v == '\0')
        return false;
    return std::strcmp(v, "0") != 0 && std::strcmp(v, "off") != 0 &&
           std::strcmp(v, "false") != 0 && std::strcmp(v, "no") != 0;
}

/// Rounded mean for integer-only output surfaces.
std::uint64_t
mean_as_u64(const LatencySummary& s)
{
    if (s.mean_ns <= 0)
        return 0;
    return static_cast<std::uint64_t>(s.mean_ns + 0.5);
}

void
json_summary(std::FILE* f, const char* name, const LatencySummary& s,
             bool trailing_comma)
{
    std::fprintf(f,
                 "  \"%s\": {\"count\": %llu, \"mean_ns\": %.1f, "
                 "\"max_ns\": %llu, \"p50_ns\": %llu, \"p90_ns\": %llu, "
                 "\"p99_ns\": %llu, \"p999_ns\": %llu}%s\n",
                 name, static_cast<unsigned long long>(s.count), s.mean_ns,
                 static_cast<unsigned long long>(s.max_ns),
                 static_cast<unsigned long long>(s.p50_ns),
                 static_cast<unsigned long long>(s.p90_ns),
                 static_cast<unsigned long long>(s.p99_ns),
                 static_cast<unsigned long long>(s.p999_ns),
                 trailing_comma ? "," : "");
}

void
sigsafe_summary(util::SigsafeWriter& w, const char* name,
                const LatencySummary& s)
{
    w.str(name);
    w.str(" count=");
    w.dec(s.count);
    w.str(" mean=");
    w.dec(mean_as_u64(s));
    w.str(" max=");
    w.dec(s.max_ns);
    w.str(" p50=");
    w.dec(s.p50_ns);
    w.str(" p90=");
    w.dec(s.p90_ns);
    w.str(" p99=");
    w.dec(s.p99_ns);
    w.str(" p999=");
    w.dec(s.p999_ns);
    w.str("\n");
}

void
usr2_handler(int)
{
    // Preserve errno across the dump: write(2) inside SigsafeWriter may
    // clobber it, and the interrupted code must not observe that.
    const int saved_errno = errno;
    telemetry_dump_sigsafe(STDERR_FILENO);
    errno = saved_errno;
}

/// The registered provider's counters, named by export_counters; none
/// without a provider or a runtime. Async-signal-safe.
std::size_t
provider_counters(TelemetryCounter (&out)[kMaxCounters])
{
    // msw-relaxed(config-flag): provider pointer published once during
    // bootstrap; a null read here just omits the counters.
    const SweepStatsFn fn =
        g_telemetry.stats_fn.load(std::memory_order_relaxed);
    SweepStats s;
    // The shim is the only provider; naming it lets msw-analyze check
    // the SIGUSR2 path through it.
    // msw-analyze: calls(shim_sweep_stats)
    if (fn == nullptr || !fn(&s))
        return 0;
    return export_counters(s, out);
}

}  // namespace

Telemetry&
telemetry()
{
    return g_telemetry;
}

bool
telemetry_init_from_env()
{
    bool master = false;
    bool ops = false;
    if (const char* v = std::getenv("MSW_TELEMETRY")) {
        if (env_truthy(v))
            master = true;
        if (std::strcmp(v, "ops") == 0)
            ops = true;
    }
    if (const char* p = std::getenv("MSW_STATS_DUMP")) {
        if (*p != '\0') {
            std::strncpy(g_dump_path, p, sizeof(g_dump_path) - 1);
            g_dump_path[sizeof(g_dump_path) - 1] = '\0';
            master = true;  // a dump path implies the master layer
        }
    }
    Telemetry& t = telemetry();
    if (master) {
        // msw-relaxed(config-flag): advisory toggle armed during
        // bootstrap; gates that observe it late merely skip one sample.
        t.enabled.store(true, std::memory_order_relaxed);
    }
    if (ops) {
        // msw-relaxed(config-flag): as above — advisory toggle.
        t.sample_ops.store(true, std::memory_order_relaxed);
    }
    return master;
}

const char*
telemetry_stats_dump_path()
{
    return g_dump_path[0] != '\0' ? g_dump_path : nullptr;
}

static_assert(kStatCount + 1 <= kMaxCounters,
              "a dump must carry every counter-table row plus sweeps");

std::size_t
export_counters(const SweepStats& s, TelemetryCounter (&out)[kMaxCounters])
{
    std::size_t n = 0;
    out[n++] = TelemetryCounter{"sweeps", s.sweeps};
    for (const CounterRow& row : kCounterRows)
        out[n++] = TelemetryCounter{row.name, s.*row.field};
    return n;
}

bool
telemetry_write_json(const char* path)
{
    if (path == nullptr || *path == '\0')
        return false;
    // Expand %p here, not when the environment is read: under the shim
    // every process of a fork/exec chain (g++ -> cc1plus -> as) writes.
    std::string expanded = path;
    for (std::size_t at; (at = expanded.find("%p")) != std::string::npos;)
        expanded.replace(at, 2, std::to_string(::getpid()));
    std::FILE* f = std::fopen(expanded.c_str(), "w");
    if (f == nullptr)
        return false;
    Telemetry& t = telemetry();
    std::fprintf(f, "{\n");
    json_summary(f, "alloc_ns", t.alloc_ns.summarize(), true);
    json_summary(f, "free_ns", t.free_ns.summarize(), true);
    json_summary(f, "alloc_pause_ns", t.pause_ns.summarize(), true);
    json_summary(f, "stw_pause_ns", t.stw_ns.summarize(), true);

    std::fprintf(f, "  \"counters\": {");
    TelemetryCounter counters[kMaxCounters];
    const std::size_t nc = provider_counters(counters);
    for (std::size_t i = 0; i < nc; ++i) {
        std::fprintf(f, "%s\"%s\": %llu", i == 0 ? "" : ", ",
                     counters[i].name,
                     static_cast<unsigned long long>(counters[i].value));
    }
    std::fprintf(f, "},\n");

    TraceRecord tail[256];
    const std::size_t n =
        t.trace.snapshot(tail, sizeof(tail) / sizeof(tail[0]));
    std::fprintf(f, "  \"trace_pushed\": %llu,\n",
                 static_cast<unsigned long long>(t.trace.pushed()));
    std::fprintf(f, "  \"trace\": [\n");
    for (std::size_t i = 0; i < n; ++i) {
        std::fprintf(f,
                     "    {\"ticket\": %llu, \"ts_ns\": %llu, "
                     "\"event\": \"%s\", \"a0\": %llu, \"a1\": %llu}%s\n",
                     static_cast<unsigned long long>(tail[i].ticket),
                     static_cast<unsigned long long>(tail[i].ts_ns),
                     trace_event_name(tail[i].event),
                     static_cast<unsigned long long>(tail[i].a0),
                     static_cast<unsigned long long>(tail[i].a1),
                     i + 1 == n ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    const bool ok = std::fclose(f) == 0;
    return ok;
}

void
telemetry_dump_sigsafe(int fd)
{
    Telemetry& t = telemetry();
    util::SigsafeWriter w(fd);
    w.str("== msw telemetry ==\n");
    sigsafe_summary(w, "alloc_ns", t.alloc_ns.summarize());
    sigsafe_summary(w, "free_ns", t.free_ns.summarize());
    sigsafe_summary(w, "alloc_pause_ns", t.pause_ns.summarize());
    sigsafe_summary(w, "stw_pause_ns", t.stw_ns.summarize());
    TelemetryCounter counters[kMaxCounters];
    const std::size_t nc = provider_counters(counters);
    for (std::size_t i = 0; i < nc; ++i) {
        w.str("counter ");
        w.str(counters[i].name);
        w.str("=");
        w.dec(counters[i].value);
        w.str("\n");
    }
    TraceRecord tail[16];
    const std::size_t n =
        t.trace.snapshot(tail, sizeof(tail) / sizeof(tail[0]));
    w.str("trace pushed=");
    w.dec(t.trace.pushed());
    w.str(" showing=");
    w.dec(n);
    w.str("\n");
    for (std::size_t i = 0; i < n; ++i) {
        w.str("  [");
        w.dec(tail[i].ticket);
        w.str("] ts=");
        w.dec(tail[i].ts_ns);
        w.str(" ");
        w.str(trace_event_name(tail[i].event));
        w.str(" a0=");
        w.dec(tail[i].a0);
        w.str(" a1=");
        w.dec(tail[i].a1);
        w.str("\n");
    }
    w.str("== end telemetry ==\n");
    w.flush();
}

void
telemetry_install_sigusr2()
{
    bool expected = false;
    if (!g_usr2_installed.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel)) {
        return;
    }
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = &usr2_handler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART;
    ::sigaction(SIGUSR2, &sa, nullptr);
}

}  // namespace msw::metrics
