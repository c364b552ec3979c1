// Telemetry registry tests: env arming, the JSON export, the
// async-signal-safe dump (exercised through a real SIGUSR2 delivery),
// and op-latency sampling wired through a live MineSweeper.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <set>
#include <sys/wait.h>
#include <string>
#include <unistd.h>

#include "core/minesweeper.h"
#include "metrics/telemetry.h"

namespace msw::metrics {
namespace {

// The registry is process-global, so every test restores the gates it
// flips; tests touching env vars clean those too.
class TelemetryTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        telemetry().enabled.store(false, std::memory_order_relaxed);
        telemetry().sample_ops.store(false, std::memory_order_relaxed);
        ::unsetenv("MSW_TELEMETRY");
        ::unsetenv("MSW_STATS_DUMP");
    }
};

std::string
slurp(const std::string& path)
{
    std::string out;
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr)
        return out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

std::string
temp_path(const char* tag)
{
    return std::string(::testing::TempDir()) + "telemetry_" + tag + "_" +
           std::to_string(::getpid());
}

TEST_F(TelemetryTest, OffByDefault)
{
    EXPECT_FALSE(telemetry().on());
    EXPECT_FALSE(telemetry().ops_on());
    // Gated trace push must be a no-op while off.
    const std::uint64_t before = telemetry().trace.pushed();
    telemetry().trace_event(TraceEvent::kSweepBegin, 1, 2);
    EXPECT_EQ(telemetry().trace.pushed(), before);
}

TEST_F(TelemetryTest, EnvArmsTheMasterLayer)
{
    ::setenv("MSW_TELEMETRY", "1", 1);
    EXPECT_TRUE(telemetry_init_from_env());
    EXPECT_TRUE(telemetry().on());
    EXPECT_FALSE(telemetry().ops_on()) << "ops sampling is a separate gate";

    ::setenv("MSW_TELEMETRY", "ops", 1);
    EXPECT_TRUE(telemetry_init_from_env());
    EXPECT_TRUE(telemetry().ops_on());
}

TEST_F(TelemetryTest, FalsyEnvStaysOff)
{
    for (const char* v : {"", "0", "off", "false", "no"}) {
        ::setenv("MSW_TELEMETRY", v, 1);
        telemetry().enabled.store(false, std::memory_order_relaxed);
        EXPECT_FALSE(telemetry_init_from_env()) << "value: " << v;
        EXPECT_FALSE(telemetry().on()) << "value: " << v;
    }
}

TEST_F(TelemetryTest, StatsDumpPathImpliesMaster)
{
    const std::string path = temp_path("implied");
    ::setenv("MSW_STATS_DUMP", path.c_str(), 1);
    EXPECT_TRUE(telemetry_init_from_env());
    EXPECT_TRUE(telemetry().on());
    ASSERT_NE(telemetry_stats_dump_path(), nullptr);
    EXPECT_STREQ(telemetry_stats_dump_path(), path.c_str());
}

// %p expands when the dump is written, so each process of a fork chain
// (g++ -> cc1plus -> as under the shim) keeps its own file.
TEST_F(TelemetryTest, StatsDumpPidExpandsPerWritingProcess)
{
    const std::string pattern = temp_path("pid") + "_%p.json";
    ::setenv("MSW_STATS_DUMP", pattern.c_str(), 1);
    ASSERT_TRUE(telemetry_init_from_env());
    const auto path_for = [&](pid_t pid) {
        return pattern.substr(0, pattern.size() - 7) + std::to_string(pid) +
               ".json";
    };

    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0)
        ::_exit(telemetry_write_json(telemetry_stats_dump_path()) ? 0 : 1);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    ASSERT_TRUE(telemetry_write_json(telemetry_stats_dump_path()));

    for (const pid_t pid : {child, ::getpid()}) {
        const std::string json = slurp(path_for(pid));
        ::unlink(path_for(pid).c_str());
        EXPECT_NE(json.find("\"counters\""), std::string::npos)
            << "no dump for pid " << pid;
    }
}

TEST_F(TelemetryTest, JsonExportCarriesHistogramsAndTrace)
{
    telemetry().enabled.store(true, std::memory_order_relaxed);
    telemetry().pause_ns.record(1234);
    telemetry().trace_event(TraceEvent::kAllocPause, 1234, 0);

    const std::string path = temp_path("json");
    ASSERT_TRUE(telemetry_write_json(path.c_str()));
    const std::string json = slurp(path);
    ::unlink(path.c_str());

    // Keys the plot/CI tooling depends on.
    EXPECT_NE(json.find("\"alloc_pause_ns\""), std::string::npos);
    EXPECT_NE(json.find("\"stw_pause_ns\""), std::string::npos);
    EXPECT_NE(json.find("\"alloc_ns\""), std::string::npos);
    EXPECT_NE(json.find("\"free_ns\""), std::string::npos);
    EXPECT_NE(json.find("\"p999_ns\""), std::string::npos);
    EXPECT_NE(json.find("\"trace\""), std::string::npos);
    EXPECT_NE(json.find("alloc_pause"), std::string::npos)
        << "trace entries are exported by event name";
}

// The dump's counter names are read by perfbench and its fixtures: the
// provider exports sweeps plus one uniquely named counter per table row,
// each carrying its own field's value, keeps every name it has ever
// exported, and fits the dump's buffer.
TEST_F(TelemetryTest, CounterProviderExportsOneNamePerTableRow)
{
    SweepStats s;
    s.sweeps = 1000;
    for (unsigned i = 0; i < kStatCount; ++i)
        s.*kCounterRows[i].field = i + 1;

    TelemetryCounter out[kMaxCounters];
    const std::size_t n = export_counters(s, out);
    ASSERT_EQ(n, kStatCount + 1);
    ASSERT_LE(n, kMaxCounters);

    std::set<std::string> names;
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_TRUE(names.insert(out[i].name).second) << out[i].name;
    EXPECT_STREQ(out[0].name, "sweeps");
    EXPECT_EQ(out[0].value, 1000u);
    for (unsigned i = 0; i < kStatCount; ++i) {
        EXPECT_STREQ(out[i + 1].name, kCounterRows[i].name);
        EXPECT_EQ(out[i + 1].value, i + 1u) << out[i + 1].name;
    }

    for (const char* key :
         {"sweeps", "entries_released", "bytes_released", "failed_frees",
          "double_frees", "bytes_scanned", "sweep_cpu_ns", "stw_ns",
          "pause_ns", "phase_dirty_scan_ns", "phase_mark_ns",
          "phase_drain_ns", "phase_release_ns", "release_bin_locks",
          "sweep_wall_ns", "emergency_sweeps", "watchdog_fallbacks",
          "oom_returns"}) {
        EXPECT_EQ(names.count(key), 1u) << key;
    }
    EXPECT_EQ(out[1 + static_cast<unsigned>(Stat::kStwNs)].value, s.stw_ns);

    // The JSON dump exports a registered provider's stats the same way.
    telemetry().stats_fn.store(
        [](SweepStats* o) {
            *o = SweepStats{};
            o->pointers_found = 4242;
            return true;
        },
        std::memory_order_relaxed);
    const std::string path = temp_path("counters");
    const bool written = telemetry_write_json(path.c_str());
    telemetry().stats_fn.store(nullptr, std::memory_order_relaxed);
    ASSERT_TRUE(written);
    const std::string json = slurp(path);
    ::unlink(path.c_str());
    EXPECT_NE(json.find("\"pointers_found\": 4242"), std::string::npos);
    EXPECT_NE(json.find("\"sweeps\": 0"), std::string::npos);
}

TEST_F(TelemetryTest, SigsafeDumpWritesDigests)
{
    telemetry().enabled.store(true, std::memory_order_relaxed);
    telemetry().pause_ns.record(4321);

    const std::string path = temp_path("sigsafe");
    const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0600);
    ASSERT_GE(fd, 0);
    telemetry_dump_sigsafe(fd);
    ::close(fd);
    const std::string text = slurp(path);
    ::unlink(path.c_str());

    EXPECT_NE(text.find("msw telemetry"), std::string::npos);
    EXPECT_NE(text.find("alloc_pause_ns"), std::string::npos);
    EXPECT_NE(text.find("stw_pause_ns"), std::string::npos);
    EXPECT_NE(text.find("p99"), std::string::npos);
}

TEST_F(TelemetryTest, Sigusr2DeliversTheDump)
{
    telemetry().enabled.store(true, std::memory_order_relaxed);
    telemetry().pause_ns.record(99);
    telemetry_install_sigusr2();

    // The handler writes to stderr; point fd 2 at a file around the
    // raise() so the dump lands somewhere this test can read.
    const std::string path = temp_path("usr2");
    const int saved = ::dup(STDERR_FILENO);
    ASSERT_GE(saved, 0);
    const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0600);
    ASSERT_GE(fd, 0);
    ASSERT_GE(::dup2(fd, STDERR_FILENO), 0);
    ::close(fd);

    ::raise(SIGUSR2);

    ::dup2(saved, STDERR_FILENO);
    ::close(saved);
    const std::string text = slurp(path);
    ::unlink(path.c_str());

    EXPECT_NE(text.find("msw telemetry"), std::string::npos)
        << "SIGUSR2 must produce the text dump";
}

TEST_F(TelemetryTest, OpsSamplingTimesMineSweeperCalls)
{
    telemetry().enabled.store(true, std::memory_order_relaxed);
    telemetry().sample_ops.store(true, std::memory_order_relaxed);
    const std::uint64_t allocs0 = telemetry().alloc_ns.count();
    const std::uint64_t frees0 = telemetry().free_ns.count();

    {
        core::MineSweeper msw;
        msw.register_mutator_thread();
        for (int i = 0; i < 1000; ++i) {
            void* p = msw.alloc(64);
            ASSERT_NE(p, nullptr);
            msw.free(p);
        }
        msw.unregister_mutator_thread();
    }

    EXPECT_GE(telemetry().alloc_ns.count(), allocs0 + 1000);
    EXPECT_GE(telemetry().free_ns.count(), frees0 + 1000);
    EXPECT_GT(telemetry().alloc_ns.summarize().p50_ns, 0u);
}

TEST_F(TelemetryTest, OpsOffRecordsNothing)
{
    telemetry().enabled.store(true, std::memory_order_relaxed);
    telemetry().sample_ops.store(false, std::memory_order_relaxed);
    const std::uint64_t allocs0 = telemetry().alloc_ns.count();

    core::MineSweeper msw;
    msw.register_mutator_thread();
    void* p = msw.alloc(64);
    ASSERT_NE(p, nullptr);
    msw.free(p);
    msw.unregister_mutator_thread();

    EXPECT_EQ(telemetry().alloc_ns.count(), allocs0)
        << "the op gate must keep the fast path untimed";
}

TEST_F(TelemetryTest, NowNsIsMonotonic)
{
    const std::uint64_t a = telemetry_now_ns();
    const std::uint64_t b = telemetry_now_ns();
    EXPECT_GE(b, a);
    EXPECT_GT(b, 0u);
}

}  // namespace
}  // namespace msw::metrics
