/**
 * @file
 * The drop-in LD_PRELOAD shim: MineSweeper as a malloc replacement for
 * unmodified binaries — the deployment model of the paper ("drop-in:
 * without the need for hardware support or recompilation").
 *
 *   $ LD_PRELOAD=libminesweeper_preload.so ./your_program
 *
 * Interposes malloc/free/calloc/realloc/posix_memalign/aligned_alloc/
 * memalign/valloc/malloc_usable_size.
 *
 * Bootstrapping: allocations that arrive while the MineSweeper instance
 * is still being constructed (including allocations made *by* the
 * constructor, which re-enter this shim) are served from a static bump
 * arena and never freed — the standard interposer technique.
 *
 * Roots: the main thread registers itself at initialisation; the
 * process's writable memory regions (globals, other thread stacks) are
 * discovered by rescanning /proc/self/maps at the start of every sweep
 * via the extra-roots provider.
 */
#include <cerrno>
#include <pthread.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "alloc/policy.h"
#include "core/minesweeper.h"
#include "metrics/telemetry.h"
#include "util/bits.h"

namespace {

using msw::core::MineSweeper;
using msw::core::Options;

// ------------------------------------------------------------ bootstrap

/** Static arena for allocations made before/while MineSweeper boots. */
alignas(16) char g_boot_arena[16 << 20];
std::atomic<std::size_t> g_boot_cursor{0};

bool
is_boot_pointer(const void* p)
{
    const auto a = msw::to_addr(p);
    return a >= msw::to_addr(g_boot_arena) &&
           a < msw::to_addr(g_boot_arena) + sizeof(g_boot_arena);
}

void*
boot_alloc(std::size_t size, std::size_t align = 16)
{
    // msw-relaxed(shim-boot): bump cursor over a zero-initialised
    // static arena; the CAS below is the only contended step.
    std::size_t cur = g_boot_cursor.load(std::memory_order_relaxed);
    for (;;) {
        const std::size_t start = msw::align_up(cur, align);
        const std::size_t end = start + size;
        if (end > sizeof(g_boot_arena)) {
            static const char msg[] = "minesweeper shim: boot arena "
                                      "exhausted\n";
            ssize_t ignored = write(2, msg, sizeof(msg) - 1);
            (void)ignored;
            abort();
        }
        // msw-cas(shim-boot): claims [start, end) of a static arena
        // that is never handed between threads; size_t payload, no
        // ABA exposure, RMW atomicity suffices.
        if (g_boot_cursor.compare_exchange_weak(
                cur, end, std::memory_order_relaxed)) {
            return g_boot_arena + start;
        }
    }
}

// --------------------------------------------------------------- engine

/** 0 = not started, 1 = constructing, 2 = ready, 3 = torn down. */
std::atomic<int> g_state{0};
alignas(MineSweeper) char g_engine_storage[sizeof(MineSweeper)];
MineSweeper* g_engine = nullptr;
thread_local bool tls_in_init = false;

/** Rescan /proc/self/maps for writable regions to use as sweep roots. */
std::vector<msw::sweep::Range>
scan_maps_roots()
{
    std::vector<msw::sweep::Range> roots;
    std::FILE* f = std::fopen("/proc/self/maps", "r");
    if (f == nullptr)
        return roots;
    char line[512];
    const std::uintptr_t heap_base = g_engine->substrate().reservation().base();
    const std::uintptr_t heap_end = g_engine->substrate().reservation().end();
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        std::uintptr_t lo = 0;
        std::uintptr_t hi = 0;
        char perms[8] = {};
        if (std::sscanf(line, "%lx-%lx %7s", &lo, &hi, perms) != 3)
            continue;
        if (perms[0] != 'r' || perms[1] != 'w')
            continue;  // only writable memory can hold mutable pointers
        if (lo >= heap_base && lo < heap_end)
            continue;  // the heap itself is scanned via the access map
        if (std::strstr(line, "[stack") != nullptr)
            continue;  // stacks are handled by thread registration
        if (hi - lo > (std::size_t{256} << 20))
            continue;  // skip giant reservations (shadow maps etc.)
        roots.push_back(msw::sweep::Range{lo, hi - lo});
    }
    std::fclose(f);
    return roots;
}

/**
 * Telemetry stats provider for MSW_STATS_DUMP and the SIGUSR2 dump.
 * Async-signal-safe — sweep_stats() is relaxed atomic reads into a
 * stack struct, no allocation.
 */
bool
shim_sweep_stats(msw::metrics::SweepStats* out)
{
    if (g_state.load(std::memory_order_acquire) < 2 ||
        g_engine == nullptr) {
        return false;
    }
    *out = g_engine->sweep_stats();
    return true;
}

MineSweeper*
engine()
{
    int state = g_state.load(std::memory_order_acquire);
    // State 3 (torn down) still serves allocations: the engine object
    // is deliberately never destructed, only quiesced, so stragglers
    // running after our teardown keep working.
    if (state >= 2)
        return g_engine;
    if (tls_in_init)
        return nullptr;  // re-entrant call during construction

    int expected = 0;
    if (g_state.compare_exchange_strong(expected, 1,
                                        std::memory_order_acq_rel)) {
        tls_in_init = true;
        Options options;
        if (const char* env = std::getenv("MSW_MODE")) {
            if (std::strcmp(env, "mostly") == 0)
                options.mode = msw::core::Mode::kMostlyConcurrent;
        }
        if (const char* env = std::getenv("MSW_POLICY")) {
            // Null on an unknown name: the runtime then re-resolves from
            // the environment and warns once.
            options.jade.policy = msw::alloc::policy_by_name(env);
        }
        g_engine = new (g_engine_storage) MineSweeper(options);
        g_engine->set_extra_roots_provider(&scan_maps_roots);
        g_engine->register_mutator_thread();
        // Observability surface (MSW_TELEMETRY / MSW_STATS_DUMP): only
        // armed when requested, so programs that use SIGUSR2 themselves
        // keep their handler by default.
        if (msw::metrics::telemetry_init_from_env()) {
            // msw-relaxed(config-flag): publishes a pointer to code,
            // not to runtime-built data; readers load it relaxed.
            msw::metrics::telemetry().stats_fn.store(
                &shim_sweep_stats, std::memory_order_relaxed);
            msw::metrics::telemetry_install_sigusr2();
        }
        tls_in_init = false;
        g_state.store(2, std::memory_order_release);
        return g_engine;
    }
    // Another thread is constructing: spin until ready.
    while (g_state.load(std::memory_order_acquire) < 2)
        msw::cpu_relax();
    return g_engine;
}

/**
 * Late static-destruction teardown. Runs after default-priority
 * destructors (destructors with a smaller priority number run later),
 * so normal destructor-time frees still take the full quarantine path.
 * Afterwards the engine is quiesced — the sweeper joined, sweeping
 * disabled — but intentionally never destructed: allocations arriving
 * later (other shared libraries' destructors, libc's own exit path)
 * are still served from the live substrate, and late frees degrade to
 * a guarded no-op in free() below instead of touching torn-down sweep
 * machinery. Idempotent via the g_state CAS.
 */
__attribute__((destructor(101))) void
shim_teardown()
{
    int expected = 2;
    if (!g_state.compare_exchange_strong(expected, 3,
                                         std::memory_order_acq_rel)) {
        return;
    }
    g_engine->quiesce();
    // Final stats snapshot, after the sweeper has drained (stdio is
    // fine here: teardown runs on the exit path, not in a handler).
    if (const char* path = msw::metrics::telemetry_stats_dump_path())
        msw::metrics::telemetry_write_json(path);
}

}  // namespace

extern "C" {

void*
malloc(std::size_t size)
{
    MineSweeper* ms = engine();
    if (ms == nullptr)
        return boot_alloc(size);
    // POSIX: set ENOMEM on failure; a successful malloc must not clobber
    // the caller's errno even though it issues syscalls internally.
    const int saved_errno = errno;
    void* p = ms->alloc(size);
    if (p == nullptr) {
        errno = ENOMEM;
        return nullptr;
    }
    errno = saved_errno;
    return p;
}

void
free(void* ptr)
{
    if (ptr == nullptr || is_boot_pointer(ptr))
        return;
    if (g_state.load(std::memory_order_acquire) == 3) {
        // After teardown: the sweeper that would eventually release
        // this block is gone and the process is exiting. Dropping the
        // free (the block stays quarantine-equivalent: never recycled)
        // is strictly safer than touching quiesced sweep machinery.
        return;
    }
    MineSweeper* ms = engine();
    if (ms == nullptr)
        return;  // cannot free during bootstrap; leak (rare, tiny)
    const int saved_errno = errno;  // free never modifies errno
    ms->free(ptr);
    errno = saved_errno;
}

void*
calloc(std::size_t n, std::size_t size)
{
    std::size_t bytes = 0;
    if (n != 0 && __builtin_mul_overflow(n, size, &bytes)) {
        errno = ENOMEM;
        return nullptr;
    }
    MineSweeper* ms = engine();
    const int saved_errno = errno;
    void* p = ms == nullptr ? boot_alloc(bytes ? bytes : 1)
                            : ms->alloc(bytes ? bytes : 1);
    if (p == nullptr) {
        errno = ENOMEM;
        return nullptr;
    }
    // JadeHeap memory may be recycled; calloc must zero.
    std::memset(p, 0, bytes);
    errno = saved_errno;
    return p;
}

void*
realloc(void* ptr, std::size_t size)
{
    MineSweeper* ms = engine();
    const int saved_errno = errno;
    if (ptr != nullptr && is_boot_pointer(ptr)) {
        void* fresh = ms == nullptr ? boot_alloc(size) : ms->alloc(size);
        if (fresh == nullptr) {
            errno = ENOMEM;
            return nullptr;  // original boot object left intact
        }
        std::memcpy(fresh, ptr, size);  // boot objects are small
        errno = saved_errno;
        return fresh;
    }
    if (ms == nullptr)
        return boot_alloc(size);
    // Keeps the original on failure; direct calls into the final type.
    void* p = msw::alloc::realloc_on(*ms, ptr, size);
    if (p == nullptr && size != 0) {
        errno = ENOMEM;
        return nullptr;
    }
    errno = saved_errno;
    return p;
}

int
posix_memalign(void** out, std::size_t alignment, std::size_t size)
{
    if (alignment < sizeof(void*) || !msw::is_pow2(alignment))
        return EINVAL;
    MineSweeper* ms = engine();
    // posix_memalign reports failure via its return value and must leave
    // errno untouched even though the engine issues syscalls internally.
    const int saved_errno = errno;
    *out = ms == nullptr ? boot_alloc(size, alignment)
                         : ms->alloc_aligned(alignment, size);
    errno = saved_errno;
    return *out != nullptr ? 0 : ENOMEM;
}

void*
aligned_alloc(std::size_t alignment, std::size_t size)
{
    MineSweeper* ms = engine();
    if (ms == nullptr)
        return boot_alloc(size, alignment);
    const int saved_errno = errno;
    void* p = ms->alloc_aligned(alignment, size);
    if (p == nullptr) {
        errno = ENOMEM;
        return nullptr;
    }
    errno = saved_errno;
    return p;
}

void*
memalign(std::size_t alignment, std::size_t size)
{
    return aligned_alloc(alignment, size);
}

void*
valloc(std::size_t size)
{
    return aligned_alloc(msw::vm::kPageSize, size);
}

std::size_t
malloc_usable_size(void* ptr)
{
    if (ptr == nullptr)
        return 0;
    if (is_boot_pointer(ptr))
        return 0;  // unknown; boot objects are never queried in practice
    MineSweeper* ms = engine();
    // Pure query, but engine() may boot the runtime (mmap etc.) on the
    // first call; never let that leak into the caller's errno.
    const int saved_errno = errno;
    const std::size_t size = ms == nullptr ? 0 : ms->usable_size(ptr);
    errno = saved_errno;
    return size;
}

}  // extern "C"
