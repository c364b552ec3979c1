#include "alloc/jade_allocator.h"

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <new>

#include "alloc/policy.h"
#include "util/bits.h"
#include "util/check.h"
#include "util/log.h"
#include "util/spin_lock.h"

namespace msw::alloc {

namespace {

/** mmap-backed anonymous allocation (no malloc dependency). */
void*
os_alloc(std::size_t bytes)
{
    void* p = ::mmap(nullptr, align_up(bytes, vm::kPageSize),
                     PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1,
                     0);
    MSW_CHECK(p != MAP_FAILED);
    return p;
}

void
os_free(void* p, std::size_t bytes)
{
    ::munmap(p, align_up(bytes, vm::kPageSize));
}

/** Per-class thread-cache capacity: smaller caches for bigger objects. */
unsigned
shard_cap(unsigned cls)
{
    const std::size_t size = class_size(cls);
    if (size <= 256)
        return 32;
    if (size <= 1024)
        return 16;
    if (size <= 4096)
        return 8;
    return 4;
}

/**
 * Serialises tcache-registry operations across all JadeAllocators.
 * Rank kBinRegistry: tcache_destructor flushes shards under this lock,
 * which nests into bin and extent locks.
 */
SpinLock g_tcache_registry_lock{util::LockRank::kBinRegistry};

}  // namespace

struct JadeAllocator::Arena {
    Bin* bins = nullptr;  // [num_classes_]
};

struct JadeAllocator::TCache {
    static constexpr unsigned kMaxCap = 32;

    struct Shard {
        std::uint16_t count = 0;
        void* objs[kMaxCap];
    };

    std::atomic<JadeAllocator*> owner{nullptr};
    TCache* reg_prev = nullptr;
    TCache* reg_next = nullptr;
    std::uint8_t arena = 0;
    std::size_t alloc_size = 0;  // os_alloc size, for os_free
    Shard shards[1];             // [num_classes_], flexible

    static std::size_t
    bytes_for(unsigned num_classes)
    {
        return sizeof(TCache) + (num_classes - 1) * sizeof(Shard);
    }
};

JadeAllocator::TCache* JadeAllocator::g_tcache_head = nullptr;

JadeAllocator::JadeAllocator(const Options& opts)
    : extents_(opts.heap_bytes, opts.decay_ms),
      opts_(opts),
      policy_(&resolve_policy(opts.policy)),
      num_classes_(num_size_classes())
{
    MSW_CHECK(opts_.arenas >= 1 && opts_.arenas <= 64);
    const std::size_t arena_bytes = sizeof(Arena) * opts_.arenas +
                                    sizeof(Bin) * opts_.arenas * num_classes_;
    char* mem = static_cast<char*>(os_alloc(arena_bytes));
    arenas_ = reinterpret_cast<Arena*>(mem);
    Bin* bins = reinterpret_cast<Bin*>(mem + sizeof(Arena) * opts_.arenas);
    for (unsigned a = 0; a < opts_.arenas; ++a) {
        new (&arenas_[a]) Arena();
        arenas_[a].bins = bins + a * num_classes_;
        for (unsigned c = 0; c < num_classes_; ++c) {
            new (&arenas_[a].bins[c]) Bin();
            arenas_[a].bins[c].init(&extents_, c,
                                    static_cast<std::uint8_t>(a), policy_);
        }
    }
    MSW_CHECK(pthread_key_create(&tcache_key_, &tcache_destructor) == 0);
}

JadeAllocator::~JadeAllocator()
{
    // Flush and destroy this thread's cache, then orphan any caches that
    // belong to other still-running threads: their exit callbacks will free
    // the storage without touching this (dead) allocator.
    flush();
    {
        LockGuard g(g_tcache_registry_lock);
        TCache* tc = g_tcache_head;
        while (tc != nullptr) {
            TCache* next = tc->reg_next;
            // msw-relaxed(tcache-owner): read under
            // g_tcache_registry_lock, which every orphaning store holds.
            if (tc->owner.load(std::memory_order_relaxed) == this) {
                tc->owner.store(nullptr, std::memory_order_release);
                if (tc->reg_prev != nullptr)
                    tc->reg_prev->reg_next = tc->reg_next;
                else
                    g_tcache_head = tc->reg_next;
                if (tc->reg_next != nullptr)
                    tc->reg_next->reg_prev = tc->reg_prev;
                tc->reg_prev = nullptr;
                tc->reg_next = nullptr;
            }
            tc = next;
        }
    }
    pthread_key_delete(tcache_key_);
    const std::size_t arena_bytes = sizeof(Arena) * opts_.arenas +
                                    sizeof(Bin) * opts_.arenas * num_classes_;
    os_free(arenas_, arena_bytes);
}

Bin&
JadeAllocator::bin_for(std::uint8_t arena, unsigned cls) const
{
    MSW_DCHECK(arena < opts_.arenas && cls < num_classes_);
    return arenas_[arena].bins[cls];
}

unsigned
JadeAllocator::arena_for_thread()
{
    // msw-relaxed(work-cursor): round-robin ticket; only RMW
    // atomicity matters, the value orders nothing.
    return next_arena_.fetch_add(1, std::memory_order_relaxed) %
           opts_.arenas;
}

// msw-analyze: slow-path(once per thread, at its first
// allocation)
JadeAllocator::TCache*
JadeAllocator::make_tcache()
{
    const std::size_t bytes = TCache::bytes_for(num_classes_);
    auto* tc = static_cast<TCache*>(os_alloc(bytes));
    // os_alloc returns zeroed memory; set the non-zero fields.
    // msw-relaxed(tcache-owner): cache not yet published; the registry
    // insert under the lock is what makes it visible.
    tc->owner.store(this, std::memory_order_relaxed);
    tc->arena = static_cast<std::uint8_t>(arena_for_thread());
    tc->alloc_size = bytes;
    {
        LockGuard g(g_tcache_registry_lock);
        tc->reg_next = g_tcache_head;
        if (g_tcache_head != nullptr)
            g_tcache_head->reg_prev = tc;
        g_tcache_head = tc;
    }
    pthread_setspecific(tcache_key_, tc);
    return tc;
}

JadeAllocator::TCache*
JadeAllocator::get_tcache()
{
    if (!opts_.enable_tcache)
        return nullptr;
    auto* tc = static_cast<TCache*>(pthread_getspecific(tcache_key_));
    if (tc == nullptr)
        tc = make_tcache();
    return tc;
}

void
JadeAllocator::tcache_destructor(void* arg)
{
    auto* tc = static_cast<TCache*>(arg);
    if (tc->owner.load(std::memory_order_acquire) != nullptr) {
        // Flush while holding the registry lock: the owning allocator's
        // destructor also takes this lock before orphaning caches, so the
        // allocator cannot be destroyed mid-flush.
        LockGuard g(g_tcache_registry_lock);
        // msw-relaxed(tcache-owner): re-read under
        // g_tcache_registry_lock; the destructor orphans under it too.
        JadeAllocator* owner = tc->owner.load(std::memory_order_relaxed);
        if (owner != nullptr) {
            if (tc->reg_prev != nullptr)
                tc->reg_prev->reg_next = tc->reg_next;
            else
                g_tcache_head = tc->reg_next;
            if (tc->reg_next != nullptr)
                tc->reg_next->reg_prev = tc->reg_prev;
            for (unsigned c = 0; c < owner->num_classes_; ++c)
                owner->flush_shard(tc, c, 0);
        }
    }
    os_free(tc, tc->alloc_size);
}

// The fork hooks hold the whole substrate hierarchy across fork(); the
// pairing is enforced by core/lifecycle, outside what the static
// analysis can see. Same-rank bulk acquisition of the bin locks is
// legal only inside the lock-rank fork window the lifecycle opens.
void
JadeAllocator::prepare_fork() MSW_NO_THREAD_SAFETY_ANALYSIS
{
    g_tcache_registry_lock.lock();  // kBinRegistry (30)
    for (unsigned a = 0; a < opts_.arenas; ++a) {
        for (unsigned c = 0; c < num_classes_; ++c)
            arenas_[a].bins[c].prepare_fork();  // kBin (32), bulk
    }
    extents_.prepare_fork();  // kExtent (40) -> kExtentMeta (42)
}

void
JadeAllocator::parent_after_fork() MSW_NO_THREAD_SAFETY_ANALYSIS
{
    extents_.after_fork();
    for (unsigned a = 0; a < opts_.arenas; ++a) {
        for (unsigned c = 0; c < num_classes_; ++c)
            arenas_[a].bins[c].after_fork();
    }
    g_tcache_registry_lock.unlock();
}

void
JadeAllocator::child_after_fork() MSW_NO_THREAD_SAFETY_ANALYSIS
{
    // Pure release: the locks were held by the forking thread, so the
    // child's copies are consistent. Cache adoption happens later, in
    // child_fixup(), once the whole hierarchy is free again.
    parent_after_fork();
}

void
JadeAllocator::child_fixup()
{
    // Adopt the thread caches of threads that did not survive the fork:
    // flush their objects back to the shared bins and release the
    // storage, exactly as their exit destructors would have. The calling
    // thread's own cache (still reachable via its TSD) survives. Runs
    // single-threaded with no prepare-held locks, so the nested
    // registry -> bin -> extent acquisitions are the normal ones.
    TCache* mine = static_cast<TCache*>(pthread_getspecific(tcache_key_));
    LockGuard g(g_tcache_registry_lock);
    TCache* tc = g_tcache_head;
    while (tc != nullptr) {
        TCache* next = tc->reg_next;
        if (tc != mine &&
            // msw-relaxed(tcache-owner): read under
            // g_tcache_registry_lock, as for every orphaning store.
            tc->owner.load(std::memory_order_relaxed) == this) {
            if (tc->reg_prev != nullptr)
                tc->reg_prev->reg_next = tc->reg_next;
            else
                g_tcache_head = tc->reg_next;
            if (tc->reg_next != nullptr)
                tc->reg_next->reg_prev = tc->reg_prev;
            for (unsigned c = 0; c < num_classes_; ++c)
                flush_shard(tc, c, 0);
            os_free(tc, tc->alloc_size);
        }
        tc = next;
    }
}

void
JadeAllocator::flush_shard(TCache* tc, unsigned cls, unsigned keep)
{
    TCache::Shard& shard = tc->shards[cls];
    // Evict the oldest entries (bottom of the stack), keeping the most
    // recently freed ones hot.
    const unsigned count = shard.count;
    const unsigned evict = count > keep ? count - keep : 0;
    if (evict == 0)
        return;
    // Unlist the evicted objects before taking a bin lock, which a fork
    // can land on; child_fixup() would free them again. The shard reads
    // empty while the kept ones move (fenced against compiler reorder).
    void* evicted[TCache::kMaxCap];
    std::memcpy(evicted, shard.objs, evict * sizeof(void*));
    shard.count = 0;
    std::atomic_signal_fence(std::memory_order_seq_cst);
    std::memmove(&shard.objs[0], &shard.objs[evict],
                 (count - evict) * sizeof(void*));
    std::atomic_signal_fence(std::memory_order_seq_cst);
    shard.count = static_cast<std::uint16_t>(count - evict);
    for (unsigned i = 0; i < evict; ++i) {
        ExtentMeta* meta = extents_.lookup_live(to_addr(evicted[i]));
        bin_for(meta->arena, cls).free_one(evicted[i], meta);
    }
}

void*
JadeAllocator::alloc(std::size_t size)
{
    // msw-relaxed(stat-cells): statistics counter; totals need no
    // ordering.
    alloc_calls_.fetch_add(1, std::memory_order_relaxed);
    if (size == 0)
        size = 1;
    if (size > kMaxSmallSize)
        return alloc_large(size, 1);

    const unsigned cls = size_to_class(size);
    // msw-relaxed(stat-cells): statistics counter; totals need no
    // ordering.
    live_bytes_.fetch_add(class_size(cls), std::memory_order_relaxed);

    TCache* tc = get_tcache();
    if (tc != nullptr) {
        TCache::Shard& shard = tc->shards[cls];
        if (shard.count == 0) {
            const unsigned fill = (shard_cap(cls) + 1) / 2;
            shard.count = static_cast<std::uint16_t>(
                bin_for(tc->arena, cls).alloc_batch(shard.objs, fill));
        }
        if (shard.count == 0) {
            // msw-relaxed(stat-cells): statistics counter rollback.
            live_bytes_.fetch_sub(class_size(cls),
                                  std::memory_order_relaxed);
            return nullptr;
        }
        if (policy_->choose_cached != nullptr && shard.count > 1) {
            // Policy-randomized reuse order: pick any cached object and
            // swap it with the top so the pop stays O(1).
            const unsigned pick = policy_->choose_cached(shard.count);
            void* chosen = shard.objs[pick];
            shard.objs[pick] = shard.objs[shard.count - 1];
            shard.count = static_cast<std::uint16_t>(shard.count - 1);
            return chosen;
        }
        return shard.objs[--shard.count];
    }
    void* out = nullptr;
    const unsigned got = bin_for(0, cls).alloc_batch(&out, 1);
    if (got != 1) {
        // msw-relaxed(stat-cells): statistics counter rollback.
        live_bytes_.fetch_sub(class_size(cls), std::memory_order_relaxed);
        return nullptr;
    }
    return out;
}

// msw-analyze: slow-path(page-scale allocation: maps a whole
// extent, page commits included)
void*
JadeAllocator::alloc_large(std::size_t size, std::size_t align_pages)
{
    const std::size_t pages = vm::pages_for(size);
    ExtentMeta* e =
        extents_.alloc_extent(pages, ExtentKind::kLarge, align_pages);
    if (e == nullptr) {
        return nullptr;
    }
    e->large_size = size;
    // msw-relaxed(stat-cells): statistics counter; totals need no
    // ordering.
    live_bytes_.fetch_add(e->bytes(), std::memory_order_relaxed);
    return to_ptr(e->base);
}

void
JadeAllocator::free(void* ptr)
{
    if (ptr == nullptr)
        return;
    // msw-relaxed(stat-cells): statistics counter; totals need no
    // ordering.
    free_calls_.fetch_add(1, std::memory_order_relaxed);
    ExtentMeta* meta = extents_.lookup_live(to_addr(ptr));
    if (meta->kind == ExtentKind::kLarge) {
        // msw-relaxed(stat-cells): statistics counter; totals need no
        // ordering.
        live_bytes_.fetch_sub(meta->bytes(), std::memory_order_relaxed);
        release_extent(meta);
        return;
    }
    MSW_DCHECK(meta->kind == ExtentKind::kSlab);
    const unsigned cls = meta->cls;
    // msw-relaxed(stat-cells): statistics counter; totals need no
    // ordering.
    live_bytes_.fetch_sub(class_size(cls), std::memory_order_relaxed);
    TCache* tc = get_tcache();
    if (tc != nullptr) {
        TCache::Shard& shard = tc->shards[cls];
        const unsigned cap = shard_cap(cls);
        if (shard.count == cap)
            flush_shard(tc, cls, cap / 2);
        // Slot before count: a fork child may flush this shard mid-push.
        shard.objs[shard.count] = ptr;
        std::atomic_signal_fence(std::memory_order_seq_cst);
        ++shard.count;
        return;
    }
    bin_for(meta->arena, cls).free_one(ptr, meta);
}

unsigned
JadeAllocator::free_batch(void* const* ptrs, std::size_t n)
{
    if (n == 0)
        return 0;
    std::size_t bytes = 0;
    unsigned bin_locks = 0;
    for (std::size_t start = 0; start < n; start += kFreeBatch) {
        const auto m = static_cast<unsigned>(
            std::min<std::size_t>(kFreeBatch, n - start));
        void* const* run = ptrs + start;
        ExtentMeta* metas[kFreeBatch];
        Bin* bins[kFreeBatch];
        // The extent run[i]'s free hands back, if any: its own for a
        // page-scale block, its slab's when the free empties it.
        ExtentMeta* to_free[kFreeBatch];
        std::uint64_t small = 0;  // Bit i: run[i] is a slot still to free.
        for (unsigned i = 0; i < m; ++i) {
            ExtentMeta* meta = extents_.lookup_live(to_addr(run[i]));
            metas[i] = meta;
            to_free[i] = nullptr;
            if (meta->kind == ExtentKind::kLarge) {
                bytes += meta->bytes();
                to_free[i] = meta;
                continue;
            }
            MSW_DCHECK(meta->kind == ExtentKind::kSlab);
            bytes += class_size(meta->cls);
            // Resolved once, here: comparing two slabs' arena and class
            // fields lets the compiler load the word they share with
            // used_slots, which the bin lock's holder may be writing.
            bins[i] = &bin_for(meta->arena, meta->cls);
            small |= std::uint64_t{1} << i;
        }
        // One bin at a time, stably: the first slot left picks the bin,
        // and every slot of that bin is freed in run order.
        while (small != 0) {
            Bin* bin = bins[std::countr_zero(small)];
            std::uint64_t group = 0;
            for (std::uint64_t rest = small; rest != 0; rest &= rest - 1) {
                const int i = std::countr_zero(rest);
                if (bins[i] == bin)
                    group |= std::uint64_t{1} << i;
            }
            small &= ~group;
            bin->free_many(run, metas, group, to_free);
            ++bin_locks;
        }
        // Extents last, in run order, with no bin lock held: the extent
        // allocator sees the sequence per-pointer frees would give it.
        for (unsigned i = 0; i < m; ++i) {
            if (to_free[i] != nullptr)
                release_extent(to_free[i]);
        }
    }
    // msw-relaxed(stat-cells): one add for the whole batch; totals
    // need no ordering.
    free_calls_.fetch_add(n, std::memory_order_relaxed);
    // msw-relaxed(stat-cells): one subtract for the whole batch; the
    // gauge is read as a statistic and needs no ordering.
    live_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
    return bin_locks;
}

// msw-analyze: slow-path(returns a whole extent: a page-scale block or
// a slab its last free emptied)
void
JadeAllocator::release_extent(ExtentMeta* meta)
{
    extents_.free_extent(meta);
}

std::size_t
JadeAllocator::usable_size(const void* ptr) const
{
    ExtentMeta* meta = extents_.lookup_live(to_addr(ptr));
    if (meta->kind == ExtentKind::kLarge)
        return meta->bytes();
    return class_size(meta->cls);
}

void*
JadeAllocator::alloc_aligned(std::size_t alignment, std::size_t size)
{
    // msw-relaxed(stat-cells): statistics counter; totals need no
    // ordering.
    alloc_calls_.fetch_add(1, std::memory_order_relaxed);
    if (size == 0)
        size = 1;
    if (alignment <= kGranule) {
        // msw-relaxed(stat-cells): undo the count; alloc() re-counts.
        alloc_calls_.fetch_sub(1, std::memory_order_relaxed);
        return alloc(size);
    }
    MSW_CHECK(is_pow2(alignment));
    if (size <= kMaxSmallSize && alignment <= vm::kPageSize) {
        // Find a class that is both >= size and a multiple of the
        // alignment: objects are placed at multiples of the class size in
        // page-aligned slabs, so such a class guarantees alignment.
        for (unsigned c = size_to_class(size); c < num_classes_; ++c) {
            if (class_size(c) % alignment == 0) {
                // msw-relaxed(stat-cells): undo the count; alloc()
                // re-counts.
                alloc_calls_.fetch_sub(1, std::memory_order_relaxed);
                return alloc(class_size(c));
            }
        }
    }
    const std::size_t align_pages =
        alignment <= vm::kPageSize ? 1 : alignment >> vm::kPageShift;
    return alloc_large(size, align_pages);
}

bool
JadeAllocator::lookup_allocation(std::uintptr_t addr,
                                 AllocationInfo* out) const
{
    ExtentMeta* e = extents_.lookup(addr);
    if (e == nullptr)
        return false;
    if (e->kind == ExtentKind::kLarge) {
        out->base = e->base;
        out->usable = e->bytes();
        out->live = true;
        return true;
    }
    MSW_DCHECK(e->kind == ExtentKind::kSlab);
    const std::size_t obj = class_size(e->cls);
    const unsigned slot = static_cast<unsigned>((addr - e->base) / obj);
    if (slot >= slab_slots(e->cls))
        return false;  // Tail waste past the last object.
    out->base = e->base + slot * obj;
    out->usable = obj;
    out->live = e->slot_allocated(slot);
    return true;
}

bool
JadeAllocator::lookup_relaxed(std::uintptr_t addr, AllocationInfo* out) const
{
    if (!extents_.contains(addr))
        return false;
    ExtentMeta* e = extents_.peek_page_map(addr);
    if (e == nullptr)
        return false;
    // Validate a racy snapshot of the metadata: a concurrent free/reuse
    // can hand us stale fields, so clamp everything before trusting it.
    const ExtentKind kind = e->kind;
    const std::uintptr_t base = e->base;
    const std::size_t pages = e->pages;
    if (kind == ExtentKind::kFree)
        return false;
    if (!extents_.contains(base) || pages == 0 ||
        pages > (extents_.reservation().size() >> vm::kPageShift)) {
        return false;
    }
    const std::uintptr_t end = base + (pages << vm::kPageShift);
    if (addr < base || addr >= end)
        return false;
    if (kind == ExtentKind::kLarge) {
        out->base = base;
        out->usable = pages << vm::kPageShift;
        out->live = true;
        return true;
    }
    const std::uint16_t cls = e->cls;
    if (cls >= num_classes_)
        return false;
    const std::size_t obj = class_size(cls);
    const unsigned slot = static_cast<unsigned>((addr - base) / obj);
    if (slot >= slab_slots(cls))
        return false;
    out->base = base + slot * obj;
    out->usable = obj;
    out->live = true;
    return true;
}

void
JadeAllocator::flush()
{
    if (!opts_.enable_tcache)
        return;
    auto* tc = static_cast<TCache*>(pthread_getspecific(tcache_key_));
    if (tc == nullptr)
        return;
    for (unsigned c = 0; c < num_classes_; ++c)
        flush_shard(tc, c, 0);
}

AllocatorStats
JadeAllocator::stats() const
{
    const ExtentStats es = extents_.stats();
    AllocatorStats s;
    // msw-relaxed(stat-cells): statistics snapshot; cells may tear
    // relative to each other and that is fine for reporting.
    s.live_bytes = live_bytes_.load(std::memory_order_relaxed);
    s.committed_bytes = es.committed_bytes;
    s.metadata_bytes = es.metadata_bytes;
    // msw-relaxed(stat-cells): as above — reporting snapshot.
    s.alloc_calls = alloc_calls_.load(std::memory_order_relaxed);
    s.free_calls = free_calls_.load(std::memory_order_relaxed);
    return s;
}

}  // namespace msw::alloc
