#include "alloc/extent.h"

#include <cstring>

#include "util/bits.h"

namespace msw::alloc {

MetaPool::MetaPool(std::size_t capacity_bytes)
    : space_(vm::Reservation::reserve(capacity_bytes))
{
    LockGuard g(lock_);
    bump_ = space_.base();
}

ExtentMeta*
MetaPool::alloc()
{
    LockGuard pool_guard(lock_);
    if (free_list_ != nullptr) {
        ExtentMeta* m = free_list_;
        free_list_ = m->next;
        std::memset(static_cast<void*>(m), 0, sizeof(ExtentMeta));
        return m;
    }
    const std::size_t sz = align_up(sizeof(ExtentMeta), 64);
    if (bump_ + sz > space_.end())
        panic("MetaPool exhausted (%zu bytes reserved)", space_.size());
    // Commit pages lazily as the bump pointer crosses them.
    const std::uintptr_t committed_end = space_.base() + committed_;
    if (bump_ + sz > committed_end) {
        const std::uintptr_t new_end = align_up(bump_ + sz, vm::kPageSize);
        // Metadata the allocator cannot run without; commit_must retries
        // through transient pressure rather than failing the alloc.
        space_.commit_must(committed_end, new_end - committed_end);
        committed_ = new_end - space_.base();
    }
    auto* m = to_ptr_of<ExtentMeta>(bump_);
    bump_ += sz;
    std::memset(static_cast<void*>(m), 0, sizeof(ExtentMeta));
    return m;
}

void
MetaPool::free(ExtentMeta* meta)
{
    LockGuard pool_guard(lock_);
    meta->next = free_list_;
    free_list_ = meta;
}

}  // namespace msw::alloc
