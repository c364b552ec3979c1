#include "core/stat_cells.h"

namespace msw::core {

unsigned
StatCells::next_shard()
{
    static std::atomic<unsigned> next{0};
    // msw-relaxed(work-cursor): shard-assignment ticket; only RMW
    // atomicity matters.
    return next.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t
StatCells::read(Stat stat) const
{
    std::uint64_t sum = 0;
    for (const Shard& s : shards_)
        // msw-relaxed(stat-cells): sharded sum; shards may tear
        // relative to each other and that is fine for reporting.
        sum += s.v[static_cast<unsigned>(stat)].load(
            std::memory_order_relaxed);
    return sum;
}

SweepStats
StatCells::read_all() const
{
    SweepStats out;
    for (const Shard& s : shards_) {
        for (unsigned i = 0; i < kStatCount; ++i)
            // msw-relaxed(stat-cells): as in read() — sharded sum.
            out.*metrics::kCounterRows[i].field +=
                s.v[i].load(std::memory_order_relaxed);
    }
    return out;
}

void
StatCells::reset_events()
{
    for (Shard& s : shards_) {
        for (unsigned i = 0; i < kStatCount; ++i) {
            if (!is_gauge(static_cast<Stat>(i)))
                // msw-relaxed(stat-cells): test-scoped reset; racing
                // bumps are lost either way.
                s.v[i].store(0, std::memory_order_relaxed);
        }
    }
}

}  // namespace msw::core
