// Size-class tests: monotonicity, rounding invariants, jemalloc-style
// spacing, and slab geometry.
#include <gtest/gtest.h>

#include "alloc/size_classes.h"
#include "vm/vm.h"

namespace msw::alloc {
namespace {

TEST(SizeClasses, FirstAndLastClasses)
{
    EXPECT_EQ(class_size(0), kGranule);
    EXPECT_EQ(class_size(num_size_classes() - 1), kMaxSmallSize);
}

TEST(SizeClasses, SizesStrictlyIncreaseAndAreGranuleMultiples)
{
    for (unsigned c = 0; c < num_size_classes(); ++c) {
        EXPECT_EQ(class_size(c) % kGranule, 0u) << "class " << c;
        if (c > 0) {
            EXPECT_GT(class_size(c), class_size(c - 1)) << "class " << c;
        }
    }
}

TEST(SizeClasses, LookupReturnsSmallestFittingClass)
{
    for (std::size_t size = 1; size <= kMaxSmallSize; ++size) {
        const unsigned cls = size_to_class(size);
        ASSERT_GE(class_size(cls), size) << "size " << size;
        if (cls > 0) {
            ASSERT_LT(class_size(cls - 1), size) << "size " << size;
        }
    }
}

TEST(SizeClasses, ExactSizesMapToThemselves)
{
    for (unsigned c = 0; c < num_size_classes(); ++c)
        EXPECT_EQ(size_to_class(class_size(c)), c);
}

TEST(SizeClasses, InternalFragmentationBounded)
{
    // jemalloc spacing: rounding waste is < 25 % for sizes above 128 B.
    for (std::size_t size = 129; size <= kMaxSmallSize; size += 7) {
        const std::size_t rounded = class_size(size_to_class(size));
        EXPECT_LE(rounded, size + size / 4 + kGranule)
            << "size " << size << " rounds to " << rounded;
    }
}

TEST(SizeClasses, PowerOfTwoSizesAreClasses)
{
    for (std::size_t s = 16; s <= 8192; s *= 2)
        EXPECT_EQ(class_size(size_to_class(s)), s) << s;
}

TEST(SlabGeometry, SlotsFitInSlab)
{
    for (unsigned c = 0; c < num_size_classes(); ++c) {
        const std::size_t slab_bytes = slab_pages(c) * vm::kPageSize;
        EXPECT_GE(slab_bytes / class_size(c), slab_slots(c));
        EXPECT_GE(slab_slots(c), 1u);
        EXPECT_LE(slab_slots(c), kMaxSlabSlots);
        EXPECT_GE(slab_pages(c), 1u);
        EXPECT_LE(slab_pages(c), 16u);
    }
}

TEST(SlabGeometry, SlabWasteIsBounded)
{
    for (unsigned c = 0; c < num_size_classes(); ++c) {
        const std::size_t slab_bytes = slab_pages(c) * vm::kPageSize;
        const std::size_t used = slab_slots(c) * class_size(c);
        const double waste =
            static_cast<double>(slab_bytes - used) / slab_bytes;
        EXPECT_LT(waste, 0.25) << "class " << c << " size " << class_size(c);
    }
}

TEST(SlabGeometry, SmallClassesHaveManySlots)
{
    // Classes up to 512 B should pack at least 8 objects per slab so bin
    // refills amortise.
    for (unsigned c = 0; c < num_size_classes(); ++c) {
        if (class_size(c) <= 512) {
            EXPECT_GE(slab_slots(c), 8u) << "class size " << class_size(c);
        }
    }
}

}  // namespace
}  // namespace msw::alloc
