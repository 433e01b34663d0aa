/**
 * @file
 * Unit tests for the Hierarchy forest type.
 */
#include <gtest/gtest.h>

#include "rock/hierarchy.h"
#include "support/error.h"

namespace {

using rock::core::Hierarchy;
using rock::support::PanicError;

Hierarchy
sample()
{
    //      10        40
    //     |    |
    //    20   30
    //         |
    //         50       (addresses 0x10..0x50)
    Hierarchy h({0x10, 0x20, 0x30, 0x40, 0x50});
    h.set_parent(h.index_of(0x20), h.index_of(0x10));
    h.set_parent(h.index_of(0x30), h.index_of(0x10));
    h.set_parent(h.index_of(0x50), h.index_of(0x30));
    return h;
}

TEST(Hierarchy, IndexLookup)
{
    Hierarchy h = sample();
    EXPECT_EQ(h.index_of(0x10), 0);
    EXPECT_EQ(h.index_of(0x50), 4);
    EXPECT_EQ(h.index_of(0x99), -1);
    EXPECT_EQ(h.type_at(1), 0x20u);
    EXPECT_EQ(h.size(), 5);
}

TEST(Hierarchy, RootsAndChildren)
{
    Hierarchy h = sample();
    EXPECT_EQ(h.roots(), (std::vector<int>{0, 3}));
    EXPECT_EQ(h.children(0), (std::vector<int>{1, 2}));
    EXPECT_EQ(h.children(2), (std::vector<int>{4}));
    EXPECT_TRUE(h.children(4).empty());
}

TEST(Hierarchy, SuccessorsAreTransitive)
{
    Hierarchy h = sample();
    EXPECT_EQ(h.successors(0), (std::set<int>{1, 2, 4}));
    EXPECT_EQ(h.successors(2), (std::set<int>{4}));
    EXPECT_TRUE(h.successors(3).empty());
    // Never contains the node itself.
    EXPECT_EQ(h.successors(4).count(4), 0u);
}

TEST(Hierarchy, ExtraParentsFeedSuccessors)
{
    Hierarchy h = sample();
    // 0x40 becomes a second parent of 0x50 (multiple inheritance).
    h.add_extra_parent(4, 3);
    EXPECT_EQ(h.parents(4), (std::vector<int>{2, 3}));
    EXPECT_EQ(h.successors(3), (std::set<int>{4}));
    // The primary chain is unchanged.
    EXPECT_EQ(h.parent(4), 2);
}

TEST(Hierarchy, NamesAndPrinting)
{
    Hierarchy h = sample();
    h.set_name(0, "Base");
    h.set_name(2, "Middle");
    std::string out = h.to_string();
    EXPECT_NE(out.find("Base"), std::string::npos);
    EXPECT_NE(out.find("Middle"), std::string::npos);
    // Unnamed nodes fall back to their vtable address.
    EXPECT_NE(out.find("type_0x20"), std::string::npos);
    // The child-of-middle is indented under it.
    EXPECT_LT(out.find("Base"), out.find("Middle"));
    EXPECT_LT(out.find("Middle"), out.find("type_0x50"));
}

TEST(Hierarchy, SetNamesLabelsOnlyMappedTypes)
{
    Hierarchy h = sample();
    h.set_name(1, "Kept");
    h.set_names({{0x10, "Base"}, {0x50, "Leaf"}, {0x99, "Absent"}});
    EXPECT_EQ(h.name(0), "Base");
    EXPECT_EQ(h.name(1), "Kept");
    EXPECT_EQ(h.name(2), "type_0x30");
    EXPECT_EQ(h.name(4), "Leaf");
}

TEST(Hierarchy, GuardsInvalidArguments)
{
    Hierarchy h = sample();
    EXPECT_THROW(h.set_parent(0, 0), PanicError);
    EXPECT_THROW(h.set_parent(99, 0), PanicError);
    EXPECT_THROW(h.parent(99), PanicError);
    EXPECT_THROW(h.type_at(-1), PanicError);
    EXPECT_THROW(Hierarchy({0x20, 0x10}), PanicError); // unsorted
}

TEST(Hierarchy, CyclicParentsDoNotHangSuccessors)
{
    // successors() must terminate even on malformed cyclic input.
    Hierarchy h({0x1, 0x2});
    h.set_parent(0, 1);
    h.set_parent(1, 0);
    EXPECT_EQ(h.successors(0), (std::set<int>{1}));
}

} // namespace
