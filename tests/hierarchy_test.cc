/**
 * @file
 * Unit tests for the Hierarchy forest type.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>

#include "rock/hierarchy.h"
#include "support/error.h"
#include "support/str.h"

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

/** Every node with @p node among its parents, by scanning them all. */
std::vector<int>
children_by_scan(const Hierarchy& h, int node)
{
    std::vector<int> out;
    for (int c = 0; c < h.size(); ++c) {
        const std::vector<int> ps = h.parents(c);
        if (std::find(ps.begin(), ps.end(), node) != ps.end())
            out.push_back(c);
    }
    return out;
}

/** Every node with @p node on some parent chain, as a fixed point
 *  over all parent links. */
std::set<int>
successors_by_fixed_point(const Hierarchy& h, int node)
{
    std::set<int> reached;
    for (bool grew = true; grew;) {
        grew = false;
        for (int c = 0; c < h.size(); ++c) {
            for (int p : h.parents(c)) {
                if ((p == node || reached.count(p)) &&
                    reached.insert(c).second)
                    grew = true;
            }
        }
    }
    reached.erase(node);
    return reached;
}

/** to_string() as a scan of every node for each node it prints. */
std::string
render_by_scan(const Hierarchy& h)
{
    std::ostringstream out;
    auto print = [&](auto&& self, int node, int depth) -> void {
        for (int i = 0; i < depth; ++i)
            out << "  ";
        out << (depth == 0 ? "" : "+- ") << h.name(node);
        std::vector<int> extras = h.parents(node);
        if (h.parent(node) >= 0)
            extras.erase(extras.begin());
        if (!extras.empty()) {
            out << " (also derives from";
            for (int ep : extras)
                out << " " << h.name(ep);
            out << ")";
        }
        out << "\n";
        for (int c = 0; c < h.size(); ++c) {
            if (h.parent(c) == node)
                self(self, c, depth + 1);
        }
    };
    for (int root : h.roots())
        print(print, root, 0);
    return out.str();
}

/**
 * A seeded random hierarchy of up to 40 nodes. Primary parents point
 * to lower ids and are re-set several times, to -1 included; extra
 * parents point anywhere, so they close cycles, and some repeat the
 * node's primary parent before it is moved away.
 */
Hierarchy
random_hierarchy(unsigned seed)
{
    std::mt19937 rng(seed);
    auto pick = [&rng](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    const int n = pick(1, 40);
    std::vector<std::uint32_t> types;
    for (int v = 0; v < n; ++v)
        types.push_back(0x1000u + 0x10u * static_cast<std::uint32_t>(v));
    Hierarchy h(types);
    for (int v = 0; v < n; v += pick(1, 3))
        h.set_name(v, rock::support::format("T%d", v));
    for (int op = 0; op < 3 * n; ++op) {
        const int c = pick(0, n - 1);
        switch (pick(0, 5)) {
        case 0:
        case 1:
        case 2:
            h.set_parent(c, pick(-1, c - 1));
            break;
        case 3:
            if (h.parent(c) >= 0)
                h.add_extra_parent(c, h.parent(c));
            break;
        default:
            if (n > 1) {
                const int p = (c + pick(1, n - 1)) % n;
                h.add_extra_parent(c, p);
            }
            break;
        }
    }
    return h;
}

TEST(Hierarchy, ChildListsMatchBruteForceOnRandomForests)
{
    for (unsigned seed = 1; seed <= 200; ++seed) {
        const Hierarchy h = random_hierarchy(seed);
        for (int v = 0; v < h.size(); ++v) {
            EXPECT_EQ(h.children(v), children_by_scan(h, v))
                << "seed " << seed << " node " << v;
            EXPECT_EQ(h.successors(v), successors_by_fixed_point(h, v))
                << "seed " << seed << " node " << v;
        }
        EXPECT_EQ(h.to_string(), render_by_scan(h)) << "seed " << seed;
    }
}

TEST(Hierarchy, ReparentingKeepsAnExtraParentsChildLink)
{
    Hierarchy h = sample();
    // 0x10 is both the primary and an extra parent of 0x30; moving
    // the primary parent away must leave 0x30 a child of 0x10.
    h.add_extra_parent(2, 0);
    h.set_parent(2, 3);
    EXPECT_EQ(h.children(0), (std::vector<int>{1, 2}));
    EXPECT_EQ(h.children(3), (std::vector<int>{2}));
    h.set_parent(1, -1);
    EXPECT_EQ(h.children(0), (std::vector<int>{2}));
    EXPECT_EQ(h.successors(3), (std::set<int>{2, 4}));
}

} // namespace
