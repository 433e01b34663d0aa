/**
 * @file
 * Cross-cutting pipeline invariants, swept over every bundled
 * benchmark program:
 *
 *  - the reconstructed forest is acyclic;
 *  - every chosen parent is structurally feasible;
 *  - rule-3 forced parents are always honored;
 *  - parent edges never cross family boundaries;
 *  - every discovered binary type appears in the hierarchy;
 *  - Heuristic 4.1: a type with feasible parents is never a root
 *    unless every feasible choice would close a cycle;
 *  - every feasible-parent row is strictly ascending, the order its
 *    binary-search readers rely on.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "corpus/benchmarks.h"
#include "rock/pipeline.h"
#include "toyc/compiler.h"

namespace {

using namespace rock;

class Invariants : public ::testing::TestWithParam<std::string> {};

TEST_P(Invariants, HoldOnBenchmark)
{
    corpus::BenchmarkSpec spec =
        corpus::benchmark_by_name(GetParam());
    toyc::CompileResult compiled =
        toyc::compile(spec.program.program, spec.program.options);
    core::ReconstructionResult result =
        core::reconstruct(compiled.image);
    const auto& sr = result.structural;
    const core::Hierarchy& h = result.hierarchy;

    // Coverage: hierarchy nodes == discovered binary types.
    ASSERT_EQ(static_cast<std::size_t>(h.size()), sr.types.size());

    for (std::size_t c = 0; c < sr.possible_parents.size(); ++c) {
        const auto& row = sr.possible_parents[c];
        EXPECT_EQ(std::adjacent_find(row.begin(), row.end(),
                                     std::greater_equal<int>()),
                  row.end())
            << "feasible parents of " << c << " not strictly ascending";
    }

    for (int v = 0; v < h.size(); ++v) {
        // Acyclicity: walking up parents terminates.
        std::set<int> seen;
        int cur = v;
        while (cur >= 0) {
            ASSERT_TRUE(seen.insert(cur).second)
                << "cycle through node " << cur;
            cur = h.parent(cur);
        }

        int p = h.parent(v);
        if (p >= 0) {
            // Feasibility and family discipline.
            const auto& feasible =
                sr.possible_parents[static_cast<std::size_t>(v)];
            EXPECT_TRUE(
                std::binary_search(feasible.begin(), feasible.end(), p))
                << "infeasible parent for node " << v;
            EXPECT_EQ(sr.family[static_cast<std::size_t>(v)],
                      sr.family[static_cast<std::size_t>(p)])
                << "cross-family edge";
        }

        // Forced parents are honored.
        auto forced = sr.forced_parents.find(v);
        if (forced != sr.forced_parents.end()) {
            EXPECT_EQ(p, forced->second)
                << "rule-3 evidence ignored for node " << v;
        }

        // Heuristic 4.1: roots have no feasible parents, or using one
        // would require re-rooting elsewhere (i.e. the type's feasible
        // parents are all its own successors).
        if (p < 0 &&
            !sr.possible_parents[static_cast<std::size_t>(v)]
                 .empty()) {
            auto succ = h.successors(v);
            for (int cand :
                 sr.possible_parents[static_cast<std::size_t>(v)]) {
                EXPECT_TRUE(succ.count(cand))
                    << "node " << v
                    << " left a usable parent unused";
            }
        }
    }

    // Every surviving alternative satisfies the same feasibility
    // rules.
    for (const auto& fam : result.families) {
        for (const auto& alt : fam.alternatives) {
            for (std::size_t m = 0; m < fam.members.size(); ++m) {
                int child = fam.members[m];
                int parent = alt[m];
                if (parent < 0)
                    continue;
                const auto& feasible =
                    sr.possible_parents[static_cast<std::size_t>(child)];
                EXPECT_TRUE(std::binary_search(feasible.begin(),
                                               feasible.end(), parent));
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, Invariants,
    ::testing::Values("AntispyComplete", "bafprp", "cppcheck",
                      "MidiLib", "patl", "pop3", "smtp", "tinyxml",
                      "tinyxmlSTL", "yafe", "Analyzer",
                      "CGridListCtrlEx", "echoparams", "gperf",
                      "libctemplate", "ShowTraf", "Smoothing",
                      "td_unittest", "tinyserver"));

} // namespace
