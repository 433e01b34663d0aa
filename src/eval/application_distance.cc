#include "eval/application_distance.h"

#include <algorithm>

#include "support/error.h"

namespace rock::eval {

namespace {

/** Per-type application distance: |expected \ actual| missing and
 *  |actual \ expected| added. */
struct TypeDistance {
    long missing = 0;
    long added = 0;
};

/** Compare @p type's successors in the ground-truth forest @p truth
 *  with those in @p hierarchy. */
TypeDistance
type_distance(const GroundTruth& gt, const core::Hierarchy& truth,
              const core::Hierarchy& hierarchy, std::uint32_t type)
{
    const std::set<std::uint32_t> expected = gt.successors_in(truth, type);
    const std::set<std::uint32_t> actual = gt.successors_in(hierarchy, type);
    TypeDistance d;
    for (std::uint32_t e : expected)
        d.missing += actual.count(e) ? 0 : 1;
    for (std::uint32_t a : actual)
        d.added += expected.count(a) ? 0 : 1;
    return d;
}

AppDistance
score(const GroundTruth& gt, const core::Hierarchy& truth,
      const core::Hierarchy& hierarchy)
{
    AppDistance result;
    result.num_types = static_cast<int>(gt.types.size());
    if (result.num_types == 0)
        return result;
    long missing_total = 0;
    long added_total = 0;
    for (std::uint32_t t : gt.types) {
        const TypeDistance d = type_distance(gt, truth, hierarchy, t);
        missing_total += d.missing;
        added_total += d.added;
        if (d.missing > 0)
            ++result.types_with_missing;
        if (d.added > 0)
            ++result.types_with_added;
    }
    result.avg_missing = static_cast<double>(missing_total) /
                         static_cast<double>(result.num_types);
    result.avg_added = static_cast<double>(added_total) /
                       static_cast<double>(result.num_types);
    return result;
}

} // namespace

AppDistance
application_distance(const core::Hierarchy& hierarchy,
                     const GroundTruth& gt)
{
    return score(gt, gt.forest(), hierarchy);
}

AppDistance
application_distance_structural(const structural::StructuralResult& sr,
                                const GroundTruth& gt)
{
    // successors(t) = { t' | t is reachable from t' via possible-parent
    // steps }: the successors of t in the graph that links every type
    // to each of its possible parents.
    core::Hierarchy possible(sr.types);
    for (int c = 0; c < possible.size(); ++c) {
        for (int p : sr.possible_parents[static_cast<std::size_t>(c)])
            possible.add_extra_parent(c, p);
    }
    return score(gt, gt.forest(), possible);
}

AppDistance
application_distance_worst(const core::ReconstructionResult& result,
                           const GroundTruth& gt)
{
    // The application distance decomposes over families (a type's
    // successor sets are confined to its family), so the least
    // precise combination picks the worst alternative per family
    // independently.
    const core::Hierarchy truth = gt.forest();
    std::vector<int> picks(result.families.size(), 0);
    for (std::size_t f = 0; f < result.families.size(); ++f) {
        const auto& fam = result.families[f];
        if (fam.alternatives.size() <= 1)
            continue;
        long worst_score = -1;
        int worst_pick = 0;
        for (std::size_t a = 0; a < fam.alternatives.size(); ++a) {
            picks[f] = static_cast<int>(a);
            const core::Hierarchy h = result.hierarchy_with(picks);
            long partial = 0;
            for (int idx : fam.members) {
                const std::uint32_t t =
                    result.structural.types[static_cast<std::size_t>(idx)];
                if (!std::binary_search(gt.types.begin(),
                                        gt.types.end(), t)) {
                    continue;
                }
                const TypeDistance d = type_distance(gt, truth, h, t);
                partial += d.missing + d.added;
            }
            if (partial > worst_score) {
                worst_score = partial;
                worst_pick = static_cast<int>(a);
            }
        }
        picks[f] = worst_pick;
    }
    return score(gt, truth, result.hierarchy_with(picks));
}

} // namespace rock::eval
