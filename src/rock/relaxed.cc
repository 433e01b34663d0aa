#include "rock/relaxed.h"

#include <algorithm>
#include <set>

#include "support/error.h"

namespace rock::core {

Hierarchy
relaxed_hierarchy(const ReconstructionResult& result, int k)
{
    support::check(k >= 1, "k-parent relaxation requires k >= 1");
    Hierarchy h = result.hierarchy;
    if (k == 1)
        return h;

    for (int child = 0; child < h.size(); ++child) {
        // Collect the already-attached parents (primary + any
        // multiple-inheritance extras) so they are not duplicated.
        std::vector<int> attached = h.parents(child);

        // Rank the remaining feasible parents by distance.
        std::vector<std::pair<double, int>> ranked;
        for (int p : result.structural.possible_parents
                         [static_cast<std::size_t>(child)]) {
            if (std::find(attached.begin(), attached.end(), p) !=
                attached.end()) {
                continue;
            }
            auto dist = result.distances.find({p, child});
            double weight = dist == result.distances.end()
                                ? 0.0
                                : dist->second;
            ranked.emplace_back(weight, p);
        }
        std::sort(ranked.begin(), ranked.end());

        int budget = k - static_cast<int>(attached.size());
        // Avoid creating parent cycles: p must not already be a
        // successor of child. Attaching p to child adds no successor
        // of child unless p is one already, which this check rejects,
        // so one walk serves every candidate.
        const std::set<int> below = h.successors(child);
        for (const auto& [weight, p] : ranked) {
            (void)weight;
            if (budget <= 0)
                break;
            if (below.count(p))
                continue;
            h.add_extra_parent(child, p);
            --budget;
        }
    }
    return h;
}

} // namespace rock::core
