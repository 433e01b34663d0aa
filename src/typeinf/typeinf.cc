#include "typeinf/typeinf.h"

#include <algorithm>

#include "obs/metrics.h"
#include "support/log.h"
#include "support/str.h"

namespace rock::typeinf {

int
TypeInfResult::index_of(std::uint32_t vtable_addr) const
{
    auto it = std::lower_bound(types.begin(), types.end(), vtable_addr);
    if (it != types.end() && *it == vtable_addr)
        return static_cast<int>(it - types.begin());
    return -1;
}

bool
TypeInfResult::subtype(std::uint32_t derived, std::uint32_t base) const
{
    return std::binary_search(subtype_edges.begin(),
                              subtype_edges.end(),
                              std::make_pair(derived, base));
}

std::vector<cfg::Diagnostic>
TypeInfResult::diagnostics() const
{
    std::vector<cfg::Diagnostic> diags;
    for (const Inconsistency& inc : inconsistencies) {
        cfg::Diagnostic d;
        d.kind = cfg::DiagKind::SubtypeInconsistent;
        d.func_addr = inc.func_addr;
        d.addr = inc.addr;
        d.detail = to_string(inc);
        diags.push_back(std::move(d));
    }
    return diags;
}

TypeInfResult
infer(const bir::BinaryImage& image, const cfg::CfgCache& cache,
      const std::vector<analysis::VTableInfo>& vtables,
      support::ThreadPool& pool)
{
    return infer(image, cache, vtables, pool, nullptr);
}

TypeInfResult
infer(const bir::BinaryImage& image, const cfg::CfgCache& cache,
      const std::vector<analysis::VTableInfo>& vtables,
      support::ThreadPool& pool,
      const std::shared_ptr<cache::ArtifactCache>& artifacts)
{
    TypeInfResult result;
    for (const auto& vt : vtables)
        result.types.push_back(vt.addr);
    std::sort(result.types.begin(), result.types.end());

    result.constraints =
        generate_constraints(image, cache, vtables, pool, artifacts);
    SolveResult solved = solve(result.constraints, image, vtables);
    result.sketches = std::move(solved.sketches);
    result.direct_edges = std::move(solved.direct_edges);
    result.subtype_edges = std::move(solved.subtype_edges);
    result.inconsistencies = std::move(solved.inconsistencies);
    result.var_type = std::move(solved.var_type);

    result.stats.functions_walked = image.functions.size();
    result.stats.unique_bodies = result.constraints.unique_bodies;
    result.stats.constraints = result.constraints.constraints.size();
    result.stats.object_vars =
        static_cast<std::size_t>(result.constraints.num_vars);
    result.stats.subtype_edges = result.subtype_edges.size();
    result.stats.inconsistencies = result.inconsistencies.size();

    obs::Registry& reg = obs::Registry::global();
    reg.counter("typeinf.functions_walked")
        .add(result.stats.functions_walked);
    reg.counter("typeinf.unique_bodies").add(result.stats.unique_bodies);
    reg.counter("typeinf.constraints").add(result.stats.constraints);
    reg.counter("typeinf.object_vars").add(result.stats.object_vars);
    reg.counter("typeinf.subtype_edges").add(result.stats.subtype_edges);
    reg.counter("typeinf.inconsistencies")
        .add(result.stats.inconsistencies);

    ROCK_LOG_INFO << "typeinf: " << result.stats.constraints
                  << " constraints over " << result.stats.object_vars
                  << " vars (" << result.stats.unique_bodies
                  << " unique bodies), " << result.stats.subtype_edges
                  << " subtype facts, " << result.stats.inconsistencies
                  << " inconsistencies";
    return result;
}

TypeInfResult
infer(const bir::BinaryImage& image, int threads)
{
    support::ThreadPool pool(support::resolve_threads(threads));
    cfg::CfgCache cache(image);
    cache.build_all(pool);
    std::vector<analysis::VTableInfo> vtables =
        analysis::scan_vtables(image);
    return infer(image, cache, vtables, pool);
}

} // namespace rock::typeinf
