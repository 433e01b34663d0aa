#include "fuzz/oracles.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#include <utility>
#include <vector>

#include "bir/serialize.h"
#include "cache/artifact_cache.h"
#include "cfg/verify.h"
#include "eval/ground_truth.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rock/classify.h"
#include "rock/relaxed.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "support/rng.h"
#include "support/str.h"
#include "typeinf/typeinf.h"
#include "vm/vm.h"

namespace rock::fuzz {
namespace {

using corpus::GeneratorSpec;
using toyc::Program;
using toyc::Stmt;

OracleVerdict
fail(std::string detail)
{
    return {false, std::move(detail)};
}

OracleVerdict
pass()
{
    return {};
}

// ---- structural invariants ---------------------------------------------

/** The cross-cutting single-run invariants of tests/invariants_test.cc. */
OracleVerdict
check_structure(const OracleContext& ctx)
{
    const auto& result = ctx.fuzz_case.result;
    const auto& sr = result.structural;
    const core::Hierarchy& h = result.hierarchy;

    if (static_cast<std::size_t>(h.size()) != sr.types.size())
        return fail(support::format(
            "coverage: hierarchy has %d nodes for %zu binary types",
            h.size(), sr.types.size()));

    for (int v = 0; v < h.size(); ++v) {
        std::set<int> seen;
        for (int cur = v; cur >= 0; cur = h.parent(cur)) {
            if (!seen.insert(cur).second)
                return fail(support::format(
                    "parent cycle through node %d", cur));
        }

        int p = h.parent(v);
        if (p >= 0) {
            const auto& feasible =
                sr.possible_parents[static_cast<std::size_t>(v)];
            if (!std::binary_search(feasible.begin(), feasible.end(), p))
                return fail(support::format(
                    "infeasible parent %d chosen for node %d", p, v));
            if (sr.family[static_cast<std::size_t>(v)] !=
                sr.family[static_cast<std::size_t>(p)])
                return fail(support::format(
                    "cross-family edge %d -> %d", p, v));
        }

        // Heuristic 4.1: a type with feasible parents is only a root
        // when every feasible choice would close a cycle.
        if (p < 0 &&
            !sr.possible_parents[static_cast<std::size_t>(v)]
                 .empty()) {
            std::set<int> succ = h.successors(v);
            for (int cand :
                 sr.possible_parents[static_cast<std::size_t>(v)]) {
                if (!succ.count(cand))
                    return fail(support::format(
                        "node %d is a root but parent %d was usable",
                        v, cand));
            }
        }
    }

    for (const auto& fam : result.families) {
        for (const auto& alt : fam.alternatives) {
            if (alt.size() != fam.members.size())
                return fail(support::format(
                    "family %d: alternative arity mismatch",
                    fam.family_id));
            for (std::size_t m = 0; m < fam.members.size(); ++m) {
                int child = fam.members[m];
                int parent = alt[m];
                if (parent < 0)
                    continue;
                const auto& feasible =
                    sr.possible_parents[static_cast<std::size_t>(child)];
                if (!std::binary_search(feasible.begin(), feasible.end(),
                                        parent))
                    return fail(support::format(
                        "family %d: infeasible alternative edge "
                        "%d -> %d",
                        fam.family_id, parent, child));
            }
        }
    }
    return pass();
}

/** Rule-3 forced edges are honored everywhere. */
OracleVerdict
check_forced_parents(const OracleContext& ctx)
{
    const auto& result = ctx.fuzz_case.result;
    const auto& sr = result.structural;

    for (const auto& [child, parent] : sr.forced_parents) {
        if (result.hierarchy.parent(child) != parent)
            return fail(support::format(
                "rule-3 evidence ignored: node %d has parent %d, "
                "forced %d",
                child, result.hierarchy.parent(child), parent));
    }
    for (const auto& fam : result.families) {
        for (const auto& alt : fam.alternatives) {
            for (std::size_t m = 0;
                 m < fam.members.size() && m < alt.size(); ++m) {
                auto forced = sr.forced_parents.find(fam.members[m]);
                if (forced != sr.forced_parents.end() &&
                    alt[m] != forced->second)
                    return fail(support::format(
                        "family %d: alternative drops forced edge "
                        "%d -> %d",
                        fam.family_id, forced->second,
                        fam.members[m]));
            }
        }
    }
    return pass();
}

/**
 * Soundness of structural elimination (paper Section 5): the rules
 * may keep impossible parents but must never eliminate the true one.
 * Checked against the compiler's ground-truth side channel.
 */
OracleVerdict
check_sound_elimination(const OracleContext& ctx)
{
    const auto& fc = ctx.fuzz_case;
    eval::GroundTruth gt =
        eval::ground_truth_from_debug(fc.compiled.debug);
    const auto& sr = fc.result.structural;

    for (std::uint32_t type : gt.types) {
        if (sr.index_of(type) < 0)
            return fail("ground-truth type " + support::hex(type) +
                        " was not discovered");
    }
    for (const auto& [child_vt, parent_vt] : gt.parent) {
        if (gt.synthetic.count(child_vt) ||
            gt.synthetic.count(parent_vt))
            continue;
        int c = sr.index_of(child_vt);
        int p = sr.index_of(parent_vt);
        if (c < 0 || p < 0)
            continue; // caught above
        if (sr.family[static_cast<std::size_t>(c)] !=
            sr.family[static_cast<std::size_t>(p)])
            return fail(support::format(
                "true parent %d of %d landed in another family", p,
                c));
        const auto& feasible =
            sr.possible_parents[static_cast<std::size_t>(c)];
        if (!std::binary_search(feasible.begin(), feasible.end(), p))
            return fail(support::format(
                "structural rules eliminated the true parent "
                "%d -> %d",
                p, c));
    }
    return pass();
}

// ---- name-keyed run views (metamorphic oracles) ------------------------

/**
 * A reconstruction keyed by ground-truth class names, so two runs
 * over differently laid out (renamed / permuted / extended) binaries
 * can be compared class-by-class.
 */
struct RunView {
    const core::ReconstructionResult* result = nullptr;
    /** Primary (non-synthetic) class name -> type index. */
    std::map<std::string, int> class_index;
    /** Every named type, incl. synthetic MI vtables ("C::B"). */
    std::map<std::string, int> name_index;
    std::map<int, std::string> index_name;
};

RunView
make_view(const toyc::DebugInfo& debug,
          const core::ReconstructionResult& result)
{
    RunView view;
    view.result = &result;
    for (const auto& td : debug.types) {
        int idx = result.structural.index_of(td.vtable_addr);
        if (idx < 0)
            continue;
        view.index_name[idx] = td.class_name;
        view.name_index[td.class_name] = idx;
        if (!td.synthetic)
            view.class_index[td.class_name] = idx;
    }
    return view;
}

/** Bidirectional class-name mapping between two program variants. */
struct NameTranslation {
    std::function<std::string(const std::string&)> fwd; ///< base->other
    std::function<std::string(const std::string&)> rev; ///< other->base
};

NameTranslation
identity_translation()
{
    auto id = [](const std::string& name) { return name; };
    return {id, id};
}

/** Apply @p f to each "::"-separated component (synthetic names). */
std::string
map_composite(const std::string& name,
              const std::function<std::string(const std::string&)>& f)
{
    auto pos = name.find("::");
    if (pos == std::string::npos)
        return f(name);
    return f(name.substr(0, pos)) + "::" + f(name.substr(pos + 2));
}

/**
 * Was the base run's choice between candidate parents @p p1 and @p p2
 * of @p child a near-tie? Used to tolerate co-optimal flips under
 * transformations that perturb tie-breaking order or smoothing.
 */
bool
benign_tie(const RunView& base, int child, int p1, int p2,
           double tie_tol)
{
    if (tie_tol <= 0.0)
        return false;
    const auto& distances = base.result->distances;
    auto i1 = distances.find({p1, child});
    auto i2 = distances.find({p2, child});
    if (i1 == distances.end() || i2 == distances.end())
        return false;
    double a = i1->second;
    double b = i2->second;
    return std::abs(a - b) <=
           tie_tol * (1.0 + std::max(std::abs(a), std::abs(b)));
}

/**
 * Compare two runs over the base-side classes @p base_classes: family
 * partition, feasible-parent sets, forced edges, and the selected
 * forest (primary + MI parents) must all agree up to @p translate,
 * except selected-parent flips the base run itself scored as a
 * near-tie (within @p tie_tol relative distance).
 */
OracleVerdict
compare_views(const RunView& base, const RunView& other,
              const std::set<std::string>& base_classes,
              const NameTranslation& translate, double tie_tol)
{
    auto fwd = [&](const std::string& name) {
        return map_composite(name, translate.fwd);
    };
    auto rev = [&](const std::string& name) {
        return map_composite(name, translate.rev);
    };

    for (const auto& name : base_classes) {
        if (!base.class_index.count(name))
            return fail("base run lost class " + name);
        if (!other.class_index.count(fwd(name)))
            return fail("transformed run lost class " + name);
    }

    // Family members of `name`'s family, restricted to the class set.
    auto family_of = [&](const RunView& view, const std::string& name,
                         const std::set<std::string>& keep) {
        int idx = view.class_index.at(name);
        int fam =
            view.result->structural.family[static_cast<std::size_t>(
                idx)];
        std::set<std::string> out;
        for (const auto& [cls, ci] : view.class_index) {
            if (view.result->structural
                    .family[static_cast<std::size_t>(ci)] == fam &&
                keep.count(cls))
                out.insert(cls);
        }
        return out;
    };

    std::set<std::string> other_classes;
    for (const auto& name : base_classes)
        other_classes.insert(fwd(name));

    for (const auto& name : base_classes) {
        const std::string tname = fwd(name);
        int bc = base.class_index.at(name);
        int oc = other.class_index.at(tname);
        const auto& bsr = base.result->structural;
        const auto& osr = other.result->structural;

        // Family partition.
        std::set<std::string> bfam;
        for (const auto& member :
             family_of(base, name, base_classes))
            bfam.insert(fwd(member));
        std::set<std::string> ofam =
            family_of(other, tname, other_classes);
        if (bfam != ofam)
            return fail("family of " + name +
                        " changed under the transformation");

        // Feasible-parent sets (within the class set).
        auto feasible_names = [&](const RunView& view, int child,
                                  const std::set<std::string>& keep) {
            std::set<std::string> out;
            for (int p : view.result->structural.possible_parents
                             [static_cast<std::size_t>(child)]) {
                auto it = view.index_name.find(p);
                if (it != view.index_name.end() &&
                    keep.count(it->second))
                    out.insert(it->second);
            }
            return out;
        };
        std::set<std::string> bfeasible;
        for (const auto& p : feasible_names(base, bc, base_classes))
            bfeasible.insert(fwd(p));
        if (bfeasible != feasible_names(other, oc, other_classes))
            return fail("feasible parents of " + name +
                        " changed under the transformation");

        // Rule-3 forced edges.
        auto forced_name = [&](const RunView& view, int child,
                               const std::set<std::string>& keep)
            -> std::string {
            auto it =
                view.result->structural.forced_parents.find(child);
            if (it == view.result->structural.forced_parents.end())
                return "";
            auto nm = view.index_name.find(it->second);
            if (nm == view.index_name.end() || !keep.count(nm->second))
                return "";
            return nm->second;
        };
        std::string bforced = forced_name(base, bc, base_classes);
        std::string oforced = forced_name(other, oc, other_classes);
        if ((bforced.empty() ? "" : fwd(bforced)) != oforced)
            return fail("forced parent of " + name +
                        " changed under the transformation");

        // Selected primary parent (tie-tolerant).
        int bp = base.result->hierarchy.parent(bc);
        int op = other.result->hierarchy.parent(oc);
        std::string bp_name =
            bp < 0 ? "" : base.index_name.at(bp);
        std::string op_name =
            op < 0 ? "" : other.index_name.at(op);
        std::string expected = bp_name.empty() ? "" : fwd(bp_name);
        if (op_name != expected) {
            bool tolerated = false;
            if (bp >= 0 && op >= 0) {
                auto alt = base.name_index.find(rev(op_name));
                tolerated = alt != base.name_index.end() &&
                            benign_tie(base, bc, bp, alt->second,
                                       tie_tol);
            }
            if (!tolerated)
                return fail(
                    "parent of " + name + " changed: was " +
                    (bp_name.empty() ? "<root>" : bp_name) +
                    ", now " +
                    (op_name.empty() ? "<root>" : op_name));
        }

        // Extra (multiple-inheritance) parents. These derive from
        // the selected parent of each secondary vtable. Synthetic
        // names need not be unique (a diamond yields two "C::B"
        // vtables), so secondaries cannot be matched one-to-one by
        // name; compare the *multiset* of their selected parents in
        // base-name space instead, pairing leftover mismatches as
        // near-ties of some secondary.
        std::vector<int> bsecs;
        std::multiset<std::string> bextra;
        for (const auto& [sec, prim] : bsr.secondary_of) {
            if (prim != bc)
                continue;
            bsecs.push_back(sec);
            int p = base.result->hierarchy.parent(sec);
            bextra.insert(p < 0 ? "<root>"
                                : base.index_name.at(p));
        }
        std::multiset<std::string> oextra;
        for (const auto& [sec, prim] : osr.secondary_of) {
            if (prim != oc)
                continue;
            int p = other.result->hierarchy.parent(sec);
            oextra.insert(p < 0 ? "<root>"
                                : rev(other.index_name.at(p)));
        }
        if (bextra.size() != oextra.size())
            return fail("secondary vtable count of " + name +
                        " changed under the transformation");
        std::vector<std::string> missing, surplus;
        std::set_difference(bextra.begin(), bextra.end(),
                            oextra.begin(), oextra.end(),
                            std::back_inserter(missing));
        std::set_difference(oextra.begin(), oextra.end(),
                            bextra.begin(), bextra.end(),
                            std::back_inserter(surplus));
        for (std::size_t i = 0; i < missing.size(); ++i) {
            auto want = base.name_index.find(missing[i]);
            auto got = base.name_index.find(surplus[i]);
            bool tolerated = false;
            if (want != base.name_index.end() &&
                got != base.name_index.end()) {
                for (int sec : bsecs) {
                    if (benign_tie(base, sec, want->second,
                                   got->second, tie_tol)) {
                        tolerated = true;
                        break;
                    }
                }
            }
            if (!tolerated)
                return fail("MI parents of " + name +
                            " changed under the transformation: a "
                            "secondary inherits " +
                            surplus[i] + " instead of " +
                            missing[i]);
        }
    }
    return pass();
}

// ---- program transformations -------------------------------------------

std::string
renamed_class(const std::string& name)
{
    return "Z" + name;
}

std::string
unrenamed_class(const std::string& name)
{
    return name.size() > 1 && name[0] == 'Z' ? name.substr(1) : name;
}

void
rename_stmts(std::vector<Stmt>& body)
{
    for (auto& stmt : body) {
        if (!stmt.class_name.empty())
            stmt.class_name = renamed_class(stmt.class_name);
        if (!stmt.method.empty())
            stmt.method = "r_" + stmt.method;
        if (!stmt.callee.empty())
            stmt.callee = "u_" + stmt.callee;
        rename_stmts(stmt.then_body);
        rename_stmts(stmt.else_body);
    }
}

/** Consistently rename every class, method and usage function. */
Program
renamed_program(const Program& prog)
{
    Program out = prog;
    out.name += "_renamed";
    for (auto& cls : out.classes) {
        cls.name = renamed_class(cls.name);
        for (auto& parent : cls.parents)
            parent = renamed_class(parent);
        for (auto& method : cls.methods) {
            method.name = "r_" + method.name;
            rename_stmts(method.body);
        }
        rename_stmts(cls.ctor_body);
        rename_stmts(cls.dtor_body);
    }
    for (auto& fn : out.usages) {
        fn.name = "u_" + fn.name;
        for (auto& param : fn.params)
            param.class_name = renamed_class(param.class_name);
        rename_stmts(fn.body);
    }
    return out;
}

/** Shuffle class and usage declaration order (seeded). */
Program
permuted_program(const Program& prog, std::uint64_t seed)
{
    Program out = prog;
    out.name += "_permuted";
    support::Rng rng(seed ^ 0x5eedf00ddeadbeefull);
    rng.shuffle(out.classes);
    rng.shuffle(out.usages);
    return out;
}

/** Append a freshly generated, unrelated inheritance tree. */
Program
extended_program(const Program& prog, const GeneratorSpec& base_spec)
{
    GeneratorSpec extra;
    extra.num_classes = 4;
    extra.num_trees = 1;
    extra.max_depth = 2;
    extra.max_children = 2;
    extra.root_methods = 2;
    extra.scenarios_per_class = 1;
    extra.fold_noise_pairs = 0; // no cross-program COMDAT bridges
    extra.mi_prob = 0.0;
    extra.control_flow = base_spec.control_flow;
    extra.seed = base_spec.seed ^ 0xabcdef123456ull;
    extra.class_prefix = base_spec.class_prefix == "X" ? "Y" : "X";
    extra.name_base = 1 << 20; // disjoint method names and body tags
    Program addition = corpus::generate_program(extra);

    Program out = prog;
    out.name += "_extended";
    out.classes.insert(out.classes.end(), addition.classes.begin(),
                       addition.classes.end());
    out.usages.insert(out.usages.end(), addition.usages.begin(),
                      addition.usages.end());
    return out;
}

std::set<std::string>
primary_classes(const RunView& view)
{
    std::set<std::string> out;
    for (const auto& [name, idx] : view.class_index) {
        (void)idx;
        out.insert(name);
    }
    return out;
}

// ---- metamorphic oracles -----------------------------------------------

/** Near-tie slack for transformations that only perturb FP order /
 *  tie-breaking (declaration permutation). */
constexpr double kPermuteTieTol = 1e-6;
/** Slack for transformations that perturb SLM smoothing through the
 *  alphabet size (appending an unrelated tree). */
constexpr double kExtendTieTol = 0.05;

OracleVerdict
check_rename_stable(const OracleContext& ctx)
{
    const FuzzCase& fc = ctx.fuzz_case;
    Program renamed = renamed_program(fc.program);
    toyc::CompileResult other =
        toyc::compile(renamed, ctx.config.compile);

    // Names never reach the stripped image: renaming must not move a
    // single byte of code or data.
    if (other.image.code != fc.compiled.image.code)
        return fail("code bytes changed under renaming");
    if (other.image.data != fc.compiled.image.data)
        return fail("data bytes changed under renaming");
    if (other.image.functions != fc.compiled.image.functions)
        return fail("function table changed under renaming");

    core::ReconstructionResult other_result =
        reconstruct_image(other.image, ctx.config);
    RunView base = make_view(fc.compiled.debug, fc.result);
    RunView view = make_view(other.debug, other_result);
    NameTranslation translate{renamed_class, unrenamed_class};
    return compare_views(base, view, primary_classes(base), translate,
                         0.0);
}

OracleVerdict
check_permute_stable(const OracleContext& ctx)
{
    const FuzzCase& fc = ctx.fuzz_case;
    Program permuted = permuted_program(fc.program, fc.spec.seed);
    toyc::CompileResult other =
        toyc::compile(permuted, ctx.config.compile);
    core::ReconstructionResult other_result =
        reconstruct_image(other.image, ctx.config);
    RunView base = make_view(fc.compiled.debug, fc.result);
    RunView view = make_view(other.debug, other_result);
    return compare_views(base, view, primary_classes(base),
                         identity_translation(), kPermuteTieTol);
}

OracleVerdict
check_extend_stable(const OracleContext& ctx)
{
    const FuzzCase& fc = ctx.fuzz_case;
    Program extended = extended_program(fc.program, fc.spec);
    toyc::CompileResult other =
        toyc::compile(extended, ctx.config.compile);
    core::ReconstructionResult other_result =
        reconstruct_image(other.image, ctx.config);
    RunView base = make_view(fc.compiled.debug, fc.result);
    RunView view = make_view(other.debug, other_result);
    if (view.class_index.size() <= base.class_index.size())
        return fail("extended program lost the added tree");
    // Existing families must not be perturbed by the unrelated tree.
    return compare_views(base, view, primary_classes(base),
                         identity_translation(), kExtendTieTol);
}

// ---- differential oracles ----------------------------------------------

OracleVerdict
check_threads_differential(const OracleContext& ctx)
{
    const FuzzCase& fc = ctx.fuzz_case;
    int other_threads = ctx.config.rock.threads == 1 ? 3 : 1;
    core::ReconstructionResult other = reconstruct_image(
        fc.compiled.image, ctx.config, other_threads);
    std::string diff = core::first_difference(fc.result, other);
    if (!diff.empty())
        return fail(support::format(
            "threads=%d vs threads=%d: %s differs",
            ctx.config.rock.threads, other_threads, diff.c_str()));
    return pass();
}

OracleVerdict
check_serialize_differential(const OracleContext& ctx)
{
    const FuzzCase& fc = ctx.fuzz_case;
    const bir::BinaryImage& image = fc.compiled.image;
    bir::BinaryImage loaded = bir::load_image(bir::save_image(image));
    if (loaded.code != image.code || loaded.data != image.data ||
        loaded.code_base != image.code_base ||
        loaded.data_base != image.data_base ||
        loaded.functions != image.functions ||
        loaded.symbols != image.symbols ||
        loaded.has_rtti != image.has_rtti ||
        loaded.entry != image.entry)
        return fail("VMI round trip altered the image");
    core::ReconstructionResult other =
        reconstruct_image(loaded, ctx.config);
    std::string diff = core::first_difference(fc.result, other);
    if (!diff.empty())
        return fail("serialize round trip: " + diff + " differs");
    return pass();
}

OracleVerdict
check_relaxed_consistent(const OracleContext& ctx)
{
    const auto& result = ctx.fuzz_case.result;
    const core::Hierarchy& strict = result.hierarchy;

    core::Hierarchy k1 = core::relaxed_hierarchy(result, 1);
    if (k1.size() != strict.size())
        return fail("relaxed k=1 changed the node count");
    for (int v = 0; v < strict.size(); ++v) {
        if (k1.parent(v) != strict.parent(v))
            return fail(support::format(
                "relaxed k=1 changed the parent of node %d", v));
    }

    for (int k = 2; k <= 3; ++k) {
        core::Hierarchy relaxed = core::relaxed_hierarchy(result, k);
        for (int v = 0; v < strict.size(); ++v) {
            if (relaxed.parent(v) != strict.parent(v))
                return fail(support::format(
                    "relaxed k=%d changed the primary parent of "
                    "node %d",
                    k, v));
            // Strict MI extras are never evicted, so the cap is k
            // or the strict parent count, whichever is larger.
            int cap = std::max(
                k, static_cast<int>(strict.parents(v).size()));
            std::vector<int> rp = relaxed.parents(v);
            if (static_cast<int>(rp.size()) > cap)
                return fail(support::format(
                    "relaxed k=%d gave node %d more than %d parents",
                    k, v, cap));
            // Relaxation only adds parents; the strict ones stay.
            std::vector<int> sp = strict.parents(v);
            for (int p : sp) {
                if (std::find(rp.begin(), rp.end(), p) == rp.end())
                    return fail(support::format(
                        "relaxed k=%d dropped strict parent %d of "
                        "node %d",
                        k, p, v));
            }
            // Added parents are structurally feasible.
            const auto& feasible =
                result.structural
                    .possible_parents[static_cast<std::size_t>(v)];
            for (int p : rp) {
                if (std::find(sp.begin(), sp.end(), p) != sp.end())
                    continue;
                if (std::find(feasible.begin(), feasible.end(), p) ==
                    feasible.end())
                    return fail(support::format(
                        "relaxed k=%d added infeasible parent %d to "
                        "node %d",
                        k, p, v));
            }
            // The cycle guards must hold: no node descends from
            // itself, i.e. no parent of a node is also its successor
            // (successors(v) never holds v).
            const std::set<int> below = relaxed.successors(v);
            for (int p : rp) {
                if (below.count(p))
                    return fail(support::format(
                        "relaxed k=%d has a cycle through node %d "
                        "and its parent %d",
                        k, v, p));
            }
        }
    }
    return pass();
}

// ---- rockcheck oracle --------------------------------------------------

bool
has_kind(const std::vector<cfg::Diagnostic>& diags,
         cfg::DiagKind kind)
{
    for (const auto& diag : diags) {
        if (diag.kind == kind)
            return true;
    }
    return false;
}

/**
 * Every compiled-and-stripped image is rockcheck clean, and
 * deterministic targeted corruptions of it trip the matching
 * diagnostic. Exercises both directions of the verifier: no false
 * positives on toolchain output, no false negatives on damage the
 * diagnostics are specified to catch.
 */
OracleVerdict
check_rockcheck(const OracleContext& ctx)
{
    const bir::BinaryImage& image = ctx.fuzz_case.compiled.image;
    std::vector<cfg::Diagnostic> clean = cfg::verify_image(image);
    if (!clean.empty())
        return fail("well-formed image tripped rockcheck: " +
                    cfg::to_string(clean.front()));

    auto expect = [](const bir::BinaryImage& corrupted,
                     cfg::DiagKind kind,
                     const char* what) -> OracleVerdict {
        if (!has_kind(cfg::verify_image(corrupted), kind))
            return fail(support::format(
                "%s did not raise %s", what, cfg::diag_name(kind)));
        return pass();
    };

    // Invalid opcode in the entry slot of the first function.
    if (!image.functions.empty() &&
        image.functions.front().size >= bir::kInstrSize) {
        bir::BinaryImage bad = image;
        bad.code[bad.functions.front().addr - bad.code_base] = 0xff;
        OracleVerdict v = expect(bad, cfg::DiagKind::Undecodable,
                                 "opcode corruption");
        if (!v.ok)
            return v;
    }

    // Register operand field pushed past kNumRegs on the first
    // register-writing instruction, and a jump immediate knocked off
    // instruction alignment on the first jump.
    std::size_t def_off = image.code.size();
    std::size_t jump_off = image.code.size();
    for (std::size_t off = 0; off + bir::kInstrSize <= image.code.size();
         off += bir::kInstrSize) {
        std::optional<bir::Instr> instr = bir::decode(image.code, off);
        if (!instr)
            continue;
        if (def_off == image.code.size() && bir::reg_def(*instr) >= 0)
            def_off = off;
        if (jump_off == image.code.size() && bir::is_jump(instr->op))
            jump_off = off;
    }
    if (def_off < image.code.size()) {
        bir::BinaryImage bad = image;
        bad.code[def_off + 1] = 0xff; // the `a` (destination) field
        OracleVerdict v = expect(bad, cfg::DiagKind::BadRegister,
                                 "register-field corruption");
        if (!v.ok)
            return v;
    }
    if (jump_off < image.code.size()) {
        bir::BinaryImage bad = image;
        bad.code[jump_off + 4] += 1; // imm low byte: misaligns target
        OracleVerdict v = expect(bad, cfg::DiagKind::TargetMisaligned,
                                 "jump-target corruption");
        if (!v.ok)
            return v;
    }

    // First discovered vtable's slot 0 bumped off its function entry.
    const auto& vtables = ctx.fuzz_case.result.analysis.vtables;
    if (!vtables.empty() && !vtables.front().slots.empty()) {
        bir::BinaryImage bad = image;
        std::size_t off = vtables.front().addr - bad.data_base;
        bad.data[off] += 1; // entry addresses are 8-aligned: +1 isn't
        OracleVerdict v = expect(bad, cfg::DiagKind::VtableSlotInvalid,
                                 "vtable-slot corruption");
        if (!v.ok)
            return v;
    }
    return pass();
}

// ---- typeinf oracle ----------------------------------------------------

/** Solved subtype edges keyed by class names (incl. synthetic
 *  "C::B" secondary-vtable names), for cross-variant comparison. */
std::set<std::pair<std::string, std::string>>
named_subtype_edges(const toyc::DebugInfo& debug,
                    const typeinf::TypeInfResult& ti)
{
    std::map<std::uint32_t, std::string> names;
    for (const auto& td : debug.types)
        names[td.vtable_addr] = td.class_name;
    std::set<std::pair<std::string, std::string>> out;
    for (const auto& [derived, base] : ti.subtype_edges) {
        auto d = names.find(derived);
        auto b = names.find(base);
        if (d != names.end() && b != names.end())
            out.emplace(d->second, b->second);
    }
    return out;
}

/**
 * The structural-subtyping pass on trustworthy input:
 *
 *  (a) toyc output never produces an inconsistency report;
 *  (b) every solved "A derives from B" with both types in the ground
 *      truth is a real ancestor-descendant pair (solved facts are
 *      sound -- they feed hard edge prunes, so one wrong fact can
 *      delete a true edge);
 *  (c) the solved facts are invariant under renaming and declaration
 *      permutation (they describe code shape, not layout order);
 *  (d) re-inferring directly from the image reproduces the
 *      pipeline's result bit for bit -- the differential that keeps
 *      injected constraint-generation bugs visible, since the direct
 *      run bypasses the fault-injection hooks.
 */
OracleVerdict
check_typeinf_consistent(const OracleContext& ctx)
{
    if (!ctx.config.rock.typeinf)
        return pass();
    const FuzzCase& fc = ctx.fuzz_case;
    const typeinf::TypeInfResult& ti = fc.result.typeinf;

    if (!ti.inconsistencies.empty())
        return fail("well-formed image produced an inconsistency: " +
                    typeinf::to_string(ti.inconsistencies.front()));

    eval::GroundTruth gt =
        eval::ground_truth_from_debug(fc.compiled.debug);
    std::set<std::uint32_t> gt_types(gt.types.begin(),
                                     gt.types.end());
    for (const auto& [derived, base] : ti.subtype_edges) {
        if (!gt_types.count(derived) || !gt_types.count(base))
            continue;
        bool ancestor = false;
        std::set<std::uint32_t> seen;
        for (std::uint32_t cur = derived; !ancestor;) {
            auto up = gt.parent.find(cur);
            if (up == gt.parent.end() ||
                !seen.insert(up->second).second)
                break;
            cur = up->second;
            ancestor = cur == base;
        }
        if (!ancestor)
            return fail(support::format(
                "solved fact %s derives from %s contradicts the "
                "ground truth",
                support::hex(derived).c_str(),
                support::hex(base).c_str()));
    }

    auto base_edges = named_subtype_edges(fc.compiled.debug, ti);
    {
        Program renamed = renamed_program(fc.program);
        toyc::CompileResult other =
            toyc::compile(renamed, ctx.config.compile);
        typeinf::TypeInfResult other_ti = typeinf::infer(other.image);
        std::set<std::pair<std::string, std::string>> translated;
        for (const auto& [d, b] : base_edges)
            translated.emplace(map_composite(d, renamed_class),
                               map_composite(b, renamed_class));
        if (translated != named_subtype_edges(other.debug, other_ti))
            return fail("solved subtype facts changed under renaming");
    }
    {
        Program permuted = permuted_program(fc.program, fc.spec.seed);
        toyc::CompileResult other =
            toyc::compile(permuted, ctx.config.compile);
        typeinf::TypeInfResult other_ti = typeinf::infer(other.image);
        if (base_edges != named_subtype_edges(other.debug, other_ti))
            return fail("solved subtype facts changed under "
                        "declaration permutation");
    }

    typeinf::TypeInfResult direct =
        typeinf::infer(fc.compiled.image, ctx.config.rock.threads);
    if (direct.constraints.constraints !=
            ti.constraints.constraints ||
        direct.constraints.num_vars != ti.constraints.num_vars)
        return fail("direct re-inference produced different "
                    "constraints than the pipeline");
    if (direct.direct_edges != ti.direct_edges ||
        direct.subtype_edges != ti.subtype_edges)
        return fail("direct re-inference produced different subtype "
                    "facts than the pipeline");
    if (direct.inconsistencies != ti.inconsistencies)
        return fail("direct re-inference produced different "
                    "inconsistencies than the pipeline");
    return pass();
}

// ---- vm differential oracle --------------------------------------------

/** Static tracelets per type as sets, for containment queries. */
std::map<std::uint32_t, std::set<analysis::Tracelet>>
tracelet_sets(const analysis::AnalysisResult& analysis)
{
    std::map<std::uint32_t, std::set<analysis::Tracelet>> sets;
    for (const auto& [type, tracelets] : analysis.type_tracelets)
        sets[type].insert(tracelets.begin(), tracelets.end());
    return sets;
}

/** First dynamic (type, tracelet) missing from @p sets, if any. */
std::optional<std::pair<std::uint32_t, analysis::Tracelet>>
first_containment_miss(
    const vm::VmResult& dynamic,
    const std::map<std::uint32_t, std::set<analysis::Tracelet>>& sets)
{
    for (const auto& [type, tracelets] : dynamic.type_tracelets) {
        auto it = sets.find(type);
        for (const auto& t : tracelets) {
            if (it == sets.end() || it->second.count(t) == 0)
                return std::make_pair(type, t);
        }
    }
    return std::nullopt;
}

/**
 * The dynamic side of the analysis: concretely executing the image
 * under rockvm must (a) never trap -- toyc output is well-formed --
 * and (b) only ever witness typed tracelets the static analysis also
 * extracts (dynamic ⊆ static; the shadow-state contract of
 * src/vm/vm.h). The interpreter takes the static run's SymExecConfig.
 *
 * A miss is first retried against a boosted-path-budget re-analysis:
 * the configured max_paths caps static exploration, and a concretely
 * reached path the static side truncated is a budget artifact, not a
 * pipeline bug. The injected-fault hook is re-applied to the boosted
 * result so deliberate pipeline bugs stay visible to the oracle.
 */
OracleVerdict
check_vm_differential(const OracleContext& ctx)
{
    const FuzzCase& fc = ctx.fuzz_case;
    vm::VmConfig vcfg;
    vcfg.symexec = ctx.config.rock.symexec;
    vm::Interpreter interp(fc.compiled.image, fc.result.analysis,
                           vcfg);
    vm::VmResult dynamic = interp.run_image(1);

    if (!dynamic.traps.empty()) {
        const vm::Trap& t = dynamic.traps.front();
        return fail(support::format(
            "clean image trapped: %s at %s (entry %s, detail %u)",
            vm::trap_name(t.kind), support::hex(t.addr).c_str(),
            support::hex(t.entry).c_str(), t.detail));
    }
    if (dynamic.stats.steps == 0)
        return fail("interpreter executed zero instructions");

    auto miss = first_containment_miss(
        dynamic, tracelet_sets(fc.result.analysis));
    if (!miss)
        return pass();

    analysis::SymExecConfig boosted = ctx.config.rock.symexec;
    boosted.max_paths = std::max(boosted.max_paths, 4096);
    // ReconstructionResult owns SLMs and is move-only; the probe only
    // needs the fields the fault-injection hooks touch.
    core::ReconstructionResult probe;
    probe.hierarchy = fc.result.hierarchy;
    probe.structural = fc.result.structural;
    probe.analysis = analysis::analyze(fc.compiled.image, boosted);
    if (ctx.config.hooks.mutate_result)
        ctx.config.hooks.mutate_result(probe);
    miss = first_containment_miss(dynamic,
                                  tracelet_sets(probe.analysis));
    if (!miss)
        return pass();
    return fail(support::format(
        "dynamic tracelet %s of type %s missing from the static set "
        "(even at max_paths=%d)",
        analysis::to_string(miss->second).c_str(),
        support::hex(miss->first).c_str(), boosted.max_paths));
}

/**
 * Artifact caching must be invisible: a cold reconstruction that
 * populates a fresh store and a warm one that replays from it must be
 * bit-identical to each other and to the primary (uncached) run, the
 * warm run must actually hit the cache, and every deterministic
 * counter outside the cache's own bookkeeping (cache.*) must tick
 * identically on both runs -- the counter-replay contract of
 * rock/artifacts.h. The stale-cache-entry injection corrupts the
 * store between the two runs (via CaseHooks::corrupt_cache) and is
 * caught here.
 */
OracleVerdict
check_cache_consistent(const OracleContext& ctx)
{
    const FuzzCase& fc = ctx.fuzz_case;
    auto store = std::make_shared<cache::ArtifactCache>(
        cache::CacheOptions{}); // memory tier only
    CaseConfig cached = ctx.config;
    cached.rock.cache = store;

    const obs::Registry& registry = obs::Registry::global();
    const auto before_cold = registry.counter_values();
    core::ReconstructionResult cold =
        reconstruct_image(fc.compiled.image, cached);
    const auto after_cold = registry.counter_values();

    if (ctx.config.hooks.corrupt_cache)
        ctx.config.hooks.corrupt_cache(*store);

    core::ReconstructionResult warm =
        reconstruct_image(fc.compiled.image, cached);
    const auto after_warm = registry.counter_values();

    std::string diff = core::first_difference(cold, warm);
    if (!diff.empty())
        return fail("cold vs warm cache: " + diff + " differs");
    diff = core::first_difference(fc.result, warm);
    if (!diff.empty())
        return fail("uncached vs warm cache: " + diff + " differs");
    if (store->stats().hits == 0)
        return fail("warm reconstruction hit nothing in the cache");

    // Counter replay: the warm run's per-run counter deltas must
    // equal the cold run's, except for cache.{hits,misses,...}.
    using Counters = std::map<std::string, std::uint64_t>;
    auto delta = [](const Counters& after, const Counters& before,
                    const std::string& name) -> std::uint64_t {
        auto a = after.find(name);
        auto b = before.find(name);
        return (a == after.end() ? 0 : a->second) -
               (b == before.end() ? 0 : b->second);
    };
    for (const auto& [name, total] : after_warm) {
        (void)total;
        if (name.rfind("cache.", 0) == 0)
            continue;
        std::uint64_t cold_delta =
            delta(after_cold, before_cold, name);
        std::uint64_t warm_delta = delta(after_warm, after_cold, name);
        if (cold_delta != warm_delta)
            return fail(support::format(
                "counter '%s' ticked %llu on the cold run but %llu "
                "on the warm run",
                name.c_str(),
                static_cast<unsigned long long>(cold_delta),
                static_cast<unsigned long long>(warm_delta)));
    }
    return pass();
}

/**
 * The serving layer must be invisible too: a daemon submit's response
 * bytes must equal a direct reconstruction of the submitted image,
 * for two *different* images pipelined into one analysis wave (the
 * dedup-aliasing trap -- caught when `drop-batch-dedup` collapses the
 * wave's dedup key), and a resubmission of the first image as a
 * pipelined pair must come back byte-identical out of the shared
 * artifact store, fanned out to both ids, with its hit counter
 * moving. Exercises the real daemon on a real unix socket. Waves are
 * sealed by size (batch_max = 2), never by a timer.
 */
OracleVerdict
check_serve_differential(const OracleContext& ctx)
{
    namespace protocol = serve::protocol;
    const FuzzCase& fc = ctx.fuzz_case;

    // Child spans split the check's time: the second image, the
    // direct reconstructions, daemon start and stop, socket round trips.
    obs::Span image_span("fuzz.serve.other_image");
    // A second, structurally different image for the shared wave.
    GeneratorSpec other_spec = fc.spec;
    other_spec.seed = fc.spec.seed * 2654435761u + 1;
    toyc::CompileResult other = toyc::compile(
        corpus::generate_program(other_spec), ctx.config.compile);

    std::vector<std::uint8_t> bytes_a =
        bir::save_image(fc.compiled.image);
    std::vector<std::uint8_t> bytes_b =
        bir::save_image(other.image);
    image_span.end();
    obs::Span direct_span("fuzz.serve.direct");
    std::string expected_a = serve::submit_response_text(
        fc.compiled.image, ctx.config.rock);
    std::string expected_b =
        serve::submit_response_text(other.image, ctx.config.rock);
    direct_span.end();

    static std::atomic<unsigned> socket_serial{0};
    serve::ServerOptions options;
    options.socket_path =
        "/tmp/rock_fuzz_serve_" + std::to_string(::getpid()) + "_" +
        std::to_string(socket_serial.fetch_add(1)) + ".sock";
    options.rock = ctx.config.rock;
    options.threads = 2;
    // Every wave is a pipelined pair: it seals the moment its second
    // frame is queued. The window is a backstop no passing run reaches.
    options.batch_max = 2;
    options.batch_window_ms = 60000;
    options.collapse_dedup_for_testing =
        ctx.config.hooks.serve_collapse_dedup;
    obs::Span start_span("fuzz.serve.daemon_start");
    serve::Server server(options);
    server.start();
    start_span.end();

    OracleVerdict verdict = pass();
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                  options.socket_path.c_str());
    if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                            sizeof(addr)) != 0) {
        verdict = fail("cannot connect to the in-process daemon");
    } else {
        // Submits ids `first` and `first + 1` back to back (one wave)
        // and reads both answers into `responses`.
        std::map<std::int64_t, std::string> responses;
        auto submit_pair = [&](std::int64_t first,
                               const std::vector<std::uint8_t>& x,
                               const std::vector<std::uint8_t>& y) {
            obs::Span roundtrip_span("fuzz.serve.roundtrip");
            protocol::write_frame(
                fd, protocol::request_header(first, "submit"),
                x.data(), x.size());
            protocol::write_frame(
                fd, protocol::request_header(first + 1, "submit"),
                y.data(), y.size());
            for (int i = 0; i < 2 && verdict.ok; ++i) {
                protocol::Frame frame;
                protocol::Response response;
                if (protocol::read_frame(fd, &frame) !=
                        protocol::WireStatus::Ok ||
                    !protocol::parse_response_header(frame.header,
                                                     &response))
                    verdict = fail("daemon response unreadable");
                else if (response.code != protocol::Code::Ok)
                    verdict = fail(support::format(
                        "daemon rejected submit %lld: %s",
                        static_cast<long long>(response.id),
                        protocol::code_name(response.code)));
                else
                    responses[response.id] =
                        std::string(frame.payload.begin(),
                                    frame.payload.end());
            }
        };

        // Two different images: one wave, two dedup groups.
        submit_pair(1, bytes_a, bytes_b);
        if (verdict.ok && responses[1] != expected_a)
            verdict = fail("daemon response for image A differs "
                           "from a direct reconstruction");
        if (verdict.ok && responses[2] != expected_b)
            verdict = fail("daemon response for image B differs "
                           "from a direct reconstruction");

        // Image A twice: one warm group fanned out to both ids, still
        // the same bytes.
        if (verdict.ok) {
            std::uint64_t hits_before = server.store()->stats().hits;
            submit_pair(3, bytes_a, bytes_a);
            if (verdict.ok &&
                (responses[3] != expected_a || responses[4] != expected_a))
                verdict = fail("resubmission returned different "
                               "bytes than the first submission");
            else if (verdict.ok &&
                     server.store()->stats().hits <= hits_before)
                verdict =
                    fail("resubmission did not hit the shared "
                         "artifact store");
        }
    }
    obs::Span stop_span("fuzz.serve.daemon_stop");
    if (fd >= 0)
        ::close(fd);
    server.request_shutdown();
    server.wait();
    return verdict;
}

OracleVerdict
check_classify_deterministic(const OracleContext& ctx)
{
    const FuzzCase& fc = ctx.fuzz_case;
    int checked = 0;
    for (const auto& [vtable, tracelets] :
         fc.result.analysis.type_tracelets) {
        if (tracelets.empty())
            continue;
        std::vector<analysis::Tracelet> probe(
            tracelets.begin(),
            tracelets.begin() +
                static_cast<long>(std::min<std::size_t>(
                    2, tracelets.size())));
        auto first = core::classify_tracelets(fc.result, probe);
        auto second = core::classify_tracelets(fc.result, probe);
        if (first.size() != second.size())
            return fail("classification sizes differ across runs");
        if (first.size() !=
            fc.result.structural.types.size())
            return fail(support::format(
                "classification of %s ranked %zu of %zu types",
                support::hex(vtable).c_str(), first.size(),
                fc.result.structural.types.size()));
        for (std::size_t i = 0; i < first.size(); ++i) {
            if (first[i].vtable_addr != second[i].vtable_addr ||
                first[i].score != second[i].score)
                return fail("classification is not deterministic");
            if (i > 0 && first[i - 1].score < first[i].score)
                return fail("classification scores not descending");
            if (!std::isfinite(first[i].score))
                return fail("classification produced a non-finite "
                            "score");
        }
        if (++checked >= 3)
            break;
    }
    return pass();
}

} // namespace

const std::vector<Oracle>&
oracle_registry()
{
    static const std::vector<Oracle> registry = {
        {"forced-parents",
         "rule-3 ctor evidence is honored by the selected forest and "
         "every surviving alternative",
         check_forced_parents},
        {"structure",
         "acyclicity, parent feasibility, family discipline, "
         "Heuristic 4.1 and type coverage of a single run",
         check_structure},
        {"sound-elimination",
         "structural pruning never eliminates the ground-truth "
         "parent (checked via the compiler side channel)",
         check_sound_elimination},
        {"rename-stable",
         "class/method/function renaming changes neither the "
         "stripped image nor the reconstructed forest",
         check_rename_stable},
        {"permute-stable",
         "declaration-order permutation preserves families, feasible "
         "sets, forced edges and the forest up to near-ties",
         check_permute_stable},
        {"extend-stable",
         "appending an unrelated inheritance tree does not perturb "
         "existing families",
         check_extend_stable},
        {"threads-differential",
         "serial and multi-threaded reconstructions are "
         "bit-identical",
         check_threads_differential},
        {"serialize-differential",
         "VMI serialize -> deserialize -> reconstruct is "
         "bit-identical",
         check_serialize_differential},
        {"rockcheck",
         "compiled images are verifier-clean; targeted opcode, "
         "register, jump and vtable corruptions trip the matching "
         "diagnostic",
         check_rockcheck},
        {"typeinf-consistent",
         "subtype inference is inconsistency-free on compiled "
         "images, sound against ground truth, stable under "
         "rename/permute, and reproducible by direct re-inference",
         check_typeinf_consistent},
        {"vm-differential",
         "concrete execution under rockvm never traps on compiled "
         "images and every dynamically witnessed typed tracelet is "
         "in the static set (dynamic ⊆ static)",
         check_vm_differential},
        {"relaxed-consistent",
         "k-parent relaxation reproduces the strict hierarchy at k=1 "
         "and only adds feasible, acyclic extra parents",
         check_relaxed_consistent},
        {"classify-deterministic",
         "type classification is deterministic, total and ranked by "
         "finite descending scores",
         check_classify_deterministic},
        {"cache-consistent",
         "a warm artifact-cache reconstruction is bit-identical to "
         "the cold and uncached runs, actually hits the cache, and "
         "replays every counter outside cache.*",
         check_cache_consistent},
        {"serve-differential",
         "rockd responses are bit-identical to direct "
         "reconstruction, for distinct images sharing one analysis "
         "wave and for warm resubmissions out of the shared store",
         check_serve_differential},
    };
    return registry;
}

const Oracle*
find_oracle(const std::string& name)
{
    for (const auto& oracle : oracle_registry()) {
        if (oracle.name == name)
            return &oracle;
    }
    return nullptr;
}

} // namespace rock::fuzz
