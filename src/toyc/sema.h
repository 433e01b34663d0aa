/**
 * @file
 * Semantic analysis for toyc programs.
 *
 * Sema validates a Program and computes the compilation model the code
 * generator consumes:
 *
 *  - per-class vtable layouts. Each vtable-carrying subobject is a
 *    "branch": under single inheritance a class has exactly one branch
 *    (slot layout extends the parent's); under multiple inheritance the
 *    object is a concatenation of parent subobjects, each with its own
 *    vptr and vtable, MSVC-style (paper Section 5.3);
 *  - object layouts (vptr(s) + flattened fields) and sizes;
 *  - method resolution (method name -> branch + slot);
 *  - abstractness (a class with an unimplemented pure-virtual slot) and
 *    instantiation facts, which drive the optimizer's abstract-class
 *    elimination.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "toyc/ast.h"

namespace rock::toyc {

/** One vtable slot in a layout. */
struct VtableSlot {
    std::string method;     ///< method name
    std::string impl_class; ///< class defining the chosen implementation
    bool pure = false;      ///< traps to _purecall
};

/** A vtable-carrying subobject of a class. */
struct SubobjectBranch {
    /** Direct base this branch descends from; empty for a rootmost
     *  primary branch. */
    std::string base;
    /** Byte offset of this branch's vptr within the object. */
    std::uint32_t offset = 0;
    std::vector<VtableSlot> slots;
};

/** Everything codegen needs to know about one class. */
struct ClassLayout {
    const ClassDecl* decl = nullptr;
    /** All transitive ancestors, nearest first (BFS, deduplicated). */
    std::vector<std::string> ancestors;
    /** branches[0] is the primary subobject. */
    std::vector<SubobjectBranch> branches;
    /** Total object size in bytes (vptrs + all fields). */
    std::uint32_t size = 0;
    /**
     * Byte offset of each flattened field: inherited fields first (in
     * branch order), own fields last. Statement field indices index
     * this vector.
     */
    std::vector<std::uint32_t> field_offsets;
    /** True when some vtable slot is still pure. */
    bool abstract = false;
    /** method name -> (branch index, slot index); primary wins. */
    std::map<std::string, std::pair<int, int>> method_slots;
};

/** Validated program plus its compilation model. */
class Sema {
  public:
    /**
     * Analyze @p program. Throws support::FatalError on any semantic
     * error (unknown parents, inheritance cycles, bad statements,
     * instantiation of an abstract class, ...). The program must
     * outlive the Sema.
     */
    explicit Sema(const Program& program);

    const Program& program() const { return *program_; }

    /** Layout of @p cls. Fatal when unknown. */
    const ClassLayout& layout(const std::string& cls) const;

    /** Class names, parents before children. */
    const std::vector<std::string>& topo_order() const {
        return topo_order_;
    }

    /** Total flattened field count of @p cls. */
    std::size_t num_fields(const std::string& cls) const;

  private:
    void build_layouts();
    void validate_bodies();
    /** Validate @p body under the variable scope @p vars. */
    void validate_stmts(const std::vector<Stmt>& body,
                        std::map<std::string, std::string>& vars,
                        const std::string& context);

    const Program* program_;
    std::map<std::string, ClassLayout> layouts_;
    std::vector<std::string> topo_order_;
};

} // namespace rock::toyc
