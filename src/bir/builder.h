/**
 * @file
 * Two-phase construction of BinaryImages.
 *
 * Code generation cannot know final addresses while emitting (functions
 * call functions defined later; constructors store vtable addresses that
 * are laid out after all code). The builder therefore records symbolic
 * references (function / vtable ids, local labels) and patches them
 * during link(), exactly like a linker resolving relocations.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bir/image.h"
#include "bir/isa.h"

namespace rock::bir {

/** Identifies a declared function within one ImageBuilder. */
using FuncId = std::uint32_t;

/** Identifies a declared vtable within one ImageBuilder. */
using VtId = std::uint32_t;

/** Kinds of symbolic immediate operands awaiting relocation. */
enum class SymKind : std::uint8_t {
    None,       ///< imm is final
    FuncAddr,   ///< imm := address of function id
    VTableAddr, ///< imm := address of vtable id
    Label,      ///< imm := address of local label (branch target)
};

/** An instruction whose immediate may be a symbolic reference. */
struct AsmInstr {
    Instr instr;
    SymKind sym = SymKind::None;
    std::uint32_t sym_id = 0;
};

/**
 * Streams the body of one function, with local labels for branches.
 *
 * Typical use:
 * @code
 *   FunctionBuilder fb;
 *   int skip = fb.new_label();
 *   fb.getarg(0, 0);
 *   fb.jz(0, skip);
 *   ...
 *   fb.bind(skip);
 *   fb.ret();
 * @endcode
 */
class FunctionBuilder {
  public:
    /** Allocate a fresh local label. */
    int new_label();

    /** Bind @p label to the next emitted instruction. */
    void bind(int label);

    void nop();
    void movi(int a, std::uint32_t imm);
    /** movi whose immediate is the final address of function @p f. */
    void movi_func(int a, FuncId f);
    /** movi whose immediate is the final address of vtable @p v. */
    void movi_vtable(int a, VtId v);
    void mov(int a, int b);
    void load(int a, int b, std::int32_t off);
    void store(int a, std::int32_t off, int b);
    void add(int a, int b, std::int32_t imm);
    /** Direct call to declared function @p f. */
    void call(FuncId f);
    /** Direct call to a fixed address (runtime stubs). */
    void call_addr(std::uint32_t addr);
    void icall(int a);
    void setarg(int slot, int r);
    void getarg(int r, int slot);
    void getret(int r);
    void retval(int r);
    void ret();
    void jmp(int label);
    void jnz(int r, int label);
    void jz(int r, int label);

    /**
     * Validate that every referenced label is bound and return the
     * body with each Label reference resolved to its target
     * *instruction index* (the linker converts indices to addresses).
     */
    std::vector<AsmInstr> finish() const;

    /** Number of instructions emitted so far. */
    std::size_t size() const { return items_.size(); }

  private:
    void emit(Op op, int a, int b, int c, std::uint32_t imm,
              SymKind sym = SymKind::None, std::uint32_t sym_id = 0);

    std::vector<AsmInstr> items_;
    /// label -> instruction index (once bound)
    std::vector<std::int64_t> labels_;
};

/** Options controlling the final link step. */
struct LinkOptions {
    /** Drop all symbol names from the image (a stripped binary). */
    bool strip_symbols = true;
    /** Emit RTTI records and vtable back-pointers to them. */
    bool emit_rtti = false;
};

/**
 * Accumulates functions and vtables, then links them into a
 * BinaryImage.
 */
class ImageBuilder {
  public:
    /** Declare a function; its body may be defined later. */
    FuncId declare_function(const std::string& name);

    /** Attach @p body to @p id. A body may be defined only once. */
    void define_function(FuncId id, FunctionBuilder body);

    /** Declare a vtable of @p num_slots entries named @p name. */
    VtId add_vtable(const std::string& name, std::size_t num_slots);

    /** Point slot @p index of @p vt at function @p f. */
    void set_slot(VtId vt, std::size_t index, FuncId f);

    /** Point slot @p index of @p vt at the _purecall stub. */
    void set_slot_pure(VtId vt, std::size_t index);

    /**
     * Record the ancestor chain of @p vt (self first, root last) for
     * RTTI emission. Chains refer only to vtables that exist in the
     * image, matching what real RTTI records describe post-
     * optimization.
     */
    void set_rtti_chain(VtId vt, std::vector<VtId> chain_self_first);

    /**
     * Merge functions with byte-identical bodies (identical-COMDAT
     * folding), redirecting all call sites and vtable slots to one
     * representative. Runs to a fixpoint, as folding callees can make
     * callers identical. This is the optimization the paper names as
     * error source 1 (shared pointers across unrelated types).
     *
     * @return number of functions removed.
     */
    std::size_t fold_identical_functions();

    /**
     * Lay out code and data, resolve all symbolic references, and
     * produce the image. May be called once.
     */
    BinaryImage link(const LinkOptions& opts);

    /** Final address of function @p id. Valid only after link(). */
    std::uint32_t func_addr(FuncId id) const;

    /** Final address of vtable @p id. Valid only after link(). */
    std::uint32_t vtable_addr(VtId id) const;

  private:
    /// A vtable slot before relocation.
    struct Slot {
        bool pure = false;
        FuncId func = 0;
        bool set = false;
    };

    struct PendingFunction {
        std::string name;
        std::vector<AsmInstr> body;
        bool defined = false;
        /// after folding, a dropped function forwards here
        FuncId canonical;
        std::uint32_t addr = 0;
    };

    struct PendingVTable {
        std::string name;
        std::vector<Slot> slots;
        std::vector<VtId> rtti_chain;
        std::uint32_t addr = 0;
    };

    FuncId resolve_alias(FuncId id) const;

    std::vector<PendingFunction> functions_;
    std::vector<PendingVTable> vtables_;
    bool linked_ = false;
};

} // namespace rock::bir
