#include "bir/builder.h"

#include <algorithm>

#include "support/error.h"
#include "support/str.h"

namespace rock::bir {

using support::panic;

// ---------------------------------------------------------------------
// FunctionBuilder
// ---------------------------------------------------------------------

int
FunctionBuilder::new_label()
{
    labels_.push_back(-1);
    return static_cast<int>(labels_.size()) - 1;
}

void
FunctionBuilder::bind(int label)
{
    ROCK_ASSERT(label >= 0 &&
                label < static_cast<int>(labels_.size()),
                "unknown label");
    ROCK_ASSERT(labels_[label] < 0, "label bound twice");
    labels_[label] = static_cast<std::int64_t>(items_.size());
}

void
FunctionBuilder::emit(Op op, int a, int b, int c, std::uint32_t imm,
                      SymKind sym, std::uint32_t sym_id)
{
    AsmInstr ai;
    ai.instr.op = op;
    ai.instr.a = static_cast<std::uint8_t>(a);
    ai.instr.b = static_cast<std::uint8_t>(b);
    ai.instr.c = static_cast<std::uint8_t>(c);
    ai.instr.imm = imm;
    ai.sym = sym;
    ai.sym_id = sym_id;
    items_.push_back(ai);
}

void FunctionBuilder::nop() { emit(Op::Nop, 0, 0, 0, 0); }

void
FunctionBuilder::movi(int a, std::uint32_t imm)
{
    emit(Op::MovImm, a, 0, 0, imm);
}

void
FunctionBuilder::movi_func(int a, FuncId f)
{
    emit(Op::MovImm, a, 0, 0, 0, SymKind::FuncAddr, f);
}

void
FunctionBuilder::movi_vtable(int a, VtId v)
{
    emit(Op::MovImm, a, 0, 0, 0, SymKind::VTableAddr, v);
}

void FunctionBuilder::mov(int a, int b) { emit(Op::MovReg, a, b, 0, 0); }

void
FunctionBuilder::load(int a, int b, std::int32_t off)
{
    emit(Op::Load, a, b, 0, static_cast<std::uint32_t>(off));
}

void
FunctionBuilder::store(int a, std::int32_t off, int b)
{
    emit(Op::Store, a, b, 0, static_cast<std::uint32_t>(off));
}

void
FunctionBuilder::add(int a, int b, std::int32_t imm)
{
    emit(Op::AddImm, a, b, 0, static_cast<std::uint32_t>(imm));
}

void
FunctionBuilder::call(FuncId f)
{
    emit(Op::Call, 0, 0, 0, 0, SymKind::FuncAddr, f);
}

void
FunctionBuilder::call_addr(std::uint32_t addr)
{
    emit(Op::Call, 0, 0, 0, addr);
}

void FunctionBuilder::icall(int a) { emit(Op::CallInd, a, 0, 0, 0); }

void
FunctionBuilder::setarg(int slot, int r)
{
    emit(Op::SetArg, slot, r, 0, 0);
}

void
FunctionBuilder::getarg(int r, int slot)
{
    emit(Op::GetArg, r, slot, 0, 0);
}

void FunctionBuilder::getret(int r) { emit(Op::GetRet, r, 0, 0, 0); }
void FunctionBuilder::retval(int r) { emit(Op::RetVal, r, 0, 0, 0); }
void FunctionBuilder::ret() { emit(Op::Ret, 0, 0, 0, 0); }

void
FunctionBuilder::jmp(int label)
{
    emit(Op::Jmp, 0, 0, 0, static_cast<std::uint32_t>(label),
         SymKind::Label, static_cast<std::uint32_t>(label));
}

void
FunctionBuilder::jnz(int r, int label)
{
    emit(Op::Jnz, r, 0, 0, static_cast<std::uint32_t>(label),
         SymKind::Label, static_cast<std::uint32_t>(label));
}

void
FunctionBuilder::jz(int r, int label)
{
    emit(Op::Jz, r, 0, 0, static_cast<std::uint32_t>(label),
         SymKind::Label, static_cast<std::uint32_t>(label));
}

std::vector<AsmInstr>
FunctionBuilder::finish() const
{
    std::vector<AsmInstr> out = items_;
    for (auto& ai : out) {
        if (ai.sym != SymKind::Label)
            continue;
        ROCK_ASSERT(ai.sym_id < labels_.size(), "unknown label");
        std::int64_t index = labels_[ai.sym_id];
        ROCK_ASSERT(index >= 0, "branch to unbound label");
        ai.instr.imm = static_cast<std::uint32_t>(index);
    }
    return out;
}

// ---------------------------------------------------------------------
// ImageBuilder
// ---------------------------------------------------------------------

FuncId
ImageBuilder::declare_function(const std::string& name)
{
    PendingFunction fn;
    fn.name = name;
    fn.canonical = static_cast<FuncId>(functions_.size());
    functions_.push_back(std::move(fn));
    return static_cast<FuncId>(functions_.size()) - 1;
}

void
ImageBuilder::define_function(FuncId id, FunctionBuilder body)
{
    ROCK_ASSERT(id < functions_.size(), "unknown function id");
    ROCK_ASSERT(!functions_[id].defined, "function defined twice");
    functions_[id].body = body.finish();
    functions_[id].defined = true;
}

VtId
ImageBuilder::add_vtable(const std::string& name, std::size_t num_slots)
{
    PendingVTable vt;
    vt.name = name;
    vt.slots.resize(num_slots);
    vtables_.push_back(std::move(vt));
    return static_cast<VtId>(vtables_.size()) - 1;
}

void
ImageBuilder::set_slot(VtId vt, std::size_t index, FuncId f)
{
    ROCK_ASSERT(vt < vtables_.size(), "unknown vtable id");
    ROCK_ASSERT(index < vtables_[vt].slots.size(), "slot out of range");
    ROCK_ASSERT(f < functions_.size(), "unknown function id");
    vtables_[vt].slots[index] = Slot{false, f, true};
}

void
ImageBuilder::set_slot_pure(VtId vt, std::size_t index)
{
    ROCK_ASSERT(vt < vtables_.size(), "unknown vtable id");
    ROCK_ASSERT(index < vtables_[vt].slots.size(), "slot out of range");
    vtables_[vt].slots[index] = Slot{true, 0, true};
}

void
ImageBuilder::set_rtti_chain(VtId vt, std::vector<VtId> chain_self_first)
{
    ROCK_ASSERT(vt < vtables_.size(), "unknown vtable id");
    vtables_[vt].rtti_chain = std::move(chain_self_first);
}

FuncId
ImageBuilder::resolve_alias(FuncId id) const
{
    while (functions_[id].canonical != id)
        id = functions_[id].canonical;
    return id;
}

std::size_t
ImageBuilder::fold_identical_functions()
{
    std::size_t removed = 0;
    bool changed = true;
    while (changed) {
        changed = false;
        // Group by canonicalized body.
        std::map<std::string, FuncId> seen;
        for (std::size_t i = 0; i < functions_.size(); ++i) {
            FuncId id = static_cast<FuncId>(i);
            if (resolve_alias(id) != id || !functions_[i].defined)
                continue;
            // Serialize the body with call targets canonicalized so
            // calls to folded callees compare equal.
            std::string key;
            key.reserve(functions_[i].body.size() * 12);
            for (const auto& ai : functions_[i].body) {
                AsmInstr canon = ai;
                if (canon.sym == SymKind::FuncAddr)
                    canon.sym_id = resolve_alias(canon.sym_id);
                key.append(reinterpret_cast<const char*>(&canon.instr),
                           sizeof(canon.instr));
                key.push_back(static_cast<char>(canon.sym));
                key.append(reinterpret_cast<const char*>(&canon.sym_id),
                           sizeof(canon.sym_id));
            }
            auto [it, inserted] = seen.emplace(key, id);
            if (!inserted) {
                functions_[i].canonical = it->second;
                ++removed;
                changed = true;
            }
        }
    }
    return removed;
}

BinaryImage
ImageBuilder::link(const LinkOptions& opts)
{
    ROCK_ASSERT(!linked_, "link() called twice");
    linked_ = true;

    BinaryImage img;

    // --- lay out code ---------------------------------------------------
    std::uint32_t addr = img.code_base;
    for (std::size_t i = 0; i < functions_.size(); ++i) {
        auto& fn = functions_[i];
        if (resolve_alias(static_cast<FuncId>(i)) !=
            static_cast<FuncId>(i)) {
            continue;
        }
        if (!fn.defined) {
            support::fatal("function '" + fn.name +
                           "' declared but never defined");
        }
        fn.addr = addr;
        addr += static_cast<std::uint32_t>(fn.body.size()) * kInstrSize;
    }
    // Propagate addresses through aliases.
    for (std::size_t i = 0; i < functions_.size(); ++i) {
        FuncId canon = resolve_alias(static_cast<FuncId>(i));
        functions_[i].addr = functions_[canon].addr;
    }

    // --- lay out data: vtables first ------------------------------------
    // Layout per vtable: [rtti_ptr][slot0][slot1]... ; the vtable
    // address is the address of slot0 (MSVC-style complete-object
    // locator at offset -4).
    std::uint32_t daddr = img.data_base;
    for (auto& vt : vtables_) {
        daddr += kWordSize; // rtti back-pointer
        vt.addr = daddr;
        daddr += static_cast<std::uint32_t>(vt.slots.size()) * kWordSize;
    }

    // --- emit code with relocations --------------------------------------
    for (std::size_t i = 0; i < functions_.size(); ++i) {
        const auto& fn = functions_[i];
        if (resolve_alias(static_cast<FuncId>(i)) !=
            static_cast<FuncId>(i)) {
            continue;
        }
        for (const auto& ai : fn.body) {
            Instr instr = ai.instr;
            switch (ai.sym) {
              case SymKind::None:
                break;
              case SymKind::FuncAddr:
                ROCK_ASSERT(ai.sym_id < functions_.size(),
                            "bad function reference");
                instr.imm = functions_[ai.sym_id].addr;
                break;
              case SymKind::VTableAddr:
                ROCK_ASSERT(ai.sym_id < vtables_.size(),
                            "bad vtable reference");
                instr.imm = vtables_[ai.sym_id].addr;
                break;
              case SymKind::Label:
                // imm currently holds the target instruction index
                // (resolved by FunctionBuilder at emission time).
                instr.imm = fn.addr + instr.imm * kInstrSize;
                break;
            }
            encode(instr, img.code);
        }
        img.functions.push_back(FunctionEntry{
            fn.addr,
            static_cast<std::uint32_t>(fn.body.size()) * kInstrSize});
        if (!opts.strip_symbols)
            img.symbols[fn.addr] = fn.name;
    }
    std::sort(img.functions.begin(), img.functions.end(),
              [](const FunctionEntry& x, const FunctionEntry& y) {
                  return x.addr < y.addr;
              });

    // --- emit data -------------------------------------------------------
    auto put_word = [&img](std::uint32_t value) {
        img.data.push_back(static_cast<std::uint8_t>(value & 0xff));
        img.data.push_back(static_cast<std::uint8_t>((value >> 8) & 0xff));
        img.data.push_back(static_cast<std::uint8_t>((value >> 16) & 0xff));
        img.data.push_back(static_cast<std::uint8_t>((value >> 24) & 0xff));
    };

    // vtables (rtti back-pointers patched afterwards)
    std::vector<std::size_t> rtti_slot_offsets;
    for (const auto& vt : vtables_) {
        rtti_slot_offsets.push_back(img.data.size());
        put_word(0); // rtti back-pointer placeholder
        for (std::size_t s = 0; s < vt.slots.size(); ++s) {
            const Slot& slot = vt.slots[s];
            if (!slot.set) {
                support::fatal("vtable '" + vt.name + "' slot " +
                               std::to_string(s) + " never set");
            }
            put_word(slot.pure ? kPurecallStub
                               : functions_[slot.func].addr);
        }
    }

    // RTTI records
    if (opts.emit_rtti) {
        img.has_rtti = true;
        for (std::size_t v = 0; v < vtables_.size(); ++v) {
            const auto& vt = vtables_[v];
            std::uint32_t rec_addr =
                img.data_base + static_cast<std::uint32_t>(img.data.size());
            // patch the back-pointer
            std::size_t off = rtti_slot_offsets[v];
            img.data[off] = static_cast<std::uint8_t>(rec_addr & 0xff);
            img.data[off + 1] =
                static_cast<std::uint8_t>((rec_addr >> 8) & 0xff);
            img.data[off + 2] =
                static_cast<std::uint8_t>((rec_addr >> 16) & 0xff);
            img.data[off + 3] =
                static_cast<std::uint8_t>((rec_addr >> 24) & 0xff);

            put_word(kRttiMagic);
            put_word(vt.addr);
            put_word(static_cast<std::uint32_t>(vt.name.size()));
            for (char c : vt.name)
                img.data.push_back(static_cast<std::uint8_t>(c));
            while (img.data.size() % kWordSize != 0)
                img.data.push_back(0);
            put_word(static_cast<std::uint32_t>(vt.rtti_chain.size()));
            for (VtId anc : vt.rtti_chain) {
                ROCK_ASSERT(anc < vtables_.size(), "bad rtti ancestor");
                put_word(vtables_[anc].addr);
            }
        }
        if (!opts.strip_symbols) {
            for (const auto& vt : vtables_)
                img.symbols[vt.addr] = "vtable_" + vt.name;
        }
    }

    return img;
}

std::uint32_t
ImageBuilder::func_addr(FuncId id) const
{
    ROCK_ASSERT(linked_, "func_addr() before link()");
    ROCK_ASSERT(id < functions_.size(), "unknown function id");
    return functions_[id].addr;
}

std::uint32_t
ImageBuilder::vtable_addr(VtId id) const
{
    ROCK_ASSERT(linked_, "vtable_addr() before link()");
    ROCK_ASSERT(id < vtables_.size(), "unknown vtable id");
    return vtables_[id].addr;
}

} // namespace rock::bir
