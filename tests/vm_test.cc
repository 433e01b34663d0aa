/**
 * @file
 * Tests for the rockvm interpreter (src/vm/).
 *
 * One golden machine-state assertion per bir::Op on hand-assembled
 * images, one negative test per trap kind via targeted corruption,
 * shadow-mirror event goldens (ctor + dispatch emit the same events
 * symexec extracts), a determinism sweep (bit-identical across runs
 * and thread counts), and a schema round-trip of the tracelet JSONL
 * export.
 */
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>

#include "analysis/analyze.h"
#include "bir/builder.h"
#include "corpus/examples.h"
#include "obs/json.h"
#include "toyc/compiler.h"
#include "vm/coverage.h"
#include "vm/trace.h"
#include "vm/vm.h"

namespace {

using namespace rock;
using analysis::Event;
using analysis::EventKind;
using bir::FuncId;
using bir::FunctionBuilder;
using bir::ImageBuilder;
using bir::VtId;
using vm::Interpreter;
using vm::TrapKind;
using vm::VmConfig;
using vm::VmResult;

/** Link a single function into an image. */
bir::BinaryImage
single_function(FunctionBuilder fb)
{
    ImageBuilder ib;
    FuncId f = ib.declare_function("f");
    ib.define_function(f, std::move(fb));
    return ib.link({});
}

/** Run the only function of @p image with no vtables known. */
VmResult
run_single(const bir::BinaryImage& image, std::uint32_t opaque = 0)
{
    Interpreter interp(image, {}, {}, VmConfig{});
    return interp.run_entry(0, opaque);
}

VmResult
run_single(FunctionBuilder fb, std::uint32_t opaque = 0)
{
    return run_single(single_function(std::move(fb)), opaque);
}

std::uint64_t
ops(const VmResult& r, bir::Op op)
{
    return r.op_counts[static_cast<std::size_t>(op)];
}

/** Overwrite the opcode byte of the instruction at @p addr. */
void
patch_op(bir::BinaryImage& image, std::uint32_t addr, std::uint8_t op)
{
    image.code[addr - image.code_base] = op;
}

/** Overwrite the immediate of the instruction at @p addr. */
void
patch_imm(bir::BinaryImage& image, std::uint32_t addr,
          std::uint32_t imm)
{
    std::size_t off = addr - image.code_base;
    image.code[off + 4] = static_cast<std::uint8_t>(imm & 0xff);
    image.code[off + 5] = static_cast<std::uint8_t>((imm >> 8) & 0xff);
    image.code[off + 6] =
        static_cast<std::uint8_t>((imm >> 16) & 0xff);
    image.code[off + 7] =
        static_cast<std::uint8_t>((imm >> 24) & 0xff);
}

// ---- one golden machine-state assertion per opcode -----------------------

TEST(VmOps, NopExecutesAndFallsThrough)
{
    FunctionBuilder fb;
    fb.nop();
    fb.movi(0, 7);
    fb.retval(0);
    VmResult r = run_single(std::move(fb));
    EXPECT_EQ(r.entry_ret, 7u);
    EXPECT_EQ(ops(r, bir::Op::Nop), 1u);
    EXPECT_TRUE(r.traps.empty());
}

TEST(VmOps, MovImmLoadsConstant)
{
    FunctionBuilder fb;
    fb.movi(3, 0xdeadbeef);
    fb.retval(3);
    VmResult r = run_single(std::move(fb));
    EXPECT_EQ(r.entry_ret, 0xdeadbeefu);
}

TEST(VmOps, MovRegCopies)
{
    FunctionBuilder fb;
    fb.movi(1, 9);
    fb.mov(0, 1);
    fb.retval(0);
    VmResult r = run_single(std::move(fb));
    EXPECT_EQ(r.entry_ret, 9u);
    EXPECT_EQ(ops(r, bir::Op::MovReg), 1u);
}

TEST(VmOps, AddImmAddsSignedImmediate)
{
    FunctionBuilder fb;
    fb.movi(1, 44);
    fb.add(0, 1, -2);
    fb.retval(0);
    VmResult r = run_single(std::move(fb));
    EXPECT_EQ(r.entry_ret, 42u);
}

TEST(VmOps, StoreThenLoadRoundTripsThroughMemory)
{
    FunctionBuilder fb;
    fb.movi(0, 0x5000); // neither data nor heap: wild but writable
    fb.movi(1, 77);
    fb.store(0, 4, 1);
    fb.load(2, 0, 4);
    fb.retval(2);
    VmResult r = run_single(std::move(fb));
    EXPECT_EQ(r.entry_ret, 77u);
    EXPECT_EQ(r.stats.wild_writes, 1u);
    EXPECT_EQ(r.stats.wild_reads, 0u); // overlay hit
    EXPECT_EQ(ops(r, bir::Op::Load), 1u);
    EXPECT_EQ(ops(r, bir::Op::Store), 1u);
}

TEST(VmOps, AllocStubReturnsZeroedHeapMemory)
{
    FunctionBuilder fb;
    fb.movi(0, 16);
    fb.setarg(0, 0);
    fb.call_addr(bir::kAllocStub);
    fb.getret(1);
    fb.load(2, 1, 8); // untouched heap cell reads as 0
    fb.movi(3, 5);
    fb.store(1, 0, 3);
    fb.load(4, 1, 0);
    fb.retval(4);
    VmResult r = run_single(std::move(fb));
    EXPECT_EQ(r.entry_ret, 5u);
    EXPECT_EQ(r.stats.allocs, 1u);
    EXPECT_EQ(r.stats.wild_reads, 0u);
    EXPECT_EQ(r.stats.wild_writes, 0u);
}

TEST(VmOps, CallGetRetReturnsCalleeValue)
{
    ImageBuilder ib;
    FuncId main = ib.declare_function("main");
    FuncId leaf = ib.declare_function("leaf");
    FunctionBuilder fm;
    fm.call(leaf);
    fm.getret(0);
    fm.retval(0);
    ib.define_function(main, std::move(fm));
    FunctionBuilder fl;
    fl.movi(0, 123);
    fl.retval(0);
    ib.define_function(leaf, std::move(fl));
    bir::BinaryImage image = ib.link({});

    Interpreter interp(image, {}, {}, VmConfig{});
    std::size_t main_index =
        image.functions[0].addr == ib.func_addr(main) ? 0 : 1;
    VmResult r = interp.run_entry(main_index, 0);
    EXPECT_EQ(r.entry_ret, 123u);
    EXPECT_EQ(r.stats.calls, 1u);
    EXPECT_EQ(r.stats.frames, 2u);
    EXPECT_EQ(ops(r, bir::Op::Call), 1u);
    EXPECT_EQ(ops(r, bir::Op::GetRet), 1u);
}

TEST(VmOps, SetArgGetArgPassesValues)
{
    ImageBuilder ib;
    FuncId main = ib.declare_function("main");
    FuncId leaf = ib.declare_function("leaf");
    FunctionBuilder fm;
    fm.movi(1, 33);
    fm.setarg(2, 1);
    fm.call(leaf);
    fm.getret(0);
    fm.retval(0);
    ib.define_function(main, std::move(fm));
    FunctionBuilder fl;
    fl.getarg(0, 2);
    fl.retval(0);
    ib.define_function(leaf, std::move(fl));
    bir::BinaryImage image = ib.link({});

    Interpreter interp(image, {}, {}, VmConfig{});
    std::size_t main_index =
        image.functions[0].addr == ib.func_addr(main) ? 0 : 1;
    VmResult r = interp.run_entry(main_index, 0);
    EXPECT_EQ(r.entry_ret, 33u);
}

TEST(VmOps, CallIndReachesFunctionByAddress)
{
    ImageBuilder ib;
    FuncId main = ib.declare_function("main");
    FuncId leaf = ib.declare_function("leaf");
    FunctionBuilder fm;
    fm.movi_func(1, leaf);
    fm.icall(1);
    fm.getret(0);
    fm.retval(0);
    ib.define_function(main, std::move(fm));
    FunctionBuilder fl;
    fl.movi(0, 55);
    fl.retval(0);
    ib.define_function(leaf, std::move(fl));
    bir::BinaryImage image = ib.link({});

    Interpreter interp(image, {}, {}, VmConfig{});
    std::size_t main_index =
        image.functions[0].addr == ib.func_addr(main) ? 0 : 1;
    VmResult r = interp.run_entry(main_index, 0);
    EXPECT_EQ(r.entry_ret, 55u);
    EXPECT_EQ(ops(r, bir::Op::CallInd), 1u);
}

TEST(VmOps, RetProducesZeroReturnValue)
{
    FunctionBuilder fb;
    fb.movi(0, 9);
    fb.ret();
    VmResult r = run_single(std::move(fb));
    EXPECT_EQ(r.entry_ret, 0u);
    EXPECT_EQ(ops(r, bir::Op::Ret), 1u);
}

TEST(VmOps, JmpSkipsOverInstructions)
{
    FunctionBuilder fb;
    int skip = fb.new_label();
    fb.movi(0, 1);
    fb.jmp(skip);
    fb.movi(0, 2);
    fb.bind(skip);
    fb.retval(0);
    VmResult r = run_single(std::move(fb));
    EXPECT_EQ(r.entry_ret, 1u);
    EXPECT_EQ(ops(r, bir::Op::Jmp), 1u);
}

TEST(VmOps, JnzTakenOnNonZero)
{
    FunctionBuilder fb;
    int target = fb.new_label();
    fb.movi(0, 5);
    fb.movi(1, 1);
    fb.jnz(0, target);
    fb.movi(1, 2);
    fb.bind(target);
    fb.retval(1);
    VmResult r = run_single(std::move(fb));
    EXPECT_EQ(r.entry_ret, 1u);
}

TEST(VmOps, JzTakenOnZero)
{
    FunctionBuilder fb;
    int target = fb.new_label();
    fb.movi(0, 0);
    fb.movi(1, 1);
    fb.jz(0, target);
    fb.movi(1, 2);
    fb.bind(target);
    fb.retval(1);
    VmResult r = run_single(std::move(fb));
    EXPECT_EQ(r.entry_ret, 1u);
}

TEST(VmOps, GetArgOfUnsetEntrySlotYieldsOpaqueValue)
{
    FunctionBuilder fb;
    int target = fb.new_label();
    fb.getarg(0, 9); // entry slot nobody set
    fb.movi(1, 1);
    fb.jnz(0, target);
    fb.movi(1, 2);
    fb.bind(target);
    fb.retval(1);
    bir::BinaryImage image = single_function(std::move(fb));
    EXPECT_EQ(run_single(image, 1).entry_ret, 1u); // branch taken
    EXPECT_EQ(run_single(image, 0).entry_ret, 2u); // fall through
}

TEST(VmOps, BackwardLoopIsBoundedByBackjumpCap)
{
    // while (opaque) {} -- an unknown-cond backward branch. The
    // mirror takes it max_backjumps times, then forces fall-through
    // (symexec stops forking there, so running further would emit
    // events in windows the static side never explored).
    FunctionBuilder fb;
    int head = fb.new_label();
    fb.movi(1, 0);
    fb.bind(head);
    fb.getarg(0, 9);
    fb.add(1, 1, 1);
    fb.jnz(0, head);
    fb.retval(1);
    bir::BinaryImage image = single_function(std::move(fb));
    VmResult r = run_single(image, 1);
    // One initial pass + max_backjumps re-entries.
    EXPECT_EQ(r.entry_ret, 3u);
    EXPECT_EQ(r.stats.forced_fallthroughs, 1u);
    EXPECT_TRUE(r.traps.empty());
}

TEST(VmOps, FrameStepBudgetEndsFrameQuietly)
{
    // Constant-condition infinite loop: symexec follows it to its
    // per-path step cap and finishes the path; the VM mirrors that.
    FunctionBuilder fb;
    int head = fb.new_label();
    fb.movi(0, 1);
    fb.bind(head);
    fb.jnz(0, head);
    fb.retval(0);
    VmResult r = run_single(std::move(fb));
    EXPECT_TRUE(r.traps.empty());
    EXPECT_EQ(r.stats.frame_step_stops, 1u);
    EXPECT_EQ(r.stats.steps, static_cast<std::uint64_t>(
                                 VmConfig{}.symexec.max_steps));
}

TEST(VmOps, CallDepthCapSkipsCalleeQuietly)
{
    // f calls itself: recursion is cut at max_call_depth by skipping
    // the call (subset-safe), not by trapping.
    ImageBuilder ib;
    FuncId f = ib.declare_function("f");
    FunctionBuilder fb;
    fb.call(f);
    fb.getret(0);
    fb.retval(0);
    ib.define_function(f, std::move(fb));
    bir::BinaryImage image = ib.link({});
    VmResult r = run_single(image);
    EXPECT_TRUE(r.traps.empty());
    EXPECT_EQ(r.stats.depth_skips, 1u);
    EXPECT_EQ(r.stats.frames,
              static_cast<std::uint64_t>(VmConfig{}.max_call_depth));
}

// ---- one negative test per trap kind -------------------------------------

TEST(VmTraps, BadOpcode)
{
    FunctionBuilder fb;
    fb.ret();
    bir::BinaryImage image = single_function(std::move(fb));
    patch_op(image, image.functions[0].addr, 0xff);
    VmResult r = run_single(image);
    ASSERT_EQ(r.traps.size(), 1u);
    EXPECT_EQ(r.traps[0].kind, TrapKind::BadOpcode);
    EXPECT_EQ(r.traps[0].addr, image.functions[0].addr);
    EXPECT_EQ(r.traps[0].detail, 0xffu);
}

TEST(VmTraps, BadRegister)
{
    FunctionBuilder fb;
    fb.movi(0, 1);
    fb.ret();
    bir::BinaryImage image = single_function(std::move(fb));
    // movi's written register field `a` -> out of range.
    image.code[image.functions[0].addr - image.code_base + 1] = 0xff;
    VmResult r = run_single(image);
    ASSERT_EQ(r.traps.size(), 1u);
    EXPECT_EQ(r.traps[0].kind, TrapKind::BadRegister);
}

TEST(VmTraps, WildJump)
{
    FunctionBuilder fb;
    fb.nop();
    fb.ret();
    bir::BinaryImage image = single_function(std::move(fb));
    // Rewrite the nop into `jmp 0` -- target below the function.
    patch_op(image, image.functions[0].addr,
             static_cast<std::uint8_t>(bir::Op::Jmp));
    patch_imm(image, image.functions[0].addr, 0);
    VmResult r = run_single(image);
    ASSERT_EQ(r.traps.size(), 1u);
    EXPECT_EQ(r.traps[0].kind, TrapKind::WildJump);
    EXPECT_EQ(r.traps[0].detail, 0u);
}

TEST(VmTraps, WildCall)
{
    FunctionBuilder fb;
    fb.call_addr(0x5000); // no function, no stub
    fb.ret();
    VmResult r = run_single(std::move(fb));
    ASSERT_EQ(r.traps.size(), 1u);
    EXPECT_EQ(r.traps[0].kind, TrapKind::WildCall);
    EXPECT_EQ(r.traps[0].detail, 0x5000u);
}

TEST(VmTraps, CallIndNonEntry)
{
    FunctionBuilder fb;
    fb.movi(0, bir::kCodeBase + bir::kInstrSize); // mid-function addr
    fb.icall(0);
    fb.ret();
    VmResult r = run_single(std::move(fb));
    ASSERT_EQ(r.traps.size(), 1u);
    EXPECT_EQ(r.traps[0].kind, TrapKind::CallIndNonEntry);
}

TEST(VmTraps, OobVtableSlotThroughConstBase)
{
    ImageBuilder ib;
    FuncId m = ib.declare_function("method");
    FunctionBuilder fm;
    fm.ret();
    ib.define_function(m, std::move(fm));
    VtId vt = ib.add_vtable("V", 1);
    ib.set_slot(vt, 0, m);
    FuncId main = ib.declare_function("main");
    FunctionBuilder fb;
    fb.movi_vtable(0, vt);
    fb.movi(2, 0x5000);
    fb.store(2, 0, 0); // store-through-pointer: makes the scan see vt
    fb.load(1, 0, 8);  // slot 2 of a 1-slot vtable
    fb.ret();
    ib.define_function(main, std::move(fb));
    bir::BinaryImage image = ib.link({});

    auto analysis = analysis::analyze(image);
    Interpreter interp(image, analysis, VmConfig{});
    std::size_t main_index =
        image.functions[0].addr == ib.func_addr(main) ? 0 : 1;
    VmResult r = interp.run_entry(main_index, 0);
    ASSERT_EQ(r.traps.size(), 1u);
    EXPECT_EQ(r.traps[0].kind, TrapKind::OobVtableSlot);
    EXPECT_EQ(r.traps[0].detail, 2u);
}

TEST(VmTraps, OobVtableSlotThroughObjectVptr)
{
    ImageBuilder ib;
    FuncId m = ib.declare_function("method");
    FunctionBuilder fm;
    fm.ret();
    ib.define_function(m, std::move(fm));
    VtId vt = ib.add_vtable("V", 1);
    ib.set_slot(vt, 0, m);
    FuncId main = ib.declare_function("main");
    FunctionBuilder fb;
    fb.movi(0, 8);
    fb.setarg(0, 0);
    fb.call_addr(bir::kAllocStub);
    fb.getret(1);
    fb.movi_vtable(2, vt);
    fb.store(1, 0, 2); // vptr store
    fb.load(3, 1, 0);  // load vptr
    fb.load(4, 3, 8);  // dispatch read past the table end
    fb.ret();
    ib.define_function(main, std::move(fb));
    bir::BinaryImage image = ib.link({});

    auto analysis = analysis::analyze(image);
    Interpreter interp(image, analysis, VmConfig{});
    std::size_t main_index =
        image.functions[0].addr == ib.func_addr(main) ? 0 : 1;
    VmResult r = interp.run_entry(main_index, 0);
    ASSERT_EQ(r.traps.size(), 1u);
    EXPECT_EQ(r.traps[0].kind, TrapKind::OobVtableSlot);
}

TEST(VmTraps, Purecall)
{
    FunctionBuilder fb;
    fb.call_addr(bir::kPurecallStub);
    fb.ret();
    VmResult r = run_single(std::move(fb));
    ASSERT_EQ(r.traps.size(), 1u);
    EXPECT_EQ(r.traps[0].kind, TrapKind::Purecall);
}

TEST(VmTraps, TrapNamesAreStable)
{
    EXPECT_STREQ(vm::trap_name(TrapKind::BadOpcode), "bad-opcode");
    EXPECT_STREQ(vm::trap_name(TrapKind::BadRegister), "bad-register");
    EXPECT_STREQ(vm::trap_name(TrapKind::WildJump), "wild-jump");
    EXPECT_STREQ(vm::trap_name(TrapKind::WildCall), "wild-call");
    EXPECT_STREQ(vm::trap_name(TrapKind::CallIndNonEntry),
                 "callind-non-entry");
    EXPECT_STREQ(vm::trap_name(TrapKind::OobVtableSlot),
                 "oob-vtable-slot");
    EXPECT_STREQ(vm::trap_name(TrapKind::Purecall), "purecall");
}

// ---- shadow-mirror event goldens -----------------------------------------

TEST(VmEvents, CtorAndDispatchEmitTypedVirtCallTracelet)
{
    // new V; v->slot0(): alloc, vptr store, dispatch -- the canonical
    // typed-tracelet producer. The dispatch also concretely enters
    // the method.
    ImageBuilder ib;
    FuncId m = ib.declare_function("method");
    FunctionBuilder fm;
    fm.getarg(0, 0);
    fm.ret();
    ib.define_function(m, std::move(fm));
    VtId vt = ib.add_vtable("V", 1);
    ib.set_slot(vt, 0, m);
    FuncId main = ib.declare_function("main");
    FunctionBuilder fb;
    fb.movi(0, 8);
    fb.setarg(0, 0);
    fb.call_addr(bir::kAllocStub);
    fb.getret(1);
    fb.movi_vtable(2, vt);
    fb.store(1, 0, 2); // install vptr
    fb.load(3, 1, 0);  // load vptr
    fb.load(4, 3, 0);  // load slot 0
    fb.setarg(0, 1);   // this
    fb.icall(4);       // virtual dispatch
    fb.ret();
    ib.define_function(main, std::move(fb));
    bir::BinaryImage image = ib.link({});

    auto analysis = analysis::analyze(image);
    Interpreter interp(image, analysis, VmConfig{});
    std::size_t main_index = 0;
    for (std::size_t i = 0; i < image.functions.size(); ++i) {
        if (image.functions[i].addr == ib.func_addr(main))
            main_index = i;
    }
    VmResult r = interp.run_entry(main_index, 0);
    EXPECT_TRUE(r.traps.empty());
    std::uint32_t type = ib.vtable_addr(vt);
    ASSERT_EQ(r.type_tracelets.count(type), 1u);
    analysis::Tracelet expected{
        Event{EventKind::VirtCall, 0, 0}};
    EXPECT_EQ(r.type_tracelets.at(type).front(), expected);
    // The dispatch actually entered the method's frame.
    EXPECT_EQ(r.stats.calls, 1u);
    EXPECT_EQ(r.stats.frames, 2u);
}

TEST(VmEvents, NullVptrDispatchIsCountedSkipNotTrap)
{
    // A method run standalone dispatches through its synthesized
    // `this`, whose vptr was never initialized: the VirtCall event
    // still records, the concrete call is skipped.
    ImageBuilder ib;
    FuncId m = ib.declare_function("method");
    VtId vt = ib.add_vtable("V", 1);
    ib.set_slot(vt, 0, m);
    FunctionBuilder fm;
    fm.getarg(0, 0);
    fm.load(1, 0, 0); // load (null) vptr
    fm.load(2, 1, 0); // load slot 0
    fm.setarg(0, 0);
    fm.icall(2);
    fm.ret();
    ib.define_function(m, std::move(fm));
    // A ctor-like materialize+store of the vtable address so the
    // scan discovers it (and hence `method` is a this-callee).
    FuncId init = ib.declare_function("init");
    FunctionBuilder fi;
    fi.getarg(0, 0);
    fi.movi_vtable(1, vt);
    fi.store(0, 0, 1);
    fi.ret();
    ib.define_function(init, std::move(fi));
    bir::BinaryImage image = ib.link({});

    auto analysis = analysis::analyze(image);
    Interpreter interp(image, analysis, VmConfig{});
    VmResult r = interp.run_entry(0, 0);
    EXPECT_TRUE(r.traps.empty());
    EXPECT_EQ(r.stats.skipped_indirect, 1u);
    std::uint32_t type = ib.vtable_addr(vt);
    ASSERT_EQ(r.type_tracelets.count(type), 1u);
    analysis::Tracelet expected{
        Event{EventKind::VirtCall, 0, 0}};
    EXPECT_EQ(r.type_tracelets.at(type).front(), expected);
}

// ---- determinism ---------------------------------------------------------

TEST(VmDeterminism, BitIdenticalAcrossRunsAndThreadCounts)
{
    corpus::CorpusProgram prog = corpus::echoparams_program();
    toyc::CompileResult built =
        toyc::compile(prog.program, prog.options);
    auto analysis = analysis::analyze(built.image);
    Interpreter interp(built.image, analysis, VmConfig{});

    VmResult serial = interp.run_image(1);
    VmResult again = interp.run_image(1);
    VmResult two = interp.run_image(2);
    VmResult hw = interp.run_image(0);
    EXPECT_TRUE(serial == again);
    EXPECT_TRUE(serial == two);
    EXPECT_TRUE(serial == hw);
    EXPECT_GT(serial.stats.steps, 0u);
    EXPECT_GT(serial.coverage.size(), 0u);
}

// ---- coverage fingerprints -----------------------------------------------

TEST(VmCoverage, FingerprintsAreLayoutInsensitive)
{
    // Same structure, different layout: pad one image with an extra
    // function so every address moves. Block fingerprints of the
    // structurally identical function must coincide.
    auto build = [](bool pad) {
        ImageBuilder ib;
        if (pad) {
            FuncId p = ib.declare_function("pad");
            FunctionBuilder fp;
            fp.nop();
            fp.nop();
            fp.ret();
            ib.define_function(p, std::move(fp));
        }
        FuncId l = ib.declare_function("leaf");
        FunctionBuilder fl;
        fl.movi(0, 5);
        fl.retval(0);
        ib.define_function(l, std::move(fl));
        FuncId f = ib.declare_function("f");
        FunctionBuilder fb;
        fb.call(l); // address-bearing imm: normalized away
        fb.getret(0);
        fb.retval(0);
        ib.define_function(f, std::move(fb));
        return ib.link({});
    };
    bir::BinaryImage a = build(false);
    bir::BinaryImage b = build(true);
    ASSERT_NE(a.functions.size(), b.functions.size());

    auto fps = [](const bir::BinaryImage& image) {
        std::set<std::uint64_t> out;
        for (const auto& fn : image.functions) {
            cfg::Cfg cfg = cfg::build_cfg(image, fn);
            for (std::uint64_t fp :
                 vm::function_fingerprints(image, cfg))
                out.insert(fp);
        }
        return out;
    };
    std::set<std::uint64_t> fa = fps(a);
    std::set<std::uint64_t> fb_set = fps(b);
    // Every block of the unpadded image also exists in the padded one.
    for (std::uint64_t fp : fa)
        EXPECT_EQ(fb_set.count(fp), 1u) << "fingerprint moved";
    // And the pad function contributes something new.
    EXPECT_GT(fb_set.size(), fa.size());
}

TEST(VmCoverage, DifferentConstantsFingerprintDifferently)
{
    auto one = [](std::uint32_t k) {
        FunctionBuilder fb;
        fb.movi(0, k);
        fb.retval(0);
        bir::BinaryImage image = single_function(std::move(fb));
        cfg::Cfg cfg = cfg::build_cfg(image, image.functions[0]);
        return vm::function_fingerprints(image, cfg).at(0);
    };
    EXPECT_NE(one(7), one(8));
    EXPECT_EQ(one(7), one(7));
}

// ---- tracelet JSONL schema v1 --------------------------------------------

TEST(VmTrace, JsonlLineSpellsEveryEventKind)
{
    vm::TraceRecord rec;
    rec.entry = 0x1000;
    rec.opaque = 1;
    rec.type = 0x100010;
    rec.tracelet = {{EventKind::VirtCall, 2, 0},
                    {EventKind::ReadField, 4, 0},
                    {EventKind::WriteField, 8, 0},
                    {EventKind::PassedThis, 1, 0},
                    {EventKind::PassedArg, 0, 2},
                    {EventKind::Returned, 0, 0},
                    {EventKind::CallDirect, 0, 0x1040}};
    EXPECT_EQ(vm::to_jsonl(rec),
              "{\"rockvm_tracelet\":1,\"entry\":4096,\"opaque\":1,"
              "\"type\":1048592,\"events\":[[\"C\",2,0],[\"R\",4,0],"
              "[\"W\",8,0],[\"this\",1,0],[\"arg\",0,2],[\"ret\",0,0],"
              "[\"call\",0,4160]]}");
}

TEST(VmTrace, JsonlWholeImageTraceParsesAsSchemaV1)
{
    corpus::CorpusProgram prog = corpus::streams_program();
    toyc::CompileResult built =
        toyc::compile(prog.program, prog.options);
    auto analysis = analysis::analyze(built.image);
    Interpreter interp(built.image, analysis, VmConfig{});
    VmResult r = interp.run_image(1);
    ASSERT_FALSE(r.records.empty());

    const std::map<EventKind, std::string> codes = {
        {EventKind::VirtCall, "C"},   {EventKind::ReadField, "R"},
        {EventKind::WriteField, "W"}, {EventKind::PassedThis, "this"},
        {EventKind::PassedArg, "arg"}, {EventKind::Returned, "ret"},
        {EventKind::CallDirect, "call"}};
    std::istringstream lines(vm::to_jsonl(r));
    std::string line;
    std::size_t i = 0;
    while (std::getline(lines, line)) {
        ASSERT_LT(i, r.records.size());
        const vm::TraceRecord& rec = r.records[i++];
        obs::Json json = obs::Json::parse(line);
        ASSERT_TRUE(json.is_object());
        std::vector<std::string> keys;
        for (const auto& [key, value] : json.object)
            keys.push_back(key);
        EXPECT_EQ(keys, (std::vector<std::string>{"rockvm_tracelet",
                                                  "entry", "opaque",
                                                  "type", "events"}));
        EXPECT_EQ(json.find("rockvm_tracelet")->number, 1.0);
        EXPECT_EQ(json.find("entry")->number, rec.entry);
        EXPECT_EQ(json.find("opaque")->number, rec.opaque);
        EXPECT_EQ(json.find("type")->number, rec.type);
        const obs::Json& events = *json.find("events");
        ASSERT_EQ(events.array.size(), rec.tracelet.size());
        for (std::size_t k = 0; k < events.array.size(); ++k) {
            const Event& e = rec.tracelet[k];
            const auto& triple = events.array[k].array;
            ASSERT_EQ(triple.size(), 3u);
            EXPECT_EQ(triple[0].string, codes.at(e.kind));
            EXPECT_EQ(triple[1].number, e.index);
            EXPECT_EQ(triple[2].number, e.aux);
        }
    }
    EXPECT_EQ(i, r.records.size());
}

} // namespace
