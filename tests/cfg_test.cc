/**
 * @file
 * Tests for the static-analysis layer: CFG recovery, the dataflow
 * analyses, and the rockcheck verifier.
 *
 * Hand-crafted VM32 bodies pin the recovered structure (blocks,
 * edges, exact dataflow facts); crafted and
 * bit-flipped images pin every verifier diagnostic kind, and compiled
 * corpus programs pin the "toolchain output is clean" direction.
 */
#include <gtest/gtest.h>

#include <set>

#include "bir/builder.h"
#include "cfg/analyses.h"
#include "cfg/cfg.h"
#include "cfg/verify.h"
#include "corpus/examples.h"
#include "toyc/compiler.h"

namespace {

using namespace rock;
using namespace rock::cfg;
using bir::BinaryImage;
using bir::FuncId;
using bir::FunctionBuilder;
using bir::ImageBuilder;
using bir::kCodeBase;
using bir::kInstrSize;

/** Link a single function into an image. */
BinaryImage
single_function(FunctionBuilder fb)
{
    ImageBuilder ib;
    FuncId f = ib.declare_function("f");
    ib.define_function(f, std::move(fb));
    return ib.link({});
}

/** Overwrite the immediate of the instruction at @p addr. */
void
patch_imm(BinaryImage& image, std::uint32_t addr, std::uint32_t imm)
{
    std::size_t off = addr - image.code_base;
    image.code[off + 4] = static_cast<std::uint8_t>(imm & 0xff);
    image.code[off + 5] = static_cast<std::uint8_t>((imm >> 8) & 0xff);
    image.code[off + 6] = static_cast<std::uint8_t>((imm >> 16) & 0xff);
    image.code[off + 7] = static_cast<std::uint8_t>((imm >> 24) & 0xff);
}

std::set<DiagKind>
kinds(const std::vector<Diagnostic>& diags)
{
    std::set<DiagKind> out;
    for (const auto& d : diags)
        out.insert(d.kind);
    return out;
}

// ---------------------------------------------------------------------
// CFG recovery
// ---------------------------------------------------------------------

TEST(Cfg, StraightLineIsOneBlock)
{
    FunctionBuilder fb;
    fb.movi(2, 1);
    fb.add(2, 2, 4);
    fb.retval(2);
    BinaryImage img = single_function(std::move(fb));
    Cfg cfg = build_cfg(img, img.functions[0]);

    EXPECT_TRUE(cfg.well_formed());
    ASSERT_EQ(cfg.blocks.size(), 1u);
    EXPECT_EQ(cfg.blocks[0].start, kCodeBase);
    EXPECT_EQ(cfg.blocks[0].end, kCodeBase + 3 * kInstrSize);
    EXPECT_TRUE(cfg.blocks[0].succs.empty());
    EXPECT_EQ(cfg.reachable(), (std::vector<int>{0}));
    EXPECT_EQ(cfg.block_at(kCodeBase + kInstrSize), 0);
    EXPECT_EQ(cfg.block_at(kCodeBase + 3 * kInstrSize), -1);
}

/**
 * The diamond:
 *   B0: getarg r0; jz r0 -> B2
 *   B1: movi r2, 1; jmp -> B3
 *   B2: movi r2, 2        (fallthrough)
 *   B3: retval r2
 */
FunctionBuilder
diamond_body(std::uint32_t then_value, std::uint32_t else_value)
{
    FunctionBuilder fb;
    int l_else = fb.new_label();
    int l_join = fb.new_label();
    fb.getarg(0, 0);
    fb.jz(0, l_else);
    fb.movi(2, then_value);
    fb.jmp(l_join);
    fb.bind(l_else);
    fb.movi(2, else_value);
    fb.bind(l_join);
    fb.retval(2);
    return fb;
}

TEST(Cfg, DiamondBlocksAndEdges)
{
    BinaryImage img = single_function(diamond_body(1, 2));
    Cfg cfg = build_cfg(img, img.functions[0]);

    EXPECT_TRUE(cfg.well_formed());
    ASSERT_EQ(cfg.blocks.size(), 4u);
    EXPECT_EQ(cfg.blocks[0].first, 0);
    EXPECT_EQ(cfg.blocks[0].last, 2);
    EXPECT_EQ(cfg.blocks[0].succs, (std::vector<int>{1, 2}));
    EXPECT_EQ(cfg.blocks[1].succs, (std::vector<int>{3}));
    EXPECT_EQ(cfg.blocks[2].succs, (std::vector<int>{3}));
    EXPECT_TRUE(cfg.blocks[3].succs.empty());
    EXPECT_EQ(cfg.blocks[3].preds, (std::vector<int>{1, 2}));
    EXPECT_EQ(cfg.reachable(), (std::vector<int>{0, 1, 2, 3}));
}

/**
 * The loop:
 *   B0: movi r2, 3
 *   B1: jz r2 -> B3        (header)
 *   B2: add r2, r2, -1; jmp -> B1
 *   B3: ret
 */
FunctionBuilder
loop_body()
{
    FunctionBuilder fb;
    int l_head = fb.new_label();
    int l_exit = fb.new_label();
    fb.movi(2, 3);
    fb.bind(l_head);
    fb.jz(2, l_exit);
    fb.add(2, 2, static_cast<std::int32_t>(-1));
    fb.jmp(l_head);
    fb.bind(l_exit);
    fb.ret();
    return fb;
}

TEST(Cfg, LoopBlocksAndEdges)
{
    BinaryImage img = single_function(loop_body());
    Cfg cfg = build_cfg(img, img.functions[0]);

    ASSERT_EQ(cfg.blocks.size(), 4u);
    EXPECT_EQ(cfg.blocks[0].succs, (std::vector<int>{1}));
    EXPECT_EQ(cfg.blocks[1].succs, (std::vector<int>{2, 3}));
    EXPECT_EQ(cfg.blocks[2].succs, (std::vector<int>{1}));
    EXPECT_EQ(cfg.blocks[1].preds, (std::vector<int>{0, 2}));
}

TEST(Cfg, UnreachableTailIsRecoveredButFlagged)
{
    FunctionBuilder fb;
    fb.ret();
    fb.nop(); // fell off the end: unreachable tail
    fb.ret();
    BinaryImage img = single_function(std::move(fb));
    Cfg cfg = build_cfg(img, img.functions[0]);

    ASSERT_EQ(cfg.blocks.size(), 2u);
    EXPECT_EQ(cfg.reachable(), (std::vector<int>{0}));

    auto diags = verify_function(img, img.functions[0]);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].kind, DiagKind::UnreachableBlock);
    EXPECT_EQ(diags[0].addr, kCodeBase + kInstrSize);
}

TEST(Cfg, TruncatedBodyIsTotal)
{
    BinaryImage img;
    img.code.assign(kInstrSize + 4, 0); // ret + 4 stray bytes
    img.code[0] = static_cast<std::uint8_t>(bir::Op::Ret);
    img.functions.push_back({kCodeBase, kInstrSize + 4});
    Cfg cfg = build_cfg(img, img.functions[0]);

    EXPECT_TRUE(cfg.truncated);
    EXPECT_FALSE(cfg.well_formed());
    ASSERT_EQ(cfg.slots.size(), 1u);
    EXPECT_TRUE(
        kinds(verify_function(img, img.functions[0]))
            .count(DiagKind::Undecodable));
}

TEST(Cfg, JumpIntoTruncatedTailHasNoEdge)
{
    // jmp -> the 4 stray trailing bytes the function claims but the
    // CFG cannot materialize as a slot. The jump must contribute
    // neither a leader nor an edge (it used to produce a successor of
    // -1 and corrupt memory).
    BinaryImage img;
    bir::Instr jmp;
    jmp.op = bir::Op::Jmp;
    jmp.imm = kCodeBase + kInstrSize;
    bir::encode(jmp, img.code);
    img.code.resize(kInstrSize + 4, 0);
    img.functions.push_back({kCodeBase, kInstrSize + 4});

    Cfg cfg = build_cfg(img, img.functions[0]);
    EXPECT_TRUE(cfg.truncated);
    ASSERT_EQ(cfg.blocks.size(), 1u);
    EXPECT_TRUE(cfg.blocks[0].succs.empty());
    EXPECT_TRUE(
        kinds(verify_function(img, img.functions[0]))
            .count(DiagKind::Undecodable));
}

TEST(Cfg, JumpBeyondClampedBodyHasNoEdge)
{
    // The function claims 4 slots but the code section holds only 2;
    // a jump into the clamped-off region must not become a leader
    // (it used to index slots and slot_block out of bounds).
    BinaryImage img;
    bir::Instr jnz;
    jnz.op = bir::Op::Jnz;
    jnz.a = 0;
    jnz.imm = kCodeBase + 3 * kInstrSize;
    bir::encode(jnz, img.code);
    bir::Instr ret;
    ret.op = bir::Op::Ret;
    bir::encode(ret, img.code);
    img.functions.push_back({kCodeBase, 4 * kInstrSize});

    Cfg cfg = build_cfg(img, img.functions[0]);
    EXPECT_TRUE(cfg.truncated);
    ASSERT_EQ(cfg.blocks.size(), 2u);
    EXPECT_EQ(cfg.blocks[0].succs, (std::vector<int>{1}));

    auto diag_kinds = kinds(verify_function(img, img.functions[0]));
    EXPECT_TRUE(diag_kinds.count(DiagKind::Undecodable));
    EXPECT_TRUE(diag_kinds.count(DiagKind::TargetOutOfCode));
}

TEST(Verify, FunctionBelowCodeBaseIsDiagnosed)
{
    // load_image rejects such an entry, but in-memory callers (the
    // fuzzer, this test) may hand verify_function one; the slot below
    // code_base must yield a diagnostic, not a wrapped raw read.
    BinaryImage img;
    bir::Instr ret;
    ret.op = bir::Op::Ret;
    bir::encode(ret, img.code);
    bir::encode(ret, img.code);
    img.functions.push_back(
        {kCodeBase - kInstrSize, 2 * kInstrSize});

    auto diags = verify_function(img, img.functions[0]);
    EXPECT_TRUE(kinds(diags).count(DiagKind::Undecodable));
}

TEST(Cfg, DotListingHasClusters)
{
    BinaryImage img = single_function(diamond_body(1, 2));
    std::string dot = to_dot(img);
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    EXPECT_NE(dot.find("cluster"), std::string::npos);
    EXPECT_NE(dot.find("->"), std::string::npos);
}

// ---------------------------------------------------------------------
// Dataflow analyses
// ---------------------------------------------------------------------

TEST(Dataflow, ReachingDefsMergeAtJoin)
{
    BinaryImage img = single_function(diamond_body(1, 2));
    Cfg cfg = build_cfg(img, img.functions[0]);
    ReachingDefs rd = reaching_definitions(cfg);

    // Slot layout: 0 getarg, 1 jz, 2 movi, 3 jmp, 4 movi, 5 retval.
    EXPECT_EQ(rd.reaching(cfg, 1, 0), (std::set<int>{0}));
    EXPECT_EQ(rd.reaching(cfg, 5, 2), (std::set<int>{2, 4}));
    // r3 is never defined: only the entry pseudo-def reaches.
    EXPECT_EQ(rd.reaching(cfg, 5, 3), (std::set<int>{kUninitDef}));
}

TEST(Dataflow, ConstPropAcrossJoin)
{
    // Different constants on the two arms: the join loses them.
    BinaryImage img = single_function(diamond_body(1, 2));
    Cfg cfg = build_cfg(img, img.functions[0]);
    ConstProp cp = constant_propagation(cfg);
    EXPECT_EQ(cp.value_at(cfg, 5, 2).kind, ConstVal::NonConst);

    // Equal constants survive the join.
    BinaryImage same = single_function(diamond_body(7, 7));
    Cfg scfg = build_cfg(same, same.functions[0]);
    ConstProp scp = constant_propagation(scfg);
    EXPECT_EQ(scp.value_at(scfg, 5, 2), ConstVal::constant(7));
}

TEST(Dataflow, ConstPropThroughMovAndAdd)
{
    FunctionBuilder fb;
    fb.movi(1, 5);
    fb.mov(2, 1);
    fb.add(2, 2, 3);
    fb.retval(2);
    BinaryImage img = single_function(std::move(fb));
    Cfg cfg = build_cfg(img, img.functions[0]);
    ConstProp cp = constant_propagation(cfg);
    EXPECT_EQ(cp.value_at(cfg, 2, 2), ConstVal::constant(5));
    EXPECT_EQ(cp.value_at(cfg, 3, 2), ConstVal::constant(8));
    // Before its first definition a register is Undef.
    EXPECT_EQ(cp.value_at(cfg, 0, 1).kind, ConstVal::Undef);
}

// ---------------------------------------------------------------------
// Verifier: every diagnostic kind on a crafted negative
// ---------------------------------------------------------------------

TEST(Verify, CleanStraightLineFunction)
{
    FunctionBuilder fb;
    fb.movi(2, 1);
    fb.retval(2);
    BinaryImage img = single_function(std::move(fb));
    EXPECT_TRUE(verify_image(img).empty());
}

TEST(Verify, UndecodableOpcode)
{
    FunctionBuilder fb;
    fb.ret();
    BinaryImage img = single_function(std::move(fb));
    img.code[0] = 0xff;
    auto diags = verify_image(img);
    ASSERT_FALSE(diags.empty());
    EXPECT_EQ(diags[0].kind, DiagKind::Undecodable);
    EXPECT_EQ(diags[0].addr, kCodeBase);
}

TEST(Verify, BadRegisterField)
{
    FunctionBuilder fb;
    fb.movi(2, 1);
    fb.retval(2);
    BinaryImage img = single_function(std::move(fb));
    img.code[1] = 0x20; // movi destination field -> r32
    EXPECT_TRUE(kinds(verify_image(img)).count(DiagKind::BadRegister));
}

/** getarg r0; jz r0 -> next; ret -- the fallthrough keeps the exit
 *  reachable when the jump target is later corrupted. */
BinaryImage
patchable_jump_image()
{
    FunctionBuilder fb;
    int l = fb.new_label();
    fb.getarg(0, 0);
    fb.jz(0, l);
    fb.bind(l);
    fb.ret();
    return single_function(std::move(fb));
}

TEST(Verify, JumpTargetOutOfCode)
{
    BinaryImage img = patchable_jump_image();
    std::uint32_t jz_addr = kCodeBase + kInstrSize;
    patch_imm(img, jz_addr, 0); // address 0 is in no section
    auto diags = verify_image(img);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].kind, DiagKind::TargetOutOfCode);
    EXPECT_EQ(diags[0].addr, jz_addr);
}

TEST(Verify, JumpTargetMisaligned)
{
    BinaryImage img = patchable_jump_image();
    std::uint32_t jz_addr = kCodeBase + kInstrSize;
    patch_imm(img, jz_addr, kCodeBase + 1);
    auto diags = verify_image(img);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].kind, DiagKind::TargetMisaligned);
    EXPECT_EQ(diags[0].addr, jz_addr);
}

TEST(Verify, JumpEscapesFunction)
{
    ImageBuilder ib;
    FuncId f = ib.declare_function("f");
    FuncId g = ib.declare_function("g");
    {
        FunctionBuilder fb;
        int l = fb.new_label();
        fb.jmp(l);
        fb.bind(l);
        fb.ret();
        ib.define_function(f, std::move(fb));
    }
    {
        FunctionBuilder fb;
        fb.ret();
        ib.define_function(g, std::move(fb));
    }
    BinaryImage img = ib.link({});
    patch_imm(img, ib.func_addr(f), ib.func_addr(g));
    EXPECT_TRUE(kinds(verify_image(img))
                    .count(DiagKind::JumpEscapesFunction));
}

TEST(Verify, CallNotFunctionEntry)
{
    ImageBuilder ib;
    FuncId f = ib.declare_function("f");
    FuncId g = ib.declare_function("g");
    {
        FunctionBuilder fb;
        fb.call(g);
        fb.ret();
        ib.define_function(f, std::move(fb));
    }
    {
        FunctionBuilder fb;
        fb.nop();
        fb.ret();
        ib.define_function(g, std::move(fb));
    }
    BinaryImage img = ib.link({});
    // Retarget the call into the middle of g: aligned, in code, but
    // not an entry.
    patch_imm(img, ib.func_addr(f), ib.func_addr(g) + kInstrSize);
    EXPECT_EQ(kinds(verify_image(img)),
              (std::set<DiagKind>{DiagKind::CallNotFunctionEntry}));
}

TEST(Verify, CallThroughStubsIsClean)
{
    FunctionBuilder fb;
    fb.call_addr(bir::kAllocStub);
    fb.getret(1);
    fb.call_addr(bir::kPurecallStub);
    fb.retval(1);
    BinaryImage img = single_function(std::move(fb));
    EXPECT_TRUE(verify_image(img).empty());
}

TEST(Verify, CallIndThroughUndefinedRegister)
{
    FunctionBuilder fb;
    fb.icall(5); // r5 never defined anywhere
    fb.ret();
    BinaryImage img = single_function(std::move(fb));
    EXPECT_EQ(kinds(verify_image(img)),
              (std::set<DiagKind>{DiagKind::CallIndUndefined}));
}

TEST(Verify, CallIndProvablyNonEntry)
{
    FunctionBuilder fb;
    fb.movi(5, kCodeBase + 4); // constant, misaligned: no entry
    fb.icall(5);
    fb.ret();
    BinaryImage img = single_function(std::move(fb));
    EXPECT_EQ(kinds(verify_image(img)),
              (std::set<DiagKind>{DiagKind::CallIndUndefined}));
}

TEST(Verify, GetRetWithoutDominatingCall)
{
    FunctionBuilder fb;
    fb.getret(1);
    fb.retval(1);
    BinaryImage img = single_function(std::move(fb));
    EXPECT_EQ(kinds(verify_image(img)),
              (std::set<DiagKind>{DiagKind::GetRetNoCall}));
}

TEST(Verify, GetRetAfterCallOnOnePathOnly)
{
    // call on the then-arm only: the join's getret is not dominated
    // by a call.
    ImageBuilder ib;
    FuncId f = ib.declare_function("f");
    FuncId g = ib.declare_function("g");
    {
        FunctionBuilder fb;
        int l_join = fb.new_label();
        fb.getarg(0, 0);
        fb.jz(0, l_join);
        fb.call(g);
        fb.bind(l_join);
        fb.getret(1);
        fb.retval(1);
        ib.define_function(f, std::move(fb));
    }
    {
        FunctionBuilder fb;
        fb.ret();
        ib.define_function(g, std::move(fb));
    }
    BinaryImage img = ib.link({});
    EXPECT_EQ(kinds(verify_image(img)),
              (std::set<DiagKind>{DiagKind::GetRetNoCall}));
}

TEST(Verify, UseWithoutReachingDef)
{
    FunctionBuilder fb;
    fb.retval(3); // r3 never defined
    BinaryImage img = single_function(std::move(fb));
    auto diags = verify_image(img);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].kind, DiagKind::UseWithoutDef);
    EXPECT_EQ(diags[0].addr, kCodeBase);
}

TEST(Verify, DefOnEveryPathIsClean)
{
    // A register defined on both diamond arms is defined at the join.
    BinaryImage img = single_function(diamond_body(1, 2));
    EXPECT_TRUE(verify_image(img).empty());
}

TEST(Verify, VtableSlotInvalid)
{
    ImageBuilder ib;
    FuncId f = ib.declare_function("ctor");
    bir::VtId vt = ib.add_vtable("T", 1);
    ib.set_slot(vt, 0, f);
    {
        FunctionBuilder fb;
        fb.getarg(2, 0);       // this
        fb.movi_vtable(8, vt); // materialize the vtable address
        fb.store(2, 0, 8);     // install the vptr
        fb.ret();
        ib.define_function(f, std::move(fb));
    }
    BinaryImage img = ib.link({});
    ASSERT_TRUE(verify_image(img).empty());

    // Bump slot 0 off the function entry.
    std::size_t off = ib.vtable_addr(vt) - img.data_base;
    img.data[off] += 1;
    auto diags = verify_image(img);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].kind, DiagKind::VtableSlotInvalid);
    EXPECT_EQ(diags[0].addr, ib.vtable_addr(vt));
}

TEST(Verify, AllKindsAreDistinctAndNamed)
{
    std::set<std::string> names;
    for (DiagKind kind :
         {DiagKind::Undecodable, DiagKind::BadRegister,
          DiagKind::TargetOutOfCode, DiagKind::TargetMisaligned,
          DiagKind::JumpEscapesFunction,
          DiagKind::CallNotFunctionEntry, DiagKind::CallIndUndefined,
          DiagKind::GetRetNoCall, DiagKind::UseWithoutDef,
          DiagKind::VtableSlotInvalid, DiagKind::UnreachableBlock})
        names.insert(diag_name(kind));
    EXPECT_EQ(names.size(), 11u);
}

// ---------------------------------------------------------------------
// Verifier on compiled corpus images
// ---------------------------------------------------------------------

TEST(Verify, CompiledCorpusImageIsClean)
{
    corpus::CorpusProgram prog = corpus::streams_program();
    toyc::CompileResult built = toyc::compile(prog.program, prog.options);
    EXPECT_TRUE(verify_image(built.image).empty());
}

TEST(Verify, OpcodeBitFlipsTripTheVerifier)
{
    // Flip the high bit of the opcode byte of several slots: every
    // flip makes that opcode invalid (valid opcodes are < 0x80), so
    // the verifier must report Undecodable at exactly that address --
    // and restoring the byte must restore cleanliness.
    corpus::CorpusProgram prog = corpus::streams_program();
    toyc::CompileResult built = toyc::compile(prog.program, prog.options);
    BinaryImage img = built.image;
    ASSERT_TRUE(verify_image(img).empty());

    for (std::size_t slot = 0; slot < 5; ++slot) {
        std::size_t off = slot * kInstrSize;
        ASSERT_LT(off, img.code.size());
        img.code[off] ^= 0x80;
        auto diags = verify_image(img);
        EXPECT_TRUE(kinds(diags).count(DiagKind::Undecodable))
            << "flip at slot " << slot;
        img.code[off] ^= 0x80;
        EXPECT_TRUE(verify_image(img).empty())
            << "restore at slot " << slot;
    }
}

TEST(Verify, ParallelVerifyIsBitIdentical)
{
    corpus::CorpusProgram prog = corpus::datasources_program();
    toyc::CompileResult built = toyc::compile(prog.program, prog.options);
    BinaryImage img = built.image;
    img.code[0] ^= 0x80; // give the verifier something to say
    auto serial = verify_image(img, 1);
    auto parallel = verify_image(img, 4);
    EXPECT_EQ(serial, parallel);
    EXPECT_FALSE(serial.empty());
}

} // namespace
