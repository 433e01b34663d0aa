/**
 * @file
 * Unit tests for the VM32 ISA, BinaryImage, and ImageBuilder.
 */
#include <gtest/gtest.h>

#include "bir/builder.h"
#include "bir/image.h"
#include "bir/isa.h"
#include "support/error.h"

namespace {

using namespace rock::bir;
using rock::support::FatalError;
using rock::support::PanicError;

// ---------------------------------------------------------------------
// ISA encode/decode
// ---------------------------------------------------------------------

class IsaRoundTrip : public ::testing::TestWithParam<Op> {};

TEST_P(IsaRoundTrip, EncodeDecodeIdentity)
{
    Instr instr;
    instr.op = GetParam();
    instr.a = 3;
    instr.b = 7;
    instr.c = 1;
    instr.imm = 0xdeadbeef;
    std::vector<std::uint8_t> bytes;
    encode(instr, bytes);
    ASSERT_EQ(bytes.size(), kInstrSize);
    auto decoded = decode(bytes, 0);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, instr);
}

INSTANTIATE_TEST_SUITE_P(
    AllOpcodes, IsaRoundTrip,
    ::testing::Values(Op::Nop, Op::MovImm, Op::MovReg, Op::Load,
                      Op::Store, Op::AddImm, Op::Call, Op::CallInd,
                      Op::SetArg, Op::GetArg, Op::GetRet, Op::RetVal,
                      Op::Ret, Op::Jmp, Op::Jnz, Op::Jz));

TEST(Isa, DecodeRejectsTruncation)
{
    std::vector<std::uint8_t> bytes(kInstrSize - 1, 0);
    EXPECT_FALSE(decode(bytes, 0).has_value());
}

TEST(Isa, DecodeRejectsBadOpcode)
{
    std::vector<std::uint8_t> bytes(kInstrSize, 0);
    bytes[0] = 0xff;
    EXPECT_FALSE(decode(bytes, 0).has_value());
}

TEST(Isa, DecodeRejectsRegisterFieldOutOfRange)
{
    // Every register operand an op actually reads or writes must name
    // a register < kNumRegs.
    Instr instr;
    instr.op = Op::MovImm;
    instr.a = kNumRegs; // first invalid destination
    std::vector<std::uint8_t> bytes;
    encode(instr, bytes);
    EXPECT_FALSE(decode(bytes, 0).has_value());

    instr = {};
    instr.op = Op::Store;
    instr.a = 1;
    instr.b = 0xff; // source register out of range
    bytes.clear();
    encode(instr, bytes);
    EXPECT_FALSE(decode(bytes, 0).has_value());

    instr = {};
    instr.op = Op::Jnz;
    instr.a = 200; // condition register out of range
    bytes.clear();
    encode(instr, bytes);
    EXPECT_FALSE(decode(bytes, 0).has_value());
}

TEST(Isa, DecodeToleratesStaleIgnoredFields)
{
    // Fields an op ignores (c everywhere, b of a Jnz, everything of a
    // Nop) carry whatever bytes the encoder left; decode must accept
    // them -- encode() writes Instr fields verbatim and real images
    // may hold stale values there.
    Instr instr;
    instr.op = Op::Nop;
    instr.a = 0xff;
    instr.b = 0xff;
    instr.c = 0xff;
    std::vector<std::uint8_t> bytes;
    encode(instr, bytes);
    EXPECT_TRUE(decode(bytes, 0).has_value());

    instr = {};
    instr.op = Op::Jnz;
    instr.a = 3;
    instr.b = 0xee; // ignored by Jnz
    instr.c = 0xdd;
    bytes.clear();
    encode(instr, bytes);
    EXPECT_TRUE(decode(bytes, 0).has_value());

    // SetArg's `a` and GetArg's `b` are argument slots, not
    // registers: large values are not the decoder's business.
    instr = {};
    instr.op = Op::SetArg;
    instr.a = 0x80; // slot index
    instr.b = 2;    // register, valid
    bytes.clear();
    encode(instr, bytes);
    EXPECT_TRUE(decode(bytes, 0).has_value());
}

/** The registers @p instr reads, as a vector for comparison. */
std::vector<int>
uses_of(const Instr& instr)
{
    RegUses uses = reg_uses(instr);
    return {uses.begin(), uses.end()};
}

TEST(Isa, RegisterOperandClassification)
{
    Instr instr;
    instr.op = Op::Store;
    instr.a = 4;
    instr.b = 9;
    EXPECT_EQ(uses_of(instr), (std::vector<int>{4, 9}));
    EXPECT_EQ(reg_uses(instr).size(), 2u);
    EXPECT_EQ(reg_def(instr), -1);

    instr.op = Op::GetRet;
    instr.a = 6;
    EXPECT_TRUE(reg_uses(instr).empty());
    EXPECT_EQ(reg_uses(instr).size(), 0u);
    EXPECT_EQ(reg_def(instr), 6);

    instr.op = Op::SetArg; // a is a slot, b the source register
    instr.a = 3;
    instr.b = 7;
    EXPECT_EQ(uses_of(instr), (std::vector<int>{7}));
    EXPECT_EQ(reg_def(instr), -1);

    EXPECT_TRUE(is_jump(Op::Jz));
    EXPECT_FALSE(is_jump(Op::Call));
    EXPECT_TRUE(is_block_end(Op::Jmp));
    EXPECT_FALSE(is_block_end(Op::Jnz));
}

TEST(Isa, ImmediateIsLittleEndian)
{
    Instr instr;
    instr.op = Op::MovImm;
    instr.imm = 0x04030201;
    std::vector<std::uint8_t> bytes;
    encode(instr, bytes);
    EXPECT_EQ(bytes[4], 0x01);
    EXPECT_EQ(bytes[5], 0x02);
    EXPECT_EQ(bytes[6], 0x03);
    EXPECT_EQ(bytes[7], 0x04);
}

TEST(Isa, Disassembly)
{
    Instr instr;
    instr.op = Op::Load;
    instr.a = 1;
    instr.b = 2;
    instr.imm = 8;
    EXPECT_EQ(to_string(instr), "load r1, [r2+8]");
    instr.op = Op::Call;
    instr.imm = 0x1000;
    EXPECT_EQ(to_string(instr), "call 0x1000");
}

// ---------------------------------------------------------------------
// ImageBuilder and BinaryImage
// ---------------------------------------------------------------------

/** One trivial function: ret. */
FunctionBuilder
trivial_body()
{
    FunctionBuilder fb;
    fb.ret();
    return fb;
}

TEST(Builder, LaysOutFunctionsSequentially)
{
    ImageBuilder ib;
    FuncId f0 = ib.declare_function("f0");
    FuncId f1 = ib.declare_function("f1");
    {
        FunctionBuilder fb;
        fb.nop();
        fb.nop();
        fb.ret();
        ib.define_function(f0, std::move(fb));
    }
    ib.define_function(f1, trivial_body());
    BinaryImage img = ib.link({});
    EXPECT_EQ(ib.func_addr(f0), kCodeBase);
    EXPECT_EQ(ib.func_addr(f1), kCodeBase + 3 * kInstrSize);
    ASSERT_EQ(img.functions.size(), 2u);
    EXPECT_EQ(img.functions[0].size, 3 * kInstrSize);
}

TEST(Builder, ResolvesForwardCalls)
{
    ImageBuilder ib;
    FuncId caller = ib.declare_function("caller");
    FuncId callee = ib.declare_function("callee");
    {
        FunctionBuilder fb;
        fb.call(callee); // forward reference
        fb.ret();
        ib.define_function(caller, std::move(fb));
    }
    ib.define_function(callee, trivial_body());
    BinaryImage img = ib.link({});
    auto body = img.decode_function(img.functions[0]);
    ASSERT_EQ(body.size(), 2u);
    EXPECT_EQ(body[0].op, Op::Call);
    EXPECT_EQ(body[0].imm, ib.func_addr(callee));
}

TEST(Builder, ResolvesLocalLabels)
{
    ImageBuilder ib;
    FuncId f = ib.declare_function("f");
    {
        FunctionBuilder fb;
        int skip = fb.new_label();
        fb.jz(0, skip);
        fb.nop();
        fb.bind(skip);
        fb.ret();
        ib.define_function(f, std::move(fb));
    }
    BinaryImage img = ib.link({});
    auto body = img.decode_function(img.functions[0]);
    EXPECT_EQ(body[0].op, Op::Jz);
    EXPECT_EQ(body[0].imm, kCodeBase + 2 * kInstrSize);
}

TEST(Builder, UnboundLabelPanics)
{
    ImageBuilder ib;
    FuncId f = ib.declare_function("f");
    FunctionBuilder fb;
    int label = fb.new_label();
    fb.jmp(label);
    EXPECT_THROW(ib.define_function(f, std::move(fb)), PanicError);
}

TEST(Builder, UndefinedFunctionIsFatalAtLink)
{
    ImageBuilder ib;
    ib.declare_function("ghost");
    EXPECT_THROW(ib.link({}), FatalError);
}

TEST(Builder, UnsetVtableSlotIsFatalAtLink)
{
    ImageBuilder ib;
    FuncId f = ib.declare_function("f");
    ib.define_function(f, trivial_body());
    ib.add_vtable("T", 2);
    EXPECT_THROW(ib.link({}), FatalError);
}

TEST(Builder, VtableSlotsPointAtFunctions)
{
    ImageBuilder ib;
    FuncId f = ib.declare_function("f");
    FuncId g = ib.declare_function("g");
    ib.define_function(f, trivial_body());
    {
        FunctionBuilder fb;
        fb.nop();
        fb.ret();
        ib.define_function(g, std::move(fb));
    }
    VtId vt = ib.add_vtable("T", 3);
    ib.set_slot(vt, 0, f);
    ib.set_slot(vt, 1, g);
    ib.set_slot_pure(vt, 2);
    BinaryImage img = ib.link({});

    std::uint32_t addr = ib.vtable_addr(vt);
    EXPECT_EQ(*img.read_data_word(addr), ib.func_addr(f));
    EXPECT_EQ(*img.read_data_word(addr + 4), ib.func_addr(g));
    EXPECT_EQ(*img.read_data_word(addr + 8), kPurecallStub);
    // RTTI back-pointer slot is zero when stripped.
    EXPECT_EQ(*img.read_data_word(addr - 4), 0u);
    EXPECT_FALSE(img.has_rtti);
}

TEST(Builder, MoviVtableRelocation)
{
    ImageBuilder ib;
    FuncId f = ib.declare_function("f");
    VtId vt = ib.add_vtable("T", 1);
    ib.set_slot(vt, 0, f);
    {
        FunctionBuilder fb;
        fb.movi_vtable(5, vt);
        fb.ret();
        ib.define_function(f, std::move(fb));
    }
    BinaryImage img = ib.link({});
    auto body = img.decode_function(img.functions[0]);
    EXPECT_EQ(body[0].imm, ib.vtable_addr(vt));
    EXPECT_TRUE(img.in_data(body[0].imm));
}

TEST(Builder, RttiRecordsRoundTrip)
{
    ImageBuilder ib;
    FuncId f = ib.declare_function("f");
    ib.define_function(f, trivial_body());
    VtId parent = ib.add_vtable("Parent", 1);
    VtId child = ib.add_vtable("Child", 1);
    ib.set_slot(parent, 0, f);
    ib.set_slot(child, 0, f);
    ib.set_rtti_chain(parent, {parent});
    ib.set_rtti_chain(child, {child, parent});
    LinkOptions opts;
    opts.emit_rtti = true;
    opts.strip_symbols = false;
    BinaryImage img = ib.link(opts);

    EXPECT_TRUE(img.has_rtti);
    // The child's back-pointer leads to a magic-tagged record naming
    // its ancestor chain.
    std::uint32_t rec = *img.read_data_word(ib.vtable_addr(child) - 4);
    EXPECT_EQ(*img.read_data_word(rec), kRttiMagic);
    EXPECT_EQ(*img.read_data_word(rec + 4), ib.vtable_addr(child));
    EXPECT_FALSE(img.symbols.empty());
}

TEST(Builder, StripRemovesSymbols)
{
    ImageBuilder ib;
    FuncId f = ib.declare_function("secret_name");
    ib.define_function(f, trivial_body());
    BinaryImage img = ib.link({/*strip_symbols=*/true, false});
    EXPECT_TRUE(img.symbols.empty());
    EXPECT_EQ(img.name_of(kCodeBase), "sub_1000");
}

TEST(Builder, FoldsIdenticalFunctions)
{
    ImageBuilder ib;
    FuncId a = ib.declare_function("a");
    FuncId b = ib.declare_function("b");
    FuncId c = ib.declare_function("c");
    auto body = [] {
        FunctionBuilder fb;
        fb.movi(0, 7);
        fb.ret();
        return fb;
    };
    ib.define_function(a, body());
    ib.define_function(b, body());
    {
        FunctionBuilder fb;
        fb.movi(0, 8); // different
        fb.ret();
        ib.define_function(c, std::move(fb));
    }
    EXPECT_EQ(ib.fold_identical_functions(), 1u);
    BinaryImage img = ib.link({});
    EXPECT_EQ(img.functions.size(), 2u);
    EXPECT_EQ(ib.func_addr(a), ib.func_addr(b));
    EXPECT_NE(ib.func_addr(a), ib.func_addr(c));
}

TEST(Builder, FoldingReachesFixpointThroughCallers)
{
    // callees x == y; callers cx calls x, cy calls y: after folding
    // the callees, the callers become identical and fold too.
    ImageBuilder ib;
    FuncId x = ib.declare_function("x");
    FuncId y = ib.declare_function("y");
    FuncId cx = ib.declare_function("cx");
    FuncId cy = ib.declare_function("cy");
    ib.define_function(x, trivial_body());
    ib.define_function(y, trivial_body());
    {
        FunctionBuilder fb;
        fb.call(x);
        fb.ret();
        ib.define_function(cx, std::move(fb));
    }
    {
        FunctionBuilder fb;
        fb.call(y);
        fb.ret();
        ib.define_function(cy, std::move(fb));
    }
    EXPECT_EQ(ib.fold_identical_functions(), 2u);
    ib.link({});
    EXPECT_EQ(ib.func_addr(cx), ib.func_addr(cy));
}

TEST(Builder, FoldingRedirectsVtableSlots)
{
    ImageBuilder ib;
    FuncId a = ib.declare_function("a");
    FuncId b = ib.declare_function("b");
    ib.define_function(a, trivial_body());
    ib.define_function(b, trivial_body());
    VtId va = ib.add_vtable("A", 1);
    VtId vb = ib.add_vtable("B", 1);
    ib.set_slot(va, 0, a);
    ib.set_slot(vb, 0, b);
    ib.fold_identical_functions();
    BinaryImage img = ib.link({});
    EXPECT_EQ(*img.read_data_word(ib.vtable_addr(va)),
              *img.read_data_word(ib.vtable_addr(vb)));
}

TEST(Image, SectionPredicates)
{
    ImageBuilder ib;
    FuncId f = ib.declare_function("f");
    ib.define_function(f, trivial_body());
    VtId vt = ib.add_vtable("T", 1);
    ib.set_slot(vt, 0, f);
    BinaryImage img = ib.link({});

    EXPECT_TRUE(img.in_code(kCodeBase));
    EXPECT_FALSE(img.in_code(kCodeBase + img.code.size()));
    EXPECT_TRUE(img.in_data(kDataBase));
    EXPECT_FALSE(img.in_data(kDataBase - 1));
    EXPECT_TRUE(img.is_function_start(kCodeBase));
    EXPECT_TRUE(img.is_function_start(kAllocStub));
    EXPECT_TRUE(img.is_function_start(kPurecallStub));
    EXPECT_FALSE(img.is_function_start(kCodeBase + 4));
}

TEST(Image, ReadDataWordBounds)
{
    BinaryImage img;
    img.data = {1, 0, 0, 0, 2};
    EXPECT_EQ(*img.read_data_word(img.data_base), 1u);
    EXPECT_FALSE(img.read_data_word(img.data_base + 4).has_value());
    EXPECT_FALSE(img.read_data_word(0).has_value());
}

TEST(Image, DisassembleMentionsFunctions)
{
    ImageBuilder ib;
    FuncId f = ib.declare_function("hello");
    ib.define_function(f, trivial_body());
    LinkOptions opts;
    opts.strip_symbols = false;
    BinaryImage img = ib.link(opts);
    std::string listing = img.disassemble();
    EXPECT_NE(listing.find("hello"), std::string::npos);
    EXPECT_NE(listing.find("ret"), std::string::npos);
}

} // namespace
