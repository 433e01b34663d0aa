/**
 * @file
 * Unit tests for event/alphabet handling, vtable scanning, and the
 * symbolic executor.
 */
#include <gtest/gtest.h>

#include "analysis/analyze.h"
#include "analysis/event.h"
#include "analysis/symexec.h"
#include "analysis/vtable_scan.h"
#include "bir/builder.h"
#include "corpus/examples.h"
#include "toyc/compiler.h"

namespace {

using namespace rock;
using namespace rock::analysis;
using namespace rock::bir;

// ---------------------------------------------------------------------
// Events and alphabet
// ---------------------------------------------------------------------

TEST(Event, ToStringCoversAllKinds)
{
    EXPECT_EQ(to_string(Event{EventKind::VirtCall, 2, 0}), "C(2)");
    EXPECT_EQ(to_string(Event{EventKind::VirtCall, 1, 8}), "C(1@8)");
    EXPECT_EQ(to_string(Event{EventKind::ReadField, 4, 0}), "R(4)");
    EXPECT_EQ(to_string(Event{EventKind::WriteField, 8, 0}), "W(8)");
    EXPECT_EQ(to_string(Event{EventKind::PassedThis, 0, 0}), "this");
    EXPECT_EQ(to_string(Event{EventKind::PassedArg, 1, 0}), "Arg(1)");
    EXPECT_EQ(to_string(Event{EventKind::Returned, 0, 0}), "ret");
    EXPECT_EQ(to_string(Event{EventKind::CallDirect, 0x1440, 0}),
              "call(0x1440)");
}

TEST(Alphabet, InternIsStableAndDense)
{
    Alphabet alpha;
    Event a{EventKind::VirtCall, 0, 0};
    Event b{EventKind::VirtCall, 1, 0};
    EXPECT_EQ(alpha.intern(a), 0);
    EXPECT_EQ(alpha.intern(b), 1);
    EXPECT_EQ(alpha.intern(a), 0); // repeated intern is stable
    EXPECT_EQ(alpha.size(), 2);
    EXPECT_EQ(alpha.lookup(b), 1);
    EXPECT_EQ(alpha.lookup(Event{EventKind::Returned, 0, 0}), -1);
    EXPECT_EQ(alpha.event(1), b);
}

TEST(Alphabet, TraceletInternRoundTrip)
{
    Alphabet alpha;
    Tracelet tr{{EventKind::VirtCall, 0, 0},
                {EventKind::WriteField, 4, 0},
                {EventKind::VirtCall, 0, 0}};
    auto ids = alpha.intern(tr);
    EXPECT_EQ(ids, (std::vector<int>{0, 1, 0}));
    EXPECT_EQ(alpha.lookup(tr), ids);
}

// ---------------------------------------------------------------------
// Handcrafted images for scanner/executor tests
// ---------------------------------------------------------------------

/**
 * Builds an image with one vtable (2 slots) and one "constructor"
 * that allocates, stores the vtable pointer, and performs a virtual
 * call and field traffic:
 *
 *   ctor-like user function:
 *     movi r1, 8 ; setarg 0, r1 ; call alloc ; getret r2
 *     movi r3, vt ; store [r2+0], r3         ; typing store
 *     movi r4, 7 ; store [r2+4], r4          ; W(4)
 *     load r5, [r2+0] ; load r6, [r5+4]      ; vptr, slot 1
 *     setarg 0, r2 ; icall r6                ; C(1)
 *     load r7, [r2+4]                        ; R(4)
 *     ret
 */
struct CraftedImage {
    BinaryImage image;
    std::uint32_t vt_addr = 0;
    std::uint32_t method_addr = 0;
    std::uint32_t user_addr = 0;
};

CraftedImage
craft_basic()
{
    ImageBuilder ib;
    FuncId m0 = ib.declare_function("m0");
    FuncId m1 = ib.declare_function("m1");
    FuncId user = ib.declare_function("user");
    VtId vt = ib.add_vtable("T", 2);
    ib.set_slot(vt, 0, m0);
    ib.set_slot(vt, 1, m1);
    {
        FunctionBuilder fb;
        fb.ret();
        ib.define_function(m0, std::move(fb));
    }
    {
        FunctionBuilder fb;
        fb.getarg(2, 0);
        fb.load(0, 2, 4); // this-relative read: R(4)
        fb.ret();
        ib.define_function(m1, std::move(fb));
    }
    {
        FunctionBuilder fb;
        fb.movi(1, 8);
        fb.setarg(0, 1);
        fb.call_addr(kAllocStub);
        fb.getret(2);
        fb.movi_vtable(3, vt);
        fb.store(2, 0, 3);
        fb.movi(4, 7);
        fb.store(2, 4, 4);
        fb.load(5, 2, 0);
        fb.load(6, 5, 4);
        fb.setarg(0, 2);
        fb.icall(6);
        fb.load(7, 2, 4);
        fb.ret();
        ib.define_function(user, std::move(fb));
    }
    CraftedImage out;
    out.image = ib.link({});
    out.vt_addr = ib.vtable_addr(vt);
    out.method_addr = ib.func_addr(m1);
    out.user_addr = ib.func_addr(user);
    return out;
}

TEST(VtableScan, FindsStoredVtable)
{
    CraftedImage crafted = craft_basic();
    auto tables = scan_vtables(crafted.image);
    ASSERT_EQ(tables.size(), 1u);
    EXPECT_EQ(tables[0].addr, crafted.vt_addr);
    EXPECT_EQ(tables[0].slots.size(), 2u);
    EXPECT_EQ(tables[0].slots[1], crafted.method_addr);
}

TEST(VtableScan, IgnoresUnstoredDataAddresses)
{
    // A function that materializes a data address but never stores it
    // must not produce a vtable.
    ImageBuilder ib;
    FuncId f = ib.declare_function("f");
    FuncId g = ib.declare_function("g");
    VtId vt = ib.add_vtable("T", 1);
    ib.set_slot(vt, 0, g);
    {
        FunctionBuilder fb;
        fb.movi_vtable(1, vt); // loaded, never stored
        fb.ret();
        ib.define_function(f, std::move(fb));
    }
    {
        FunctionBuilder fb;
        fb.ret();
        ib.define_function(g, std::move(fb));
    }
    BinaryImage img = ib.link({});
    EXPECT_TRUE(scan_vtables(img).empty());
}

TEST(VtableScan, RunStopsAtNonFunctionWord)
{
    // The stripped RTTI back-pointer (0) of the next vtable bounds the
    // previous table's slot run.
    CraftedImage crafted = craft_basic();
    auto tables = scan_vtables(crafted.image);
    ASSERT_EQ(tables.size(), 1u);
    // Data section: [rtti=0][slot0][slot1]; exactly 2 slots seen.
    EXPECT_EQ(tables[0].slots.size(), 2u);
}

TEST(SymExec, ExtractsTypedEvents)
{
    CraftedImage crafted = craft_basic();
    auto tables = scan_vtables(crafted.image);
    SymExecConfig config;
    SymbolicExecutor exec(crafted.image, tables, config);

    std::vector<std::uint32_t> this_callees{crafted.method_addr};
    const FunctionEntry* user =
        crafted.image.function_at(crafted.user_addr);
    ASSERT_NE(user, nullptr);
    FunctionAnalysis fa = exec.run(*user, this_callees, false);

    ASSERT_EQ(fa.tracelets.count(crafted.vt_addr), 1u);
    const auto& tracelets = fa.tracelets.at(crafted.vt_addr);
    ASSERT_EQ(tracelets.size(), 1u);
    // Expected object event sequence: W(4), C(1), R(4).
    Tracelet expected{{EventKind::WriteField, 4, 0},
                      {EventKind::VirtCall, 1, 0},
                      {EventKind::ReadField, 4, 0}};
    EXPECT_EQ(tracelets[0], expected);
    EXPECT_EQ(fa.paths, 1);
}

TEST(SymExec, VptrAccessesProduceNoFieldEvents)
{
    CraftedImage crafted = craft_basic();
    auto tables = scan_vtables(crafted.image);
    SymbolicExecutor exec(crafted.image, tables, {});
    const FunctionEntry* user =
        crafted.image.function_at(crafted.user_addr);
    FunctionAnalysis fa = exec.run(*user, {}, false);
    for (const auto& [type, tracelets] : fa.tracelets) {
        (void)type;
        for (const auto& tr : tracelets) {
            for (const auto& ev : tr) {
                if (ev.kind == EventKind::ReadField ||
                    ev.kind == EventKind::WriteField) {
                    EXPECT_NE(ev.index, 0u)
                        << "vptr slot surfaced as field event";
                }
            }
        }
    }
}

TEST(SymExec, ThisParamTraceletsAttributedToOwningVtables)
{
    CraftedImage crafted = craft_basic();
    auto tables = scan_vtables(crafted.image);
    SymbolicExecutor exec(crafted.image, tables, {});
    const FunctionEntry* method =
        crafted.image.function_at(crafted.method_addr);
    ASSERT_NE(method, nullptr);
    FunctionAnalysis fa = exec.run(*method, {}, true);
    // m1 reads [this+4]: one R(4) tracelet attributed to T.
    ASSERT_EQ(fa.tracelets.count(crafted.vt_addr), 1u);
    Tracelet expected{{EventKind::ReadField, 4, 0}};
    EXPECT_EQ(fa.tracelets.at(crafted.vt_addr)[0], expected);
}

TEST(SymExec, BranchesForkPaths)
{
    ImageBuilder ib;
    FuncId f = ib.declare_function("f");
    FuncId m = ib.declare_function("m");
    VtId vt = ib.add_vtable("T", 1);
    ib.set_slot(vt, 0, m);
    {
        FunctionBuilder fb;
        fb.ret();
        ib.define_function(m, std::move(fb));
    }
    {
        FunctionBuilder fb;
        fb.movi(1, 8);
        fb.setarg(0, 1);
        fb.call_addr(kAllocStub);
        fb.getret(2);
        fb.movi_vtable(3, vt);
        fb.store(2, 0, 3);
        int l_else = fb.new_label();
        fb.getarg(0, 9); // opaque condition
        fb.jz(0, l_else);
        fb.store(2, 4, 1); // then: W(4)
        fb.bind(l_else);
        fb.store(2, 8, 1); // join: W(8)
        fb.ret();
        ib.define_function(f, std::move(fb));
    }
    BinaryImage img = ib.link({});
    auto tables = scan_vtables(img);
    SymbolicExecutor exec(img, tables, {});
    FunctionAnalysis fa = exec.run(img.functions[0], {}, false);
    EXPECT_EQ(fa.paths, 2);
    std::uint32_t vt_addr = tables[0].addr;
    ASSERT_EQ(fa.tracelets.count(vt_addr), 1u);
    const auto& tracelets = fa.tracelets.at(vt_addr);
    // One path [W(4), W(8)], one [W(8)].
    ASSERT_EQ(tracelets.size(), 2u);
    std::multiset<std::size_t> lengths;
    for (const auto& tr : tracelets)
        lengths.insert(tr.size());
    EXPECT_EQ(lengths, (std::multiset<std::size_t>{1, 2}));
}

TEST(SymExec, LoopsUnrollBounded)
{
    ImageBuilder ib;
    FuncId f = ib.declare_function("f");
    FuncId m = ib.declare_function("m");
    VtId vt = ib.add_vtable("T", 1);
    ib.set_slot(vt, 0, m);
    {
        FunctionBuilder fb;
        fb.ret();
        ib.define_function(m, std::move(fb));
    }
    {
        FunctionBuilder fb;
        fb.movi(1, 8);
        fb.setarg(0, 1);
        fb.call_addr(kAllocStub);
        fb.getret(2);
        fb.movi_vtable(3, vt);
        fb.store(2, 0, 3);
        int top = fb.new_label();
        fb.bind(top);
        fb.store(2, 4, 1); // loop body: W(4)
        fb.getarg(0, 9);
        fb.jnz(0, top);
        fb.ret();
        ib.define_function(f, std::move(fb));
    }
    BinaryImage img = ib.link({});
    auto tables = scan_vtables(img);
    SymExecConfig config;
    config.max_backjumps = 2;
    SymbolicExecutor exec(img, tables, config);
    FunctionAnalysis fa = exec.run(img.functions[0], {}, false);
    // Paths: exit after 1, 2, or 3 iterations (2 backjumps max).
    EXPECT_EQ(fa.paths, 3);
    std::size_t longest = 0;
    for (const auto& tr : fa.tracelets.at(tables[0].addr))
        longest = std::max(longest, tr.size());
    EXPECT_EQ(longest, 3u);
}

TEST(SymExec, TraceletWindowing)
{
    // 10 field writes -> one window of 7 and one of 3.
    ImageBuilder ib;
    FuncId f = ib.declare_function("f");
    FuncId m = ib.declare_function("m");
    VtId vt = ib.add_vtable("T", 1);
    ib.set_slot(vt, 0, m);
    {
        FunctionBuilder fb;
        fb.ret();
        ib.define_function(m, std::move(fb));
    }
    {
        FunctionBuilder fb;
        fb.movi(1, 8);
        fb.setarg(0, 1);
        fb.call_addr(kAllocStub);
        fb.getret(2);
        fb.movi_vtable(3, vt);
        fb.store(2, 0, 3);
        for (int i = 0; i < 10; ++i)
            fb.store(2, 4 + 4 * i, 1);
        fb.ret();
        ib.define_function(f, std::move(fb));
    }
    BinaryImage img = ib.link({});
    auto tables = scan_vtables(img);
    SymbolicExecutor exec(img, tables, {});
    FunctionAnalysis fa = exec.run(img.functions[0], {}, false);
    const auto& tracelets = fa.tracelets.at(tables[0].addr);
    ASSERT_EQ(tracelets.size(), 2u);
    EXPECT_EQ(tracelets[0].size(), 7u);
    EXPECT_EQ(tracelets[1].size(), 3u);
}

TEST(SymExec, CtorEvidenceFromThisParam)
{
    // A classic out-of-line ctor: stores the vtable into arg0 and
    // calls the parent ctor first.
    ImageBuilder ib;
    FuncId parent_ctor = ib.declare_function("P::ctor");
    FuncId child_ctor = ib.declare_function("C::ctor");
    FuncId m = ib.declare_function("m");
    VtId vt_p = ib.add_vtable("P", 1);
    VtId vt_c = ib.add_vtable("C", 1);
    ib.set_slot(vt_p, 0, m);
    ib.set_slot(vt_c, 0, m);
    {
        FunctionBuilder fb;
        fb.ret();
        ib.define_function(m, std::move(fb));
    }
    {
        FunctionBuilder fb;
        fb.getarg(2, 0);
        fb.movi_vtable(9, vt_p);
        fb.store(2, 0, 9);
        fb.retval(2);
        ib.define_function(parent_ctor, std::move(fb));
    }
    {
        FunctionBuilder fb;
        fb.getarg(2, 0);
        fb.setarg(0, 2);
        fb.call(parent_ctor);
        fb.movi_vtable(9, vt_c);
        fb.store(2, 0, 9);
        fb.retval(2);
        ib.define_function(child_ctor, std::move(fb));
    }
    BinaryImage img = ib.link({});
    auto tables = scan_vtables(img);
    ASSERT_EQ(tables.size(), 2u);

    AnalysisResult result = analyze(img);
    // Both ctors identified with their constructed types.
    ASSERT_EQ(result.ctor_types.size(), 2u);

    // The child's evidence records the parent-ctor call at offset 0.
    bool found = false;
    for (const auto& ev : result.evidence) {
        if (!ev.from_this_param || ev.this_calls.empty())
            continue;
        for (const auto& [off, callee] : ev.this_calls) {
            if (off == 0 && result.ctor_types.count(callee))
                found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Analyze, StreamsEndToEnd)
{
    corpus::CorpusProgram example = corpus::streams_program();
    toyc::CompileResult compiled =
        toyc::compile(example.program, example.options);
    AnalysisResult result = analyze(compiled.image);

    EXPECT_EQ(result.vtables.size(), 3u);
    // Every type collected tracelets.
    for (const auto& [cls, vt] : compiled.debug.class_to_vtable) {
        EXPECT_GT(result.type_tracelets[vt].size(), 0u) << cls;
    }
    // Stream's tracelets include the triple-send pattern C(0)x3.
    std::uint32_t stream_vt =
        compiled.debug.class_to_vtable.at("Stream");
    bool seen_triple = false;
    for (const auto& tr : result.type_tracelets[stream_vt]) {
        int sends = 0;
        for (const auto& ev : tr) {
            if (ev.kind == EventKind::VirtCall && ev.index == 0)
                ++sends;
        }
        if (sends >= 3)
            seen_triple = true;
    }
    EXPECT_TRUE(seen_triple);
}

TEST(Analyze, InlinedCtorsStillYieldEvidence)
{
    // With ctors inlined at allocation sites, the vptr stores move
    // into the usage functions, but evidence must still appear.
    corpus::CorpusProgram example = corpus::streams_program();
    toyc::CompileResult compiled =
        toyc::compile(example.program, example.options);
    AnalysisResult result = analyze(compiled.image);
    int with_stores = 0;
    for (const auto& ev : result.evidence) {
        if (!ev.vptr_stores.empty())
            ++with_stores;
    }
    EXPECT_GT(with_stores, 0);
}

TEST(Analyze, ParallelMatchesSerial)
{
    // The per-function sweep is embarrassingly parallel (paper
    // Section 3.2); the merged output must be identical for any
    // thread count.
    corpus::CorpusProgram example = corpus::datasources_program();
    toyc::CompileResult compiled =
        toyc::compile(example.program, example.options);

    SymExecConfig serial;
    SymExecConfig parallel = serial;
    parallel.threads = 4;
    AnalysisResult a = analyze(compiled.image, serial);
    AnalysisResult b = analyze(compiled.image, parallel);

    EXPECT_EQ(a.vtables, b.vtables);
    EXPECT_EQ(a.ctor_types, b.ctor_types);
    EXPECT_EQ(a.total_paths, b.total_paths);
    ASSERT_EQ(a.type_tracelets.size(), b.type_tracelets.size());
    for (const auto& [type, tracelets] : a.type_tracelets) {
        ASSERT_EQ(b.type_tracelets.count(type), 1u);
        EXPECT_EQ(tracelets, b.type_tracelets.at(type));
    }
    EXPECT_EQ(a.evidence.size(), b.evidence.size());
}

} // namespace
