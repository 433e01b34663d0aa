/**
 * @file
 * Heap-allocation ceilings for the per-function front end.
 *
 * The front end (CFG recovery, the verifier, the behavioral analysis)
 * runs once per function, so its allocations multiply with the image.
 * This binary replaces the global operator new with a counting one
 * and checks each stage's allocations per function on one fixed
 * generated image against ceilings set 50% above what the stages
 * make today. A per-fork std::map state, a second decode per
 * function or tracelets built only to be dropped each push a stage
 * well past its ceiling.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "analysis/analyze.h"
#include "cfg/cfg_cache.h"
#include "cfg/verify.h"
#include "corpus/generator.h"
#include "support/parallel.h"
#include "toyc/compiler.h"

namespace {

std::atomic<long> g_allocations{0};

} // namespace

void*
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t size)
{
    return operator new(size);
}

// std::stable_sort's buffer comes from the nothrow form; it must pair
// with the free() below too.
void*
operator new(std::size_t size, const std::nothrow_t&) noexcept
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size == 0 ? 1 : size);
}

void*
operator new[](std::size_t size, const std::nothrow_t& tag) noexcept
{
    return operator new(size, tag);
}

// The deletes stay out of line: inlined into a caller, free() would
// meet a pointer from operator new and GCC would flag the pair, which
// these replacements make malloc/free by construction.
[[gnu::noinline]] void
operator delete(void* p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void* p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace rock;

/** Allocations made by @p stage. */
template <class Stage>
long
allocations_of(Stage&& stage)
{
    long before = g_allocations.load(std::memory_order_relaxed);
    stage();
    return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(FrontEndAllocations, StayUnderPerFunctionCeilings)
{
    corpus::GeneratorSpec spec;
    spec.num_classes = 300;
    spec.num_trees = 8;
    spec.max_depth = 6;
    spec.max_children = 5;
    spec.mi_prob = 0.05;
    spec.seed = 2018;
    const bir::BinaryImage image =
        toyc::compile(corpus::generate_program(spec)).image;
    const double functions =
        static_cast<double>(image.functions.size());
    ASSERT_GT(functions, 1000.0);

    // One inline pool: every stage runs on this thread, in order.
    support::ThreadPool pool(1);
    cfg::CfgCache cache(image);
    analysis::SymExecConfig config;

    long cfg_allocs = allocations_of([&] { cache.build_all(pool); });
    long verify_allocs = allocations_of([&] {
        EXPECT_TRUE(cfg::verify_image(image, pool, cache).empty());
    });
    long analyze_allocs = allocations_of([&] {
        EXPECT_FALSE(
            analysis::analyze(image, config, cache, nullptr, pool)
                .type_tracelets.empty());
    });

    const double cfg_per_fn = static_cast<double>(cfg_allocs) / functions;
    const double verify_per_fn =
        static_cast<double>(verify_allocs) / functions;
    const double analyze_per_fn =
        static_cast<double>(analyze_allocs) / functions;
    std::printf("%.0f functions: cfg %.2f, verify %.3f, analyze %.2f "
                "allocations per function\n",
                functions, cfg_per_fn, verify_per_fn, analyze_per_fn);

    // Measured: cfg 4.31, verify 0.034 (a fixed few dozen per image),
    // analyze 15.5 per function. With std::map/std::set scratch and
    // phase-A tracelets they were about 30, 40 and 110.
    EXPECT_LE(cfg_per_fn, 6.5);
    EXPECT_LE(verify_per_fn, 0.051);
    EXPECT_LE(analyze_per_fn, 23.2);
}

} // namespace
