/**
 * @file
 * Tests for the VMI1 image serialization.
 */
#include <gtest/gtest.h>

#include <cstdio>

#include "bir/serialize.h"
#include "corpus/examples.h"
#include "corpus/generator.h"
#include "fuzz/fuzzer.h"
#include "eval/application_distance.h"
#include "eval/ground_truth.h"
#include "rock/pipeline.h"
#include "support/error.h"
#include "toyc/compiler.h"

namespace {

using namespace rock;
using namespace rock::bir;
using rock::support::FatalError;

BinaryImage
sample_image(bool strip = true)
{
    corpus::CorpusProgram example = corpus::streams_program();
    example.options.link.strip_symbols = strip;
    example.options.link.emit_rtti = !strip;
    return toyc::compile(example.program, example.options).image;
}

TEST(Serialize, RoundTripPreservesEverything)
{
    for (bool strip : {true, false}) {
        BinaryImage original = sample_image(strip);
        BinaryImage loaded = load_image(save_image(original));
        EXPECT_EQ(loaded.code, original.code);
        EXPECT_EQ(loaded.data, original.data);
        EXPECT_EQ(loaded.code_base, original.code_base);
        EXPECT_EQ(loaded.data_base, original.data_base);
        EXPECT_EQ(loaded.functions, original.functions);
        EXPECT_EQ(loaded.symbols, original.symbols);
        EXPECT_EQ(loaded.has_rtti, original.has_rtti);
        EXPECT_EQ(loaded.entry, original.entry);
    }
}

TEST(Serialize, EntryRoundTripsAtNonZeroFunctionIndex)
{
    // Usage functions link after every method/ctor/dtor, so the
    // compiler-recorded entry must not be the first function-table
    // entry -- the round trip has to carry the address, not assume
    // index 0.
    corpus::GeneratorSpec spec;
    spec.num_classes = 4;
    spec.entry_usage = 3; // declare the 4th usage first
    toyc::CompileResult compiled =
        toyc::compile(corpus::generate_program(spec));
    const BinaryImage& image = compiled.image;
    ASSERT_NE(image.entry, 0u);
    ASSERT_TRUE(image.is_function_start(image.entry));
    ASSERT_NE(image.entry, image.functions.front().addr);

    BinaryImage loaded = load_image(save_image(image));
    EXPECT_EQ(loaded.entry, image.entry);
}

TEST(Serialize, EntryUsageKnobRotatesTheEntry)
{
    // Usage functions link in declaration order, so the entry
    // *address* is the same either way; the knob changes which usage
    // function occupies it.
    corpus::GeneratorSpec spec;
    spec.num_classes = 4;
    corpus::GeneratorSpec rotated = spec;
    rotated.entry_usage = 1;
    toyc::CompileResult a =
        toyc::compile(corpus::generate_program(spec));
    toyc::CompileResult b =
        toyc::compile(corpus::generate_program(rotated));
    ASSERT_NE(a.image.entry, 0u);
    ASSERT_NE(b.image.entry, 0u);
    EXPECT_NE(a.debug.func_names.at(a.image.entry),
              b.debug.func_names.at(b.image.entry));
    // Rotation only permutes the usage list.
    EXPECT_EQ(a.image.functions.size(), b.image.functions.size());
}

TEST(Serialize, LegacyStreamWithoutEntryLoadsAsZero)
{
    // Pre-entry VMI1 writers ended the stream at the symbol table.
    // Dropping the trailing entry word reproduces such a file.
    BinaryImage original = sample_image();
    ASSERT_NE(original.entry, 0u);
    auto bytes = save_image(original);
    bytes.resize(bytes.size() - 4);
    BinaryImage loaded = load_image(bytes);
    EXPECT_EQ(loaded.entry, 0u);
    EXPECT_EQ(loaded.functions, original.functions);
}

TEST(Serialize, RejectsEntryOutsideTheFunctionTable)
{
    BinaryImage image = sample_image();
    image.entry = image.code_base + 1; // mid-instruction, no function
    EXPECT_THROW(load_image(save_image(image)), FatalError);
}

TEST(Serialize, ReconstructionIdenticalAfterRoundTrip)
{
    corpus::CorpusProgram example = corpus::streams_program();
    toyc::CompileResult compiled =
        toyc::compile(example.program, example.options);
    BinaryImage loaded = load_image(save_image(compiled.image));
    EXPECT_EQ(core::first_difference(core::reconstruct(compiled.image),
                                     core::reconstruct(loaded)),
              "");
}

TEST(Serialize, RejectsBadMagic)
{
    auto bytes = save_image(sample_image());
    bytes[0] ^= 0xff;
    EXPECT_THROW(load_image(bytes), FatalError);
}

TEST(Serialize, RejectsTruncation)
{
    auto bytes = save_image(sample_image());
    for (std::size_t cut :
         {std::size_t{3}, bytes.size() / 2, bytes.size() - 1}) {
        std::vector<std::uint8_t> truncated(bytes.begin(),
                                            bytes.begin() +
                                                static_cast<long>(cut));
        EXPECT_THROW(load_image(truncated), FatalError) << cut;
    }
}

TEST(Serialize, RejectsTrailingGarbage)
{
    auto bytes = save_image(sample_image());
    bytes.push_back(0);
    EXPECT_THROW(load_image(bytes), FatalError);
}

TEST(Serialize, RejectsOutOfRangeFunctions)
{
    BinaryImage image = sample_image();
    image.functions.push_back(FunctionEntry{0xffff0000, 8});
    auto bytes = save_image(image);
    EXPECT_THROW(load_image(bytes), FatalError);
}

TEST(Serialize, FileRoundTrip)
{
    BinaryImage original = sample_image();
    std::string path = ::testing::TempDir() + "rock_serialize_test.vmi";
    write_image_file(original, path);
    BinaryImage loaded = read_image_file(path);
    EXPECT_EQ(loaded.code, original.code);
    EXPECT_EQ(loaded.functions, original.functions);
    std::remove(path.c_str());
}

TEST(Serialize, MissingFileIsFatal)
{
    EXPECT_THROW(read_image_file("/nonexistent/nope.vmi"), FatalError);
}

TEST(Serialize, PropertyRoundTripOverGeneratedPrograms)
{
    // Property over the fuzzer's meta-distribution: for any sampled
    // generator spec, serializing the compiled image and loading it
    // back preserves every field and yields a bit-identical
    // reconstruction. Covers degenerate, deep, wide, fold-noise and
    // MI-heavy shapes rather than one hand-picked example.
    for (std::uint64_t seed : {1u, 2u, 5u, 9u, 13u, 27u}) {
        SCOPED_TRACE(seed);
        corpus::GeneratorSpec spec = fuzz::sample_spec(seed);
        toyc::CompileResult compiled =
            toyc::compile(corpus::generate_program(spec));
        BinaryImage loaded =
            load_image(save_image(compiled.image));
        EXPECT_EQ(loaded.code, compiled.image.code);
        EXPECT_EQ(loaded.data, compiled.image.data);
        EXPECT_EQ(loaded.code_base, compiled.image.code_base);
        EXPECT_EQ(loaded.data_base, compiled.image.data_base);
        EXPECT_EQ(loaded.functions, compiled.image.functions);
        EXPECT_EQ(loaded.symbols, compiled.image.symbols);
        EXPECT_EQ(loaded.has_rtti, compiled.image.has_rtti);
        EXPECT_EQ(loaded.entry, compiled.image.entry);

        EXPECT_EQ(core::first_difference(core::reconstruct(compiled.image),
                                         core::reconstruct(loaded)),
                  "");
    }
}

} // namespace
