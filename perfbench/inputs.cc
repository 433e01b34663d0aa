#include "inputs.h"

#include <algorithm>
#include <cmath>

#include "bir/serialize.h"
#include "corpus/benchmarks.h"
#include "fuzz/fuzzer.h"
#include "support/rng.h"

namespace perfbench {

using namespace rock;

corpus::GeneratorSpec
skype_spec(int classes)
{
    corpus::GeneratorSpec spec;
    spec.num_classes = classes;
    spec.num_trees = std::max(4, classes / 40);
    spec.max_depth = 6;
    spec.max_children = 5;
    spec.scenarios_per_class = 2;
    spec.fold_noise_pairs = classes / 100;
    spec.mi_prob = 0.05;
    spec.seed = 2018;
    return spec;
}

toyc::Program
permuted(toyc::Program program, std::uint64_t seed)
{
    support::Rng rng(seed ^ 0x5eedf00ddeadbeefull);
    rng.shuffle(program.usages);
    return program;
}

Input
make_input(const std::string& name, const toyc::Program& program,
           const toyc::CompileOptions& options, std::uint64_t seed)
{
    Input in;
    in.name = name;
    in.compiled = toyc::compile(permuted(program, seed), options);
    in.truth = eval::ground_truth_from_debug(in.compiled.debug);
    return in;
}

Input
skype_input(int classes, std::uint64_t seed)
{
    return make_input("skype" + std::to_string(classes),
                      corpus::generate_program(skype_spec(classes)), {},
                      seed);
}

std::vector<Input>
corpus_inputs(const Sizes& sizes, std::uint64_t seed)
{
    std::vector<Input> out;
    if (sizes.corpus_table2) {
        for (const corpus::BenchmarkSpec& spec :
             corpus::table2_benchmarks())
            out.push_back(make_input(spec.name, spec.program.program,
                                     spec.program.options, seed));
    }
    for (int k = 1; k <= sizes.corpus_fuzz; ++k) {
        out.push_back(make_input(
            "fuzz" + std::to_string(k),
            corpus::generate_program(
                fuzz::sample_spec(static_cast<std::uint64_t>(k))),
            {}, seed));
    }
    return out;
}

ServeTraffic
serve_traffic(const Sizes& sizes, double seconds, std::uint64_t seed)
{
    ServeTraffic traffic;
    const std::size_t requests = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::floor(seconds * sizes.serve_rate)));
    // Fixed schedule seed: the traffic shape must not move with the
    // workload seed (see the file comment in inputs.h).
    support::Rng rng(0x5e77e5c4ed01eull);
    std::size_t seen = 0;
    for (std::size_t i = 0; i < requests; ++i) {
        const bool first_seen =
            i == 0 ||
            std::floor(static_cast<double>(i + 1) * kServeNewShare) >
                std::floor(static_cast<double>(i) * kServeNewShare);
        if (first_seen) {
            traffic.schedule.push_back(seen++);
            continue;
        }
        std::vector<double> weights;
        for (std::size_t r = 0; r < seen; ++r)
            weights.push_back(1.0 / static_cast<double>(r + 1));
        traffic.schedule.push_back(rng.weighted(weights));
    }
    for (std::size_t k = 0; k < seen; ++k) {
        // 10-class trees keep the costliest first-seen image near
        // 0.3 s, so a first-seen image delays few of the requests
        // behind it. skype_scale's 40-class trees (1-2 s images), and
        // even 15-class ones (up to 0.6 s), queue so many requests
        // behind each first-seen image that the median request sits
        // on the queueing ramp (README.md, "Serve load").
        corpus::GeneratorSpec spec = skype_spec(sizes.serve_classes);
        spec.num_trees = std::max(1, sizes.serve_classes / 10);
        spec.seed = k + 1;
        traffic.pool.push_back(make_input(
            "pool" + std::to_string(k + 1),
            corpus::generate_program(spec), {}, seed));
        traffic.payloads.push_back(
            bir::save_image(traffic.pool.back().compiled.image));
    }
    return traffic;
}

} // namespace perfbench
