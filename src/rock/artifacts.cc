#include "rock/artifacts.h"

#include <algorithm>

namespace rock::core {

namespace {

using cache::kFnvSeed;
using cache::kSchemaVersion;
using cache::mix;
using cache::mix_double;

std::uint64_t
mix_model(std::uint64_t h, const slm::ModelConfig& c)
{
    h = mix(h, static_cast<std::uint64_t>(c.kind));
    h = mix(h, static_cast<std::uint64_t>(c.depth));
    h = mix(h, c.exclusion ? 1 : 0);
    return h;
}

std::uint64_t
mix_words(std::uint64_t h, const divergence::WordSetConfig& c)
{
    h = mix(h, static_cast<std::uint64_t>(c.strategy));
    h = mix(h, static_cast<std::uint64_t>(c.exhaustive_len));
    h = mix(h, static_cast<std::uint64_t>(c.sample_count));
    h = mix(h, static_cast<std::uint64_t>(c.sample_len));
    h = mix(h, c.seed);
    return h;
}

} // namespace

std::uint64_t
alphabet_digest(const analysis::Alphabet& alphabet)
{
    std::uint64_t h = mix(kFnvSeed, kSchemaVersion);
    const int n = alphabet.size();
    h = mix(h, static_cast<std::uint64_t>(n));
    for (int s = 0; s < n; ++s) {
        const analysis::Event& e = alphabet.event(s);
        h = mix(h, static_cast<std::uint64_t>(e.kind));
        h = mix(h, e.index);
        h = mix(h, e.aux);
    }
    return h;
}

std::uint64_t
sequence_hash(const std::vector<int>& seq)
{
    std::uint64_t h = mix(kFnvSeed, seq.size());
    for (int sym : seq)
        h = mix(h, static_cast<std::uint64_t>(
                       static_cast<std::uint32_t>(sym)));
    return h;
}

std::uint64_t
sequence_multiset_hash(const std::vector<std::vector<int>>& seqs)
{
    std::vector<std::uint64_t> hashes;
    hashes.reserve(seqs.size());
    for (const auto& seq : seqs)
        hashes.push_back(sequence_hash(seq));
    std::sort(hashes.begin(), hashes.end());
    std::uint64_t h = mix(kFnvSeed, hashes.size());
    for (std::uint64_t sh : hashes)
        h = mix(h, sh);
    return h;
}

std::uint64_t
slm_fingerprint(const slm::ModelConfig& config, int alphabet_size,
                std::uint64_t alphabet_digest)
{
    std::uint64_t h = mix(kFnvSeed, kSchemaVersion);
    h = mix_model(h, config);
    h = mix(h, static_cast<std::uint64_t>(alphabet_size));
    h = mix(h, alphabet_digest);
    return h;
}

/** Generation of the distance stage's algorithm. A famdist blob
 *  replays the work tallies of the run that wrote it, so a stage that
 *  walks the models or weighs pairs a different number of times for
 *  the same weights bumps this rather than kSchemaVersion (2: each
 *  member's model is walked once per needed word instead of twice per
 *  pair and word; 3: one walk per twin class and one weighing per
 *  distinct (parent class, child class) key). */
constexpr std::uint64_t kDistanceGeneration = 3;

std::uint64_t
distance_fingerprint(const RockConfig& config, int alphabet_size,
                     std::uint64_t alphabet_digest)
{
    std::uint64_t h = mix(kFnvSeed, kSchemaVersion);
    h = mix(h, kDistanceGeneration);
    h = mix_model(h, config.slm);
    h = mix(h, static_cast<std::uint64_t>(config.metric));
    h = mix_words(h, config.words);
    h = mix(h, static_cast<std::uint64_t>(alphabet_size));
    h = mix(h, alphabet_digest);
    return h;
}

/** Generation of solve_family()'s algorithm. A famsolve blob replays
 *  the Edmonds contractions and budget cuts of the solve that wrote
 *  it, so a solver that counts differently for the same inputs bumps
 *  this rather than kSchemaVersion (2: the ambiguity probe stopped
 *  running Edmonds on the zero-weight skeleton; 3: the blob carries
 *  the enumerator's budget cuts; 4: the enumeration is exact, with no
 *  step budget, and a capped set keeps only its optimum). */
constexpr std::uint64_t kSolverGeneration = 4;

std::uint64_t
solve_fingerprint(const RockConfig& config)
{
    std::uint64_t h = mix(kFnvSeed, kSchemaVersion);
    h = mix(h, kSolverGeneration);
    h = mix_double(h, config.tie_epsilon);
    return h;
}

std::uint64_t
config_fingerprint(const RockConfig& config)
{
    std::uint64_t h = mix(kFnvSeed, kSchemaVersion);
    h = analysis::mix_symexec_config(h, config.symexec);
    h = mix_model(h, config.slm);
    h = mix(h, static_cast<std::uint64_t>(config.metric));
    h = mix_words(h, config.words);
    h = mix_double(h, config.tie_epsilon);
    h = mix(h, config.typeinf ? 1 : 0);
    return h; // threads and the cache pointer deliberately excluded
}

void
encode_family_distances(const FamilyDistanceBlob& blob,
                        cache::ByteWriter& out)
{
    out.u32(static_cast<std::uint32_t>(blob.weights.size()));
    for (double w : blob.weights)
        out.f64(w);
    out.u64(blob.pairs);
    out.u64(blob.words);
    out.u64(blob.escapes);
}

bool
decode_family_distances(cache::ByteReader& in, FamilyDistanceBlob* blob)
{
    const std::uint32_t count = in.u32();
    if (!in.ok() || count > in.remaining() / 8)
        return false;
    blob->weights.resize(count);
    for (std::uint32_t i = 0; i < count; ++i)
        blob->weights[i] = in.f64();
    blob->pairs = in.u64();
    blob->words = in.u64();
    blob->escapes = in.u64();
    return in.at_end();
}

void
encode_family_solution(const FamilySolveBlob& blob,
                       cache::ByteWriter& out)
{
    out.u32(static_cast<std::uint32_t>(blob.m));
    out.u8(blob.structurally_ambiguous ? 1 : 0);
    out.u64(blob.cooptimal);
    out.u64(blob.resolved);
    out.u64(blob.contractions);
    out.u64(blob.alternative_cuts);
    out.u32(static_cast<std::uint32_t>(blob.alternatives.size()));
    for (const auto& parents : blob.alternatives) {
        for (int p : parents)
            out.i32(p);
    }
}

bool
decode_family_solution(cache::ByteReader& in, FamilySolveBlob* blob)
{
    const std::uint32_t m = in.u32();
    const std::uint8_t ambiguous = in.u8();
    blob->cooptimal = in.u64();
    blob->resolved = in.u64();
    blob->contractions = in.u64();
    blob->alternative_cuts = in.u64();
    const std::uint32_t n_alt = in.u32();
    if (!in.ok() || m == 0 || n_alt == 0 || ambiguous > 1)
        return false;
    if (n_alt > in.remaining() / (4ull * m))
        return false;
    blob->m = static_cast<int>(m);
    blob->structurally_ambiguous = ambiguous != 0;
    blob->alternatives.assign(n_alt, std::vector<int>(m, -1));
    for (auto& parents : blob->alternatives) {
        for (std::uint32_t i = 0; i < m; ++i) {
            int p = in.i32();
            if (p < -1 || p >= static_cast<int>(m))
                return false;
            parents[i] = p;
        }
    }
    return in.at_end();
}

} // namespace rock::core
