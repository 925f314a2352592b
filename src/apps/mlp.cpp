#include "apps/mlp.h"

#include "ckks/backend.h"
#include "graph/exec.h"
#include "telemetry/telemetry.h"

namespace madfhe {
namespace apps {

std::map<int, std::vector<std::complex<double>>>
blockDenseDiagonals(const std::vector<std::vector<double>>& weights,
                    size_t dim, size_t slots)
{
    MAD_REQUIRE(isPowerOfTwo(dim) && slots % dim == 0,
            "block width must be a power of two dividing the slot count");
    MAD_REQUIRE(!weights.empty() && weights.size() <= dim,
            "matrix height must be in [1, dim]");
    for (const auto& row : weights)
        MAD_REQUIRE(row.size() == dim, "matrix width must equal dim");

    // Slot rotations wrap across the whole vector, so block diagonal d
    // splits into generalized diagonals +d (rows that stay in the block)
    // and d - dim (rows that wrap).
    std::map<int, std::vector<std::complex<double>>> diags;
    diags[0].assign(slots, {0.0, 0.0});
    for (size_t d = 1; d < dim; ++d) {
        diags[static_cast<int>(d)].assign(slots, {0.0, 0.0});
        diags[static_cast<int>(d) - static_cast<int>(dim)]
            .assign(slots, {0.0, 0.0});
    }
    for (size_t k = 0; k < slots; ++k) {
        size_t row = k % dim;
        if (row >= weights.size())
            continue;
        for (size_t d = 0; d < dim; ++d) {
            size_t col = (row + d) % dim;
            int offset = row + d < dim
                             ? static_cast<int>(d)
                             : static_cast<int>(d) - static_cast<int>(dim);
            diags[offset][k] = {weights[row][col], 0.0};
        }
    }
    return diags;
}

EncryptedMlp::EncryptedMlp(
    std::shared_ptr<const CkksContext> ctx_,
    std::vector<std::vector<std::vector<double>>> layers, size_t dim)
    : ctx(std::move(ctx_)), weights(std::move(layers)), block_dim(dim)
{
    MAD_REQUIRE(!weights.empty(), "need at least one layer");
    MAD_REQUIRE(ctx->maxLevel() > depth(),
            "not enough levels for this network depth");
    for (const auto& w : weights) {
        transforms.emplace_back(
            ctx, blockDenseDiagonals(w, block_dim, ctx->slots()),
            ctx->scale());
    }
}

std::vector<int>
EncryptedMlp::requiredRotations() const
{
    std::vector<int> steps;
    for (const auto& t : transforms) {
        auto s = t.requiredRotations();
        steps.insert(steps.end(), s.begin(), s.end());
    }
    return steps;
}

Ciphertext
EncryptedMlp::infer(const Evaluator& eval, const CkksEncoder& encoder,
                    const Ciphertext& input, const GaloisKeys& gks,
                    const SwitchingKey& rlk) const
{
    TELEM_SPAN("MlpInfer");
    Ciphertext ct = transforms[0].apply(eval, encoder, input, gks);
    for (size_t layer = 1; layer < transforms.size(); ++layer) {
        ct = eval.square(ct, rlk);
        ct = transforms[layer].apply(eval, encoder, ct, gks);
    }
    return ct;
}

graph::Graph
EncryptedMlp::buildInferGraph(size_t input_level, double input_scale) const
{
    graph::GraphBuilder b;
    const size_t lvl = input_level == 0 ? ctx->maxLevel() : input_level;
    const double scl = input_scale == 0.0 ? ctx->scale() : input_scale;
    graph::NodeRef ct = b.input(lvl, scl);
    ct = b.matVec(ct, &transforms[0]);
    for (size_t layer = 1; layer < transforms.size(); ++layer) {
        ct = b.square(ct);
        ct = b.matVec(ct, &transforms[layer]);
    }
    b.output(ct);
    return b.build();
}

Ciphertext
EncryptedMlp::inferGraph(const EvalBackend& backend, const Ciphertext& input,
                         const GaloisKeys& gks, const SwitchingKey& rlk,
                         const graph::PassOptions& popts,
                         graph::PassStats* stats) const
{
    TELEM_SPAN("MlpInferGraph");
    graph::Graph g = buildInferGraph();
    const graph::PassStats st = graph::runPasses(g, *ctx, popts);
    if (stats != nullptr)
        *stats = st;
    graph::GraphExecutor exec(backend, &rlk, &gks);
    return exec.run(g, {input}).at(0);
}

std::vector<double>
EncryptedMlp::inferPlain(const std::vector<double>& sample) const
{
    MAD_REQUIRE(sample.size() == block_dim, "sample width must equal dim");
    std::vector<double> cur = sample;
    for (size_t layer = 0; layer < weights.size(); ++layer) {
        const auto& w = weights[layer];
        std::vector<double> next(block_dim, 0.0);
        for (size_t r = 0; r < w.size(); ++r) {
            double acc = 0;
            for (size_t c = 0; c < block_dim; ++c)
                acc += w[r][c] * cur[c];
            next[r] = acc;
        }
        if (layer + 1 < weights.size()) {
            for (auto& v : next)
                v = v * v;
        }
        cur = std::move(next);
    }
    return cur;
}

} // namespace apps
} // namespace madfhe
