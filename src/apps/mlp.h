/**
 * @file
 * EncryptedMlp: private inference for a small multilayer perceptron with
 * square activations. Inputs are packed block-wise (one sample per
 * `dim`-slot block, slots/dim samples per ciphertext); dense layers are
 * block-circulant PtMatVecMult linear transforms.
 */
#ifndef MADFHE_APPS_MLP_H
#define MADFHE_APPS_MLP_H

#include "ckks/matvec.h"
#include "graph/passes.h"

namespace madfhe {

class EvalBackend;

namespace apps {

/**
 * Diagonal form of a batched dense layer: the same rows x dim weight
 * matrix applied independently to every dim-slot block of the vector.
 * Exposed for testing and reuse.
 */
std::map<int, std::vector<std::complex<double>>>
blockDenseDiagonals(const std::vector<std::vector<double>>& weights,
                    size_t dim, size_t slots);

class EncryptedMlp
{
  public:
    /**
     * @param layers layers[k] is a rows x dim weight matrix; every layer
     *        consumes `dim` inputs per block (rows <= dim).
     * @param dim block width (power of two, divides the slot count).
     */
    EncryptedMlp(std::shared_ptr<const CkksContext> ctx,
                 std::vector<std::vector<std::vector<double>>> layers,
                 size_t dim);

    size_t dim() const { return block_dim; }
    size_t numLayers() const { return weights.size(); }
    /** Samples per ciphertext. */
    size_t batch() const { return ctx->slots() / block_dim; }
    /** Levels one inference consumes. */
    size_t depth() const { return 2 * numLayers() - 1; }

    std::vector<int> requiredRotations() const;

    /**
     * Encrypted forward pass: dense -> square -> dense -> ... (square
     * activation between layers, none after the last).
     */
    Ciphertext infer(const Evaluator& eval, const CkksEncoder& encoder,
                     const Ciphertext& input, const GaloisKeys& gks,
                     const SwitchingKey& rlk) const;

    /**
     * The infer() schedule as an evaluation graph: matvec -> square ->
     * matvec -> ... over the layer transforms (which must outlive the
     * graph). `input_level`/`input_scale` default (0/0.0) to the context
     * top level and scale.
     */
    graph::Graph buildInferGraph(size_t input_level = 0,
                                 double input_scale = 0.0) const;

    /**
     * infer() through the graph IR: build, run the pass pipeline,
     * execute over `backend`. Byte-identical to the imperative infer()
     * on the real backend.
     */
    Ciphertext inferGraph(const EvalBackend& backend, const Ciphertext& input,
                          const GaloisKeys& gks, const SwitchingKey& rlk,
                          const graph::PassOptions& popts = {},
                          graph::PassStats* stats = nullptr) const;

    /** Plaintext forward pass of one `dim`-sized sample. */
    std::vector<double> inferPlain(const std::vector<double>& sample) const;

  private:
    std::shared_ptr<const CkksContext> ctx;
    std::vector<std::vector<std::vector<double>>> weights;
    size_t block_dim;
    std::vector<LinearTransform> transforms;
};

} // namespace apps
} // namespace madfhe

#endif // MADFHE_APPS_MLP_H
