/**
 * @file
 * PtMatVecMult: homomorphic plaintext-matrix x ciphertext-vector products
 * via the diagonal (BSGS) method, in the one schedule of the paper's
 * Figure 5: Decomp+ModUp runs once for all baby-step rotations (ModUp
 * hoisting), each giant step accumulates its plaintext products in the
 * raised basis as in-place multiply-accumulates, and pays a single
 * ModDown pair before its giant rotation (MAD ModDown hoisting).
 */
#ifndef MADFHE_CKKS_MATVEC_H
#define MADFHE_CKKS_MATVEC_H

#include "ckks/evaluator.h"

namespace madfhe {

struct MatVecOptions
{
    /** Baby-step count; 0 = ceil(sqrt(#diagonals)). */
    size_t baby_steps = 0;
};

/**
 * A linear map on slot vectors, given by its nonzero (generalized)
 * diagonals: y[k] = sum_d diag_d[k] * x[(k + d) mod slots].
 */
class LinearTransform
{
  public:
    LinearTransform(std::shared_ptr<const CkksContext> ctx,
                    std::map<int, std::vector<std::complex<double>>> diagonals,
                    double pt_scale, MatVecOptions options = {});

    /** Rotation steps apply() will need Galois keys for. */
    std::vector<int> requiredRotations() const;

    /**
     * Apply to a ciphertext; consumes one level (the product is rescaled).
     * Every diagonal after a giant step's first is one in-place raised
     * multiply-accumulate (RnsPoly::addMul: 1 write + 3 reads per limb).
     */
    Ciphertext apply(const Evaluator& eval, const CkksEncoder& encoder,
                     const Ciphertext& ct, const GaloisKeys& gks) const;

    /** Reference slot-domain evaluation, for testing. */
    std::vector<std::complex<double>>
    applyPlain(const std::vector<std::complex<double>>& x) const;

    size_t numDiagonals() const { return diags.size(); }
    /** Plaintext encoding scale apply() uses (the virtual backend mirrors
     *  the resulting output scale: in.scale * ptScale() / q_top). */
    double ptScale() const { return pt_scale; }
    /** Largest |diagonal entry| — the pt_mag bound noise tracking needs. */
    double maxDiagonalMagnitude() const;

  private:
    size_t babySteps() const;

    std::shared_ptr<const CkksContext> ctx;
    std::map<int, std::vector<std::complex<double>>> diags;
    double pt_scale;
    MatVecOptions opts;
};

} // namespace madfhe

#endif // MADFHE_CKKS_MATVEC_H
