/**
 * @file
 * CKKS encoder: maps complex vectors of length n = N/2 into ring elements
 * through the canonical embedding (slot j lives at the evaluation point
 * zeta^(5^j), zeta = exp(i*pi/N)), and decodes back via exact CRT
 * recomposition plus the forward embedding.
 */
#ifndef MADFHE_CKKS_ENCODER_H
#define MADFHE_CKKS_ENCODER_H

#include <complex>
#include <map>
#include <mutex>

#include "ckks/context.h"
#include "ckks/ciphertext.h"

namespace madfhe {

class CkksEncoder
{
  public:
    explicit CkksEncoder(std::shared_ptr<const CkksContext> ctx);
    ~CkksEncoder(); // out-of-line: CrtTables is an incomplete type here

    size_t slots() const { return num_slots; }

    /**
     * Encode `values` (padded with zeros up to n/2 slots) at the given
     * scale into a plaintext with `level` limbs, evaluation representation.
     */
    Plaintext encode(const std::vector<std::complex<double>>& values,
                     double scale, size_t level) const;

    /** Convenience overload for real vectors. */
    Plaintext encodeReal(const std::vector<double>& values, double scale,
                         size_t level) const;

    /** Encode the same scalar into every slot. */
    Plaintext encodeScalar(std::complex<double> value, double scale,
                           size_t level) const;

    /**
     * Encode over the raised basis Q[0,level) + P, for multiplying
     * raised-basis ciphertexts (ModDown hoisting keeps PtMult operands in
     * the raised basis — Section 3.2).
     */
    Plaintext encodeRaised(const std::vector<std::complex<double>>& values,
                           double scale, size_t level) const;

    /** Decode a plaintext back to n/2 complex slot values. */
    std::vector<std::complex<double>> decode(const Plaintext& pt) const;

    /**
     * Exact centered CRT recomposition of one polynomial (coefficient rep)
     * to doubles. Exposed for tests and for noise measurement.
     */
    std::vector<double> decodeCoefficients(const RnsPoly& poly) const;

  private:
    struct CrtTables;
    const CrtTables& crtTables(size_t level) const;

    void fftInverse(std::vector<std::complex<double>>& a) const;
    void fftForward(std::vector<std::complex<double>>& a) const;

    std::shared_ptr<const CkksContext> ctx;
    size_t n;
    size_t num_slots;
    /** index of slot j in the full odd-power evaluation array. */
    std::vector<u32> slot_index;
    /** index of the conjugate evaluation point of slot j. */
    std::vector<u32> conj_index;
    /** 2N-th complex roots of unity zeta^i, i in [0, 2N). */
    std::vector<std::complex<double>> zeta;
    std::vector<u32> bitrev;

    /** Guards crt_cache; map nodes never move, so returned references
     *  stay valid unlocked. */
    mutable std::mutex cache_mu;
    mutable std::map<size_t, std::unique_ptr<CrtTables>> crt_cache;
};

} // namespace madfhe

#endif // MADFHE_CKKS_ENCODER_H
