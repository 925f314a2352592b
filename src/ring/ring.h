/**
 * @file
 * RingContext: the cyclotomic ring R = Z[x]/(x^N + 1) together with the full
 * RNS modulus chain (Q primes q_0..q_L followed by the P primes used for
 * key-switching, Table 1), NTT tables per modulus, and cached automorphism
 * permutation tables.
 */
#ifndef MADFHE_RING_RING_H
#define MADFHE_RING_RING_H

#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "rns/basis.h"
#include "rns/ntt.h"

namespace madfhe {

/** Coefficient-domain action of a Galois automorphism x -> x^t. */
struct CoeffAutomorphism
{
    /** Destination index for each source coefficient. */
    std::vector<u32> index;
    /** True where the wrapped coefficient picks up a minus sign. */
    std::vector<u8> negate;
};

class RingContext
{
  public:
    /**
     * @param n Ring degree N (power of two).
     * @param q_primes Ciphertext modulus chain q_0 ... q_L (q_0 is the base).
     * @param p_primes Raised-modulus primes (the P of key switching).
     */
    RingContext(size_t n, std::vector<u64> q_primes,
                std::vector<u64> p_primes);

    size_t degree() const { return n; }
    unsigned logDegree() const { return logn; }

    /** Number of Q-chain primes (L + 1 in the paper's notation). */
    size_t numQ() const { return num_q; }
    /** Number of P primes (alpha, with dnum-style key switching). */
    size_t numP() const { return mods.size() - num_q; }
    /** Total moduli in the global chain (Q then P). */
    size_t numModuli() const { return mods.size(); }

    const Modulus& modulus(size_t chain_idx) const { return mods[chain_idx]; }
    const NttTables& ntt(size_t chain_idx) const { return *ntts[chain_idx]; }

    /** Chain indices [0, count) — the first `count` Q limbs. */
    std::vector<u32> qIndices(size_t count) const;
    /** Chain indices of all P limbs. */
    std::vector<u32> pIndices() const;

    /** Build an RnsBasis from chain indices. */
    RnsBasis basisOf(const std::vector<u32>& chain_indices) const;

    /**
     * Evaluation-domain permutation for the automorphism x -> x^t
     * (t odd, mod 2N): result[k] = source[perm[k]].
     */
    const std::vector<u32>& evalPermutation(u64 t) const;

    /** Coefficient-domain automorphism action for x -> x^t. */
    const CoeffAutomorphism& coeffAutomorphism(u64 t) const;

    /** Galois element for a rotation by `step` plaintext slots (g = 5). */
    u64 galoisElt(int step) const;
    /** Galois element for complex conjugation (2N - 1). */
    u64 conjugateElt() const { return 2 * n - 1; }

  private:
    size_t n;
    unsigned logn;
    size_t num_q;
    std::vector<Modulus> mods;
    /** Shared via the process-wide NttTables::get() memo, so contexts
     *  over the same primes reuse one table set. */
    std::vector<std::shared_ptr<const NttTables>> ntts;

    /** Guards the lazily built permutation caches below; map nodes never
     *  move, so returned references stay valid unlocked. */
    mutable std::mutex cache_mu;
    mutable std::map<u64, std::vector<u32>> eval_perm_cache;
    mutable std::map<u64, CoeffAutomorphism> coeff_auto_cache;
};

} // namespace madfhe

#endif // MADFHE_RING_RING_H
