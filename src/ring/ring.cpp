#include "ring/ring.h"

namespace madfhe {

RingContext::RingContext(size_t n_, std::vector<u64> q_primes,
                         std::vector<u64> p_primes)
    : n(n_), num_q(q_primes.size())
{
    MAD_REQUIRE(isPowerOfTwo(n) && n >= 8, "ring degree must be a power of two >= 8");
    MAD_REQUIRE(!q_primes.empty(), "need at least one ciphertext modulus");
    logn = floorLog2(n);

    std::vector<u64> all = std::move(q_primes);
    all.insert(all.end(), p_primes.begin(), p_primes.end());
    mods.reserve(all.size());
    ntts.reserve(all.size());
    for (u64 q : all) {
        MAD_REQUIRE(isPrime(q), "modulus chain entries must be prime");
        MAD_REQUIRE(q % (2 * n) == 1, "moduli must be 1 mod 2N for the NTT");
        mods.emplace_back(q);
        ntts.emplace_back(NttTables::get(n, mods.back()));
    }
}

std::vector<u32>
RingContext::qIndices(size_t count) const
{
    MAD_REQUIRE(count <= num_q, "requested more Q limbs than the chain has");
    std::vector<u32> idx(count);
    for (size_t i = 0; i < count; ++i)
        idx[i] = static_cast<u32>(i);
    return idx;
}

std::vector<u32>
RingContext::pIndices() const
{
    std::vector<u32> idx(numP());
    for (size_t i = 0; i < idx.size(); ++i)
        idx[i] = static_cast<u32>(num_q + i);
    return idx;
}

RnsBasis
RingContext::basisOf(const std::vector<u32>& chain_indices) const
{
    std::vector<Modulus> m;
    m.reserve(chain_indices.size());
    for (u32 i : chain_indices) {
        MAD_CHECK(i < mods.size(), "chain index out of range");
        m.push_back(mods[i]);
    }
    return RnsBasis(std::move(m));
}

const std::vector<u32>&
RingContext::evalPermutation(u64 t) const
{
    MAD_REQUIRE((t & 1) == 1 && t < 2 * n, "Galois element must be odd, < 2N");
    std::lock_guard<std::mutex> lock(cache_mu);
    auto it = eval_perm_cache.find(t);
    if (it != eval_perm_cache.end())
        return it->second;

    // Slot k of the evaluation representation holds a(psi^(2k+1)).
    // (sigma_t a)(psi^(2k+1)) = a(psi^(t(2k+1) mod 2N)), and t odd keeps the
    // exponent odd, so this is the permutation k -> (t(2k+1) mod 2N - 1)/2.
    std::vector<u32> perm(n);
    for (size_t k = 0; k < n; ++k) {
        u64 e = (t * (2 * k + 1)) % (2 * n);
        perm[k] = static_cast<u32>((e - 1) / 2);
    }
    return eval_perm_cache.emplace(t, std::move(perm)).first->second;
}

const CoeffAutomorphism&
RingContext::coeffAutomorphism(u64 t) const
{
    MAD_REQUIRE((t & 1) == 1 && t < 2 * n, "Galois element must be odd, < 2N");
    std::lock_guard<std::mutex> lock(cache_mu);
    auto it = coeff_auto_cache.find(t);
    if (it != coeff_auto_cache.end())
        return it->second;

    // x^i -> x^(i t mod 2N); exponents >= N wrap with a sign flip since
    // x^N = -1.
    CoeffAutomorphism aut;
    aut.index.resize(n);
    aut.negate.resize(n);
    for (size_t i = 0; i < n; ++i) {
        u64 e = (i * t) % (2 * n);
        if (e < n) {
            aut.index[i] = static_cast<u32>(e);
            aut.negate[i] = 0;
        } else {
            aut.index[i] = static_cast<u32>(e - n);
            aut.negate[i] = 1;
        }
    }
    return coeff_auto_cache.emplace(t, std::move(aut)).first->second;
}

u64
RingContext::galoisElt(int step) const
{
    // Rotations act on the n/2 plaintext slots through powers of g = 5,
    // which generates the subgroup of Z_{2N}^* fixing the slot pairing.
    const u64 m = 2 * n;
    size_t slots = n / 2;
    long long r = step % static_cast<long long>(slots);
    if (r < 0)
        r += slots;
    u64 g = 1;
    for (long long i = 0; i < r; ++i)
        g = (g * 5) % m;
    return g;
}

} // namespace madfhe
