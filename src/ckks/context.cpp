#include "ckks/context.h"

#include <cmath>

#include "rns/primegen.h"
#include "support/security.h"

namespace madfhe {

CkksContext::CkksContext(const CkksParams& params) : parms(params)
{
    parms.validate();
    const size_t n = parms.n();

    // Base prime q_0 (wide, for decryption headroom), then L scale primes
    // chosen as close to 2^log_scale as possible so the running scale stays
    // near Delta through rescaling.
    std::vector<u64> q_primes =
        generateNttPrimes(parms.first_prime_bits, n, 1);
    {
        u64 target = 1ULL << parms.log_scale;
        for (size_t i = 0; i < parms.num_levels; ++i) {
            q_primes.push_back(
                generateNttPrimeNear(target, n, q_primes));
        }
    }

    // P primes: alpha primes of the widest class so that P covers any
    // single key-switching digit product (hybrid key switching).
    std::vector<u64> p_primes;
    for (size_t i = 0; i < parms.alpha(); ++i) {
        std::vector<u64> used = q_primes;
        used.insert(used.end(), p_primes.begin(), p_primes.end());
        p_primes.push_back(
            generateNttPrimeNear(1ULL << parms.first_prime_bits, n, used));
    }

    ring_ctx = std::make_shared<RingContext>(n, q_primes, p_primes);

    const size_t num_q = ring_ctx->numQ();
    p_mod_q.resize(num_q);
    p_inv_mod_q.resize(num_q);
    for (size_t i = 0; i < num_q; ++i) {
        const Modulus& qi = ring_ctx->modulus(i);
        u64 p_mod = 1;
        for (u64 p : p_primes)
            p_mod = qi.mul(p_mod, qi.reduce(p));
        p_mod_q[i] = p_mod;
        p_inv_mod_q[i] = qi.inverse(p_mod);
    }

    rescale_inv.resize(num_q + 1);
    merged_inv.resize(num_q + 1);
    for (size_t lvl = 2; lvl <= num_q; ++lvl) {
        u64 q_top = ring_ctx->modulus(lvl - 1).value();
        rescale_inv[lvl].resize(lvl - 1);
        merged_inv[lvl].resize(lvl - 1);
        for (size_t i = 0; i + 1 < lvl; ++i) {
            const Modulus& qi = ring_ctx->modulus(i);
            rescale_inv[lvl][i] = qi.inverse(qi.reduce(q_top));
            merged_inv[lvl][i] =
                qi.mul(rescale_inv[lvl][i], p_inv_mod_q[i]);
        }
    }
}

size_t
CkksContext::digitSize(size_t j, size_t level) const
{
    size_t start = digitStart(j);
    MAD_CHECK(start < level, "digit beyond ciphertext level");
    return std::min(alpha(), level - start);
}

std::vector<u32>
CkksContext::raisedIndices(size_t level) const
{
    std::vector<u32> idx = ring_ctx->qIndices(level);
    auto p = ring_ctx->pIndices();
    idx.insert(idx.end(), p.begin(), p.end());
    return idx;
}

std::vector<u32>
CkksContext::keyIndices() const
{
    return raisedIndices(maxLevel());
}

const BasisConverter&
CkksContext::modUpConverter(size_t digit, size_t level) const
{
    auto key = std::make_pair(digit, level);
    std::lock_guard<std::mutex> lock(cache_mu);
    auto it = modup_cache.find(key);
    if (it != modup_cache.end())
        return *it->second;

    size_t start = digitStart(digit);
    size_t size = digitSize(digit, level);
    std::vector<u32> from_idx;
    for (size_t i = 0; i < size; ++i)
        from_idx.push_back(static_cast<u32>(start + i));
    std::vector<u32> to_idx;
    for (size_t i = 0; i < level; ++i) {
        if (i < start || i >= start + size)
            to_idx.push_back(static_cast<u32>(i));
    }
    for (u32 p : ring_ctx->pIndices())
        to_idx.push_back(p);

    auto conv = std::make_unique<BasisConverter>(ring_ctx->basisOf(from_idx),
                                                 ring_ctx->basisOf(to_idx));
    return *modup_cache.emplace(key, std::move(conv)).first->second;
}

const BasisConverter&
CkksContext::modDownConverter(size_t level) const
{
    std::lock_guard<std::mutex> lock(cache_mu);
    auto it = moddown_cache.find(level);
    if (it != moddown_cache.end())
        return *it->second;
    auto conv = std::make_unique<BasisConverter>(
        ring_ctx->basisOf(ring_ctx->pIndices()),
        ring_ctx->basisOf(ring_ctx->qIndices(level)));
    return *moddown_cache.emplace(level, std::move(conv)).first->second;
}

const BasisConverter&
CkksContext::mergedModDownConverter(size_t level) const
{
    MAD_REQUIRE(level >= 2, "merged ModDown needs at least two limbs");
    std::lock_guard<std::mutex> lock(cache_mu);
    auto it = merged_cache.find(level);
    if (it != merged_cache.end())
        return *it->second;
    std::vector<u32> from_idx;
    from_idx.push_back(static_cast<u32>(level - 1)); // the rescale limb
    for (u32 p : ring_ctx->pIndices())
        from_idx.push_back(p);
    auto conv = std::make_unique<BasisConverter>(
        ring_ctx->basisOf(from_idx),
        ring_ctx->basisOf(ring_ctx->qIndices(level - 1)));
    return *merged_cache.emplace(level, std::move(conv)).first->second;
}

double
CkksContext::logQP() const
{
    double acc = 0;
    for (size_t i = 0; i < ring_ctx->numModuli(); ++i)
        acc += std::log2(static_cast<double>(ring_ctx->modulus(i).value()));
    return acc;
}

double
CkksContext::securityBits() const
{
    return estimateSecurityBits(parms.log_n, logQP());
}

u64
CkksContext::rescaleInv(size_t level, size_t i) const
{
    MAD_CHECK(level >= 2 && level < rescale_inv.size() && i + 1 < level,
          "rescaleInv index out of range");
    return rescale_inv[level][i];
}

u64
CkksContext::mergedInv(size_t level, size_t i) const
{
    MAD_CHECK(level >= 2 && level < merged_inv.size() && i + 1 < level,
          "mergedInv index out of range");
    return merged_inv[level][i];
}

} // namespace madfhe
