/**
 * @file
 * Word-sized modular arithmetic. Every CKKS limb modulus is a prime below
 * 2^62; products fit in 128 bits. `Modulus` carries the Barrett constant so
 * reductions never divide, and exposes Shoup-style precomputed multiplication
 * for the NTT hot loop.
 */
#ifndef MADFHE_RNS_MODARITH_H
#define MADFHE_RNS_MODARITH_H

#include "support/common.h"

namespace madfhe {

/**
 * An odd prime modulus q < 2^62 with precomputed Barrett constant.
 * All operations assume inputs already reduced mod q unless stated.
 */
class Modulus
{
  public:
    Modulus() = default;

    /** @param q Prime modulus; must be odd and < 2^62. */
    explicit Modulus(u64 q);

    u64 value() const { return _value; }
    unsigned bits() const { return _bits; }

    /**
     * (a + b) mod q. add/sub select the correction with a mask, not a
     * branch: on residues the branch is a coin flip, and mispredicting
     * it costs more than the arithmetic in the per-coefficient loops.
     */
    u64
    add(u64 a, u64 b) const
    {
        const u64 s = a + b;
        return s - (_value & (0 - static_cast<u64>(s >= _value)));
    }

    /** (a - b) mod q. */
    u64
    sub(u64 a, u64 b) const
    {
        return a - b + (_value & (0 - static_cast<u64>(a < b)));
    }

    /** (-a) mod q. */
    u64
    neg(u64 a) const
    {
        return a == 0 ? 0 : _value - a;
    }

    /**
     * Barrett reduction of a 128-bit value into [0, q). Inline: the
     * remaining scalar callers (tails, tiny moduli, key generation) sit
     * in per-coefficient loops where a call per element is most of the
     * cost.
     */
    u64
    reduce128(u128 x) const
    {
        // Quotient estimate: the top 128 bits of x * floor(2^128/q), from
        // 64x64->128 partial products of the 256-bit product.
        const u64 x_hi = static_cast<u64>(x >> 64);
        const u64 x_lo = static_cast<u64>(x);
        const u64 b_hi = static_cast<u64>(barrett >> 64);
        const u64 b_lo = static_cast<u64>(barrett);

        const u128 lo_lo = static_cast<u128>(x_lo) * b_lo;
        const u128 lo_hi = static_cast<u128>(x_lo) * b_hi;
        const u128 hi_lo = static_cast<u128>(x_hi) * b_lo;
        const u128 hi_hi = static_cast<u128>(x_hi) * b_hi;

        const u128 mid = lo_hi + hi_lo;
        const u128 carry_mid = mid < lo_hi ? (static_cast<u128>(1) << 64) : 0;
        const u128 mid_plus = mid + (lo_lo >> 64);
        const u128 carry2 = mid_plus < mid ? (static_cast<u128>(1) << 64) : 0;
        const u128 q_est = hi_hi + (mid_plus >> 64) + carry_mid + carry2;

        u128 r = x - q_est * _value;
        while (r >= _value)
            r -= _value;
        return static_cast<u64>(r);
    }

    /** Reduce an arbitrary 64-bit value (not necessarily < q). */
    u64 reduce(u64 x) const { return reduce128(x); }

    /** (a * b) mod q via Barrett. */
    u64
    mul(u64 a, u64 b) const
    {
        return reduce128(static_cast<u128>(a) * b);
    }

    /**
     * Shoup precomputation for a fixed multiplicand w < q:
     * returns floor(w * 2^64 / q), enabling mulShoup().
     */
    u64
    shoupPrecompute(u64 w) const
    {
        return static_cast<u64>((static_cast<u128>(w) << 64) / _value);
    }

    /**
     * (a * w) mod q where w_precon = shoupPrecompute(w). One multiply-high,
     * one multiply-low, one conditional subtract — the NTT inner loop.
     * Result is in [0, 2q); callers in hot loops may defer the correction,
     * here we fold it in for safety.
     */
    u64
    mulShoup(u64 a, u64 w, u64 w_precon) const
    {
        u64 hi = static_cast<u64>((static_cast<u128>(a) * w_precon) >> 64);
        u64 r = a * w - hi * _value;
        return r - (_value & (0 - static_cast<u64>(r >= _value)));
    }

    /**
     * Lazy Shoup multiply: result in [0, 2q), valid for any 64-bit `a`
     * (the products wrap mod 2^64 by construction). The NTT keeps
     * butterfly values in [0, 4q) and defers the final reduction — the
     * Harvey lazy-reduction trick.
     */
    u64
    mulShoupLazy(u64 a, u64 w, u64 w_precon) const
    {
        u64 hi = static_cast<u64>((static_cast<u128>(a) * w_precon) >> 64);
        return a * w - hi * _value;
    }

    /** a^e mod q by square-and-multiply. */
    u64 pow(u64 a, u64 e) const;

    /** a^{-1} mod q (q prime); requires a != 0 mod q. */
    u64 inverse(u64 a) const;

    /** Map a signed value into [0, q). */
    u64
    fromSigned(i64 v) const
    {
        i64 r = v % static_cast<i64>(_value);
        if (r < 0)
            r += static_cast<i64>(_value);
        return static_cast<u64>(r);
    }

    /** Map x in [0, q) to the centered representative in (-q/2, q/2]. */
    i64
    toSigned(u64 x) const
    {
        return x > _value / 2 ? static_cast<i64>(x) - static_cast<i64>(_value)
                              : static_cast<i64>(x);
    }

    bool operator==(const Modulus& o) const { return _value == o._value; }

  private:
    u64 _value = 0;
    u128 barrett = 0; // floor(2^128 / q)
    unsigned _bits = 0;
};

/** Deterministic Miller–Rabin primality test, valid for all 64-bit inputs. */
bool isPrime(u64 n);

} // namespace madfhe

#endif // MADFHE_RNS_MODARITH_H
