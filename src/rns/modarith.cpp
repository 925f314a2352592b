#include "rns/modarith.h"

namespace madfhe {

Modulus::Modulus(u64 q)
{
    MAD_REQUIRE(q >= 3 && (q & 1) == 1, "modulus must be an odd number >= 3");
    MAD_REQUIRE(q < (1ULL << 62), "modulus must be < 2^62");
    _value = q;
    // floor(2^128 / q) computed by long division of 2^128 by q.
    u128 numer = ~static_cast<u128>(0); // 2^128 - 1
    barrett = numer / q;
    // Account for the remainder: floor((2^128 - 1)/q) == floor(2^128/q)
    // unless q divides 2^128, impossible for odd q > 1.
    _bits = floorLog2(q) + 1;
}

u64
Modulus::pow(u64 a, u64 e) const
{
    u64 base = a >= _value ? reduce(a) : a;
    u64 result = 1;
    while (e) {
        if (e & 1)
            result = mul(result, base);
        base = mul(base, base);
        e >>= 1;
    }
    return result;
}

u64
Modulus::inverse(u64 a) const
{
    u64 r = a % _value;
    MAD_REQUIRE(r != 0, "inverse of zero mod q");
    // Fermat: a^(q-2) mod q.
    return pow(r, _value - 2);
}

namespace {

u64
mulmod64(u64 a, u64 b, u64 m)
{
    return static_cast<u64>((static_cast<u128>(a) * b) % m);
}

u64
powmod64(u64 a, u64 e, u64 m)
{
    u64 r = 1;
    a %= m;
    while (e) {
        if (e & 1)
            r = mulmod64(r, a, m);
        a = mulmod64(a, a, m);
        e >>= 1;
    }
    return r;
}

} // namespace

bool
isPrime(u64 n)
{
    if (n < 2)
        return false;
    for (u64 p : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL,
                  19ULL, 23ULL, 29ULL, 31ULL, 37ULL}) {
        if (n % p == 0)
            return n == p;
    }
    u64 d = n - 1;
    unsigned s = 0;
    while ((d & 1) == 0) {
        d >>= 1;
        ++s;
    }
    // This witness set is deterministic for all n < 2^64.
    for (u64 a : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL,
                  19ULL, 23ULL, 29ULL, 31ULL, 37ULL}) {
        u64 x = powmod64(a, d, n);
        if (x == 1 || x == n - 1)
            continue;
        bool composite = true;
        for (unsigned i = 1; i < s; ++i) {
            x = mulmod64(x, x, n);
            if (x == n - 1) {
                composite = false;
                break;
            }
        }
        if (composite)
            return false;
    }
    return true;
}

} // namespace madfhe
