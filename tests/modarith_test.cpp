/**
 * @file
 * Unit and property tests for word-sized modular arithmetic.
 */
#include <gtest/gtest.h>

#include "rns/modarith.h"
#include "support/random.h"

namespace madfhe {
namespace {

TEST(Modulus, RejectsEvenAndTiny)
{
    EXPECT_THROW(Modulus(4), std::invalid_argument);
    EXPECT_THROW(Modulus(1), std::invalid_argument);
    EXPECT_THROW(Modulus(1ULL << 62), std::invalid_argument);
}

TEST(Modulus, AddSubNegBasics)
{
    Modulus q(17);
    EXPECT_EQ(q.add(16, 5), 4u);
    EXPECT_EQ(q.sub(3, 5), 15u);
    EXPECT_EQ(q.neg(0), 0u);
    EXPECT_EQ(q.neg(5), 12u);
}

TEST(Modulus, MulMatchesNaive)
{
    Modulus q(0x1FFFFFFFFFE00001ULL); // 61-bit NTT prime
    Prng rng(42);
    for (int i = 0; i < 2000; ++i) {
        u64 a = rng.uniform(q.value());
        u64 b = rng.uniform(q.value());
        u64 expect = static_cast<u64>(
            (static_cast<u128>(a) * b) % q.value());
        EXPECT_EQ(q.mul(a, b), expect);
    }
}

TEST(Modulus, Reduce128RandomAgainstNative)
{
    Modulus q(998244353); // small NTT prime
    Prng rng(7);
    for (int i = 0; i < 2000; ++i) {
        u128 x = (static_cast<u128>(rng.next()) << 64) | rng.next();
        EXPECT_EQ(q.reduce128(x), static_cast<u64>(x % q.value()));
    }
}

TEST(Modulus, ShoupMatchesBarrett)
{
    Modulus q(0x0FFFFFFFFFFC0001ULL);
    ASSERT_TRUE(isPrime(q.value()));
    Prng rng(11);
    for (int i = 0; i < 2000; ++i) {
        u64 a = rng.uniform(q.value());
        u64 w = rng.uniform(q.value());
        u64 pre = q.shoupPrecompute(w);
        EXPECT_EQ(q.mulShoup(a, w, pre), q.mul(a, w));
    }
}

TEST(Modulus, ShoupIsExactForAnyWord)
{
    // The basis-conversion overshoot correction multiplies an unreduced
    // 64-bit count by a fixed residue with mulShoup: it must equal the
    // reduce-then-multiply result for every word, not only for a < q.
    Prng rng(11);
    for (u64 qv : {17ULL, 0x1FFFFFFFFFE00001ULL, (1ULL << 62) - 57}) {
        Modulus q(qv);
        for (int i = 0; i < 2000; ++i) {
            const u64 w = rng.uniform(q.value());
            const u64 ws = q.shoupPrecompute(w);
            const u64 a = i < 4 ? ~u64{0} - static_cast<u64>(i)
                                : rng.uniform(~u64{0});
            EXPECT_EQ(q.mulShoup(a, w, ws), q.mul(q.reduce(a), w))
                << "q=" << qv << " a=" << a << " w=" << w;
        }
    }
}

TEST(Modulus, AddSubMatchNaive)
{
    Modulus q(0x1FFFFFFFFFE00001ULL);
    Prng rng(12);
    for (int i = 0; i < 2000; ++i) {
        const u64 a = i == 0 ? q.value() - 1 : rng.uniform(q.value());
        const u64 b = i == 0 ? q.value() - 1 : rng.uniform(q.value());
        const u128 qq = q.value();
        EXPECT_EQ(q.add(a, b), static_cast<u64>((u128{a} + b) % qq));
        EXPECT_EQ(q.sub(a, b), static_cast<u64>((u128{a} + qq - b) % qq));
    }
}

TEST(Modulus, PowAndInverse)
{
    Modulus q(65537);
    EXPECT_EQ(q.pow(3, 0), 1u);
    EXPECT_EQ(q.pow(3, 1), 3u);
    EXPECT_EQ(q.pow(2, 16), 65536u);
    Prng rng(3);
    for (int i = 0; i < 500; ++i) {
        u64 a = 1 + rng.uniform(q.value() - 1);
        u64 inv = q.inverse(a);
        EXPECT_EQ(q.mul(a, inv), 1u);
    }
    EXPECT_THROW(q.inverse(0), std::invalid_argument);
}

TEST(Modulus, SignedRoundTrip)
{
    Modulus q(1000003);
    for (i64 v : {0LL, 1LL, -1LL, 500001LL, -500001LL, 123456789LL,
                  -987654321LL}) {
        u64 r = q.fromSigned(v);
        EXPECT_LT(r, q.value());
        i64 back = q.toSigned(r);
        i64 expect = v % static_cast<i64>(q.value());
        if (expect > static_cast<i64>(q.value() / 2))
            expect -= q.value();
        if (expect < -static_cast<i64>(q.value() / 2))
            expect += q.value();
        EXPECT_EQ(back, expect) << "v=" << v;
    }
}

TEST(IsPrime, KnownValues)
{
    EXPECT_FALSE(isPrime(0));
    EXPECT_FALSE(isPrime(1));
    EXPECT_TRUE(isPrime(2));
    EXPECT_TRUE(isPrime(3));
    EXPECT_FALSE(isPrime(4));
    EXPECT_TRUE(isPrime(998244353));
    EXPECT_FALSE(isPrime(998244353ULL * 3));
    EXPECT_TRUE(isPrime(0x1FFFFFFFFFE00001ULL));
    EXPECT_FALSE(isPrime((1ULL << 61) - 3));
    EXPECT_TRUE(isPrime((1ULL << 61) - 1)); // Mersenne prime M61
    // Carmichael numbers must not fool the test.
    EXPECT_FALSE(isPrime(561));
    EXPECT_FALSE(isPrime(41041));
    EXPECT_FALSE(isPrime(825265));
}

class ModulusSweep : public ::testing::TestWithParam<u64>
{
};

TEST_P(ModulusSweep, FieldAxiomsHold)
{
    Modulus q(GetParam());
    Prng rng(GetParam());
    for (int i = 0; i < 300; ++i) {
        u64 a = rng.uniform(q.value());
        u64 b = rng.uniform(q.value());
        u64 c = rng.uniform(q.value());
        // Commutativity and associativity.
        EXPECT_EQ(q.mul(a, b), q.mul(b, a));
        EXPECT_EQ(q.mul(q.mul(a, b), c), q.mul(a, q.mul(b, c)));
        // Distributivity.
        EXPECT_EQ(q.mul(a, q.add(b, c)), q.add(q.mul(a, b), q.mul(a, c)));
        // Additive inverse.
        EXPECT_EQ(q.add(a, q.neg(a)), 0u);
        // Subtraction consistency.
        EXPECT_EQ(q.sub(a, b), q.add(a, q.neg(b)));
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, ModulusSweep,
    ::testing::Values(3ULL, 65537ULL, 998244353ULL, 4293918721ULL,
                      1125899906826241ULL, 0x0FFFFFFFFFFC0001ULL,
                      0x1FFFFFFFFFE00001ULL));

} // namespace
} // namespace madfhe
