/**
 * @file
 * Scalar reference implementations of the dispatch table. These are the
 * semantics every vector backend must reproduce bit-for-bit; they mirror
 * the pre-SIMD inner loops of rns/ntt.cpp, ring/poly.cpp and
 * rns/basis.cpp exactly.
 */
#include "rns/simd/simd.h"

namespace madfhe {
namespace simd {

namespace {

void
nttStage(u64* p, size_t n, size_t m, const u64* tw, const u64* tw_shoup,
         u64 q, u64 two_q)
{
    for (size_t i = 0; i < n; i += 2 * m) {
        for (size_t j = 0; j < m; ++j) {
            const u64 w = tw[j];
            const u64 ws = tw_shoup[j];
            u64 x = p[i + j];
            if (x >= two_q)
                x -= two_q;
            u64 hi = static_cast<u64>(
                (static_cast<u128>(p[i + j + m]) * ws) >> 64);
            u64 y = p[i + j + m] * w - hi * q;
            p[i + j] = x + y;
            p[i + j + m] = x + two_q - y;
        }
    }
}

void
reduce4q(u64* p, size_t n, u64 q, u64 two_q)
{
    for (size_t i = 0; i < n; ++i) {
        u64 v = p[i];
        if (v >= two_q)
            v -= two_q;
        if (v >= q)
            v -= q;
        p[i] = v;
    }
}

inline u64
mulShoup(u64 a, u64 w, u64 ws, u64 q)
{
    u64 hi = static_cast<u64>((static_cast<u128>(a) * ws) >> 64);
    u64 r = a * w - hi * q;
    return r >= q ? r - q : r;
}

void
mulShoupVec(u64* a, const u64* w, const u64* w_shoup, size_t n, u64 q)
{
    for (size_t i = 0; i < n; ++i)
        a[i] = mulShoup(a[i], w[i], w_shoup[i], q);
}

void
mulShoupScalar(u64* dst, const u64* src, size_t n, u64 w, u64 w_shoup,
               u64 q)
{
    for (size_t i = 0; i < n; ++i)
        dst[i] = mulShoup(src[i], w, w_shoup, q);
}

void
mulModVec(u64* a, const u64* b, size_t n, const Modulus& q)
{
    for (size_t i = 0; i < n; ++i)
        a[i] = q.mul(a[i], b[i]);
}

void
addMulModVec(u64* dst, const u64* a, const u64* b, size_t n,
             const Modulus& q)
{
    for (size_t i = 0; i < n; ++i)
        dst[i] = q.add(dst[i], q.mul(a[i], b[i]));
}

void
newlimbAcc(const u64* const* rows, size_t n, const u64* punct, size_t k,
           u64 q, u64 r64, u64 r64_shoup, u64 pre1, u64* out)
{
    // 128-bit lazy accumulation, folded with the Shoup constants the
    // vector backends use: acc mod q = (acc_hi * (2^64 mod q) +
    // barrett64(acc_lo)) mod q. Flushing every 16 terms keeps the 128-bit
    // accumulator overflow-free for q up to the 2^62 bound (16 products
    // below 2^124 sum to under 2^128).
    for (size_t c = 0; c < n; ++c) {
        u64 result = 0;
        for (size_t base = 0; base < k; base += 16) {
            const size_t chunk = k - base < 16 ? k - base : 16;
            u128 acc = 0;
            for (size_t i = 0; i < chunk; ++i)
                acc += static_cast<u128>(rows[base + i][c]) * punct[base + i];
            const u64 acc_hi = static_cast<u64>(acc >> 64);
            const u64 acc_lo = static_cast<u64>(acc);
            // hi * 2^64 mod q via Shoup (lazy, < 2q) ...
            u64 h = static_cast<u64>(
                (static_cast<u128>(acc_hi) * r64_shoup) >> 64);
            u64 m1 = acc_hi * r64 - h * q;
            // ... plus acc_lo reduced under 2q with the pre1 =
            // floor(2^64/q) quotient estimate.
            u64 qe =
                static_cast<u64>((static_cast<u128>(acc_lo) * pre1) >> 64);
            u64 m2 = acc_lo - qe * q;
            u64 r = m1 + m2; // < 4q < 2^64
            if (r >= 2 * q)
                r -= 2 * q;
            if (r >= q)
                r -= q;
            u64 s = result + r;
            result = s >= q ? s - q : s;
        }
        out[c] = result;
    }
}

const Kernels kScalar = {
    "scalar", "simd.scalar", 1,        nttStage,     reduce4q,
    mulShoupVec, mulShoupScalar, mulModVec, addMulModVec, newlimbAcc,
    nullptr, // fp_transform: the unfused scalar path IS the reference
};

} // namespace

const Kernels*
scalarKernels()
{
    return &kScalar;
}

} // namespace simd
} // namespace madfhe
