#include "ckks/encoder.h"

#include <cmath>

#include "memtrace/trace.h"
#include "support/bigint.h"

namespace madfhe {

/** Per-level exact CRT recomposition tables. */
struct CkksEncoder::CrtTables
{
    BigUint q;             ///< Q = prod of the first `level` limbs.
    BigUint q_half;        ///< floor(Q / 2), for centering.
    std::vector<BigUint> q_star;   ///< Q / q_i.
    std::vector<u64> q_tilde;      ///< (Q/q_i)^{-1} mod q_i.
};

CkksEncoder::~CkksEncoder() = default;

CkksEncoder::CkksEncoder(std::shared_ptr<const CkksContext> ctx_)
    : ctx(std::move(ctx_))
{
    n = ctx->degree();
    num_slots = n / 2;

    zeta.resize(2 * n);
    const double pi = std::acos(-1.0);
    for (size_t i = 0; i < 2 * n; ++i) {
        double angle = pi * static_cast<double>(i) / static_cast<double>(n);
        zeta[i] = {std::cos(angle), std::sin(angle)};
    }

    slot_index.resize(num_slots);
    conj_index.resize(num_slots);
    u64 pow5 = 1;
    const u64 m = 2 * n;
    for (size_t j = 0; j < num_slots; ++j) {
        slot_index[j] = static_cast<u32>((pow5 - 1) / 2);
        conj_index[j] = static_cast<u32>((m - pow5 - 1) / 2);
        pow5 = (pow5 * 5) % m;
    }

    unsigned logn = floorLog2(n);
    bitrev.resize(n);
    for (size_t i = 0; i < n; ++i) {
        u32 r = 0;
        for (unsigned b = 0; b < logn; ++b)
            r |= ((i >> b) & 1) << (logn - 1 - b);
        bitrev[i] = r;
    }
}

namespace {

void
cyclicFft(std::vector<std::complex<double>>& a,
          const std::vector<std::complex<double>>& zeta,
          const std::vector<u32>& bitrev, bool inverse)
{
    const size_t n = a.size();
    for (size_t i = 0; i < n; ++i) {
        u32 r = bitrev[i];
        if (r > i)
            std::swap(a[i], a[r]);
    }
    // omega = zeta^2 is a primitive n-th root; stage twiddles are powers of
    // omega^(n/2m) = zeta^(n/m).
    for (size_t mstage = 1; mstage < n; mstage <<= 1) {
        size_t stride = n / mstage; // exponent step in zeta table (2n-sized)
        for (size_t i = 0; i < n; i += 2 * mstage) {
            for (size_t j = 0; j < mstage; ++j) {
                size_t e = (j * stride) % (2 * n);
                std::complex<double> w =
                    inverse ? std::conj(zeta[e]) : zeta[e];
                auto x = a[i + j];
                auto y = a[i + j + mstage] * w;
                a[i + j] = x + y;
                a[i + j + mstage] = x - y;
            }
        }
    }
}

} // namespace

void
CkksEncoder::fftForward(std::vector<std::complex<double>>& a) const
{
    // Twist by zeta^i then cyclic FFT: output t = a(zeta^(2t+1)).
    for (size_t i = 0; i < n; ++i)
        a[i] *= zeta[i];
    cyclicFft(a, zeta, bitrev, /*inverse=*/false);
}

void
CkksEncoder::fftInverse(std::vector<std::complex<double>>& a) const
{
    cyclicFft(a, zeta, bitrev, /*inverse=*/true);
    const double inv_n = 1.0 / static_cast<double>(n);
    for (size_t i = 0; i < n; ++i)
        a[i] *= inv_n * std::conj(zeta[i]);
}

Plaintext
CkksEncoder::encode(const std::vector<std::complex<double>>& values,
                    double scale, size_t level) const
{
    MAD_REQUIRE(values.size() <= num_slots, "too many values for slot count");
    MAD_REQUIRE(scale > 0, "scale must be positive");
    MAD_REQUIRE(level >= 1 && level <= ctx->maxLevel(), "bad level");

    std::vector<std::complex<double>> a(n, {0.0, 0.0});
    for (size_t j = 0; j < values.size(); ++j) {
        a[slot_index[j]] = values[j];
        a[conj_index[j]] = std::conj(values[j]);
    }
    fftInverse(a);

    std::vector<i64> coeffs(n);
    for (size_t i = 0; i < n; ++i) {
        double v = a[i].real() * scale;
        MAD_REQUIRE(std::abs(v) < 9.0e18,
                "encoded coefficient overflows 63 bits; reduce scale");
        coeffs[i] = static_cast<i64>(std::llround(v));
    }

    Plaintext pt;
    pt.poly = RnsPoly(ctx->ring(), ctx->ring()->qIndices(level), Rep::Coeff);
    // Tag before filling: the fill/NTT writes below are plaintext
    // generation, which the analytical model treats as offline.
    MAD_TRACE_TAG(pt.poly.limb(0),
                  pt.poly.numLimbs() * pt.poly.degree() * sizeof(u64),
                  memtrace::Class::Pt);
    pt.poly.setFromSigned(coeffs);
    pt.poly.toEval();
    pt.scale = scale;
    return pt;
}

Plaintext
CkksEncoder::encodeReal(const std::vector<double>& values, double scale,
                        size_t level) const
{
    std::vector<std::complex<double>> cv(values.size());
    for (size_t i = 0; i < values.size(); ++i)
        cv[i] = {values[i], 0.0};
    return encode(cv, scale, level);
}

Plaintext
CkksEncoder::encodeScalar(std::complex<double> value, double scale,
                          size_t level) const
{
    std::vector<std::complex<double>> cv(num_slots, value);
    return encode(cv, scale, level);
}

Plaintext
CkksEncoder::encodeRaised(const std::vector<std::complex<double>>& values,
                          double scale, size_t level) const
{
    MAD_REQUIRE(values.size() <= num_slots, "too many values for slot count");
    std::vector<std::complex<double>> a(n, {0.0, 0.0});
    for (size_t j = 0; j < values.size(); ++j) {
        a[slot_index[j]] = values[j];
        a[conj_index[j]] = std::conj(values[j]);
    }
    fftInverse(a);
    std::vector<i64> coeffs(n);
    for (size_t i = 0; i < n; ++i)
        coeffs[i] = static_cast<i64>(std::llround(a[i].real() * scale));

    Plaintext pt;
    pt.poly = RnsPoly(ctx->ring(), ctx->raisedIndices(level), Rep::Coeff);
    MAD_TRACE_TAG(pt.poly.limb(0),
                  pt.poly.numLimbs() * pt.poly.degree() * sizeof(u64),
                  memtrace::Class::Pt);
    pt.poly.setFromSigned(coeffs);
    pt.poly.toEval();
    pt.scale = scale;
    return pt;
}

const CkksEncoder::CrtTables&
CkksEncoder::crtTables(size_t level) const
{
    std::lock_guard<std::mutex> lock(cache_mu);
    auto it = crt_cache.find(level);
    if (it != crt_cache.end())
        return *it->second;

    auto tables = std::make_unique<CrtTables>();
    std::vector<u64> primes;
    for (size_t i = 0; i < level; ++i)
        primes.push_back(ctx->qValue(i));
    tables->q = BigUint::product(primes);
    tables->q_half = tables->q;
    tables->q_half.divModWord(2);
    tables->q_star.resize(level);
    tables->q_tilde.resize(level);
    for (size_t i = 0; i < level; ++i) {
        std::vector<u64> others;
        for (size_t j = 0; j < level; ++j)
            if (j != i)
                others.push_back(primes[j]);
        tables->q_star[i] = others.empty() ? BigUint(1)
                                           : BigUint::product(others);
        const Modulus& qi = ctx->ring()->modulus(i);
        tables->q_tilde[i] =
            qi.inverse(tables->q_star[i].modWord(qi.value()));
    }
    return *crt_cache.emplace(level, std::move(tables)).first->second;
}

std::vector<double>
CkksEncoder::decodeCoefficients(const RnsPoly& poly) const
{
    MAD_CHECK(poly.rep() == Rep::Coeff, "decodeCoefficients needs coeff rep");
    const size_t level = poly.numLimbs();
    const CrtTables& t = crtTables(level);

    std::vector<double> out(n);
    for (size_t c = 0; c < n; ++c) {
        // x = sum_i ((v_i * q~_i) mod q_i) * q*_i  (mod Q), centered.
        BigUint acc;
        for (size_t i = 0; i < level; ++i) {
            const Modulus& qi = poly.modulus(i);
            u64 scaled = qi.mul(poly.limb(i)[c], t.q_tilde[i]);
            acc.addMulWord(t.q_star[i], scaled);
        }
        // acc < level * Q; reduce mod Q by repeated subtraction.
        while (!(acc < t.q))
            acc.sub(t.q);
        if (t.q_half < acc) {
            BigUint neg = t.q;
            neg.sub(acc);
            out[c] = -neg.toDouble();
        } else {
            out[c] = acc.toDouble();
        }
    }
    return out;
}

std::vector<std::complex<double>>
CkksEncoder::decode(const Plaintext& pt) const
{
    MAD_REQUIRE(pt.scale > 0, "plaintext has no scale");
    RnsPoly poly = pt.poly;
    poly.setRep(Rep::Coeff);
    std::vector<double> coeffs = decodeCoefficients(poly);

    std::vector<std::complex<double>> a(n);
    const double inv_scale = 1.0 / pt.scale;
    for (size_t i = 0; i < n; ++i)
        a[i] = {coeffs[i] * inv_scale, 0.0};
    fftForward(a);

    std::vector<std::complex<double>> slots(num_slots);
    for (size_t j = 0; j < num_slots; ++j)
        slots[j] = a[slot_index[j]];
    return slots;
}

} // namespace madfhe
