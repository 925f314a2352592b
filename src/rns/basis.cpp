#include "rns/basis.h"

#include <cmath>

#include "memtrace/trace.h"
#include "rns/simd/simd.h"
#include "support/faultinject.h"
#include "support/parallel.h"
#include "telemetry/telemetry.h"

namespace madfhe {

namespace {
faultinject::Site g_fault_basis("rns.basis_convert", faultinject::kLimbKinds);
} // namespace

RnsBasis::RnsBasis(std::vector<Modulus> moduli) : mods(std::move(moduli))
{
    MAD_REQUIRE(!mods.empty(), "RNS basis must contain at least one modulus");
    for (size_t i = 0; i < mods.size(); ++i)
        for (size_t j = i + 1; j < mods.size(); ++j)
            MAD_REQUIRE(mods[i].value() != mods[j].value(),
                    "RNS moduli must be distinct");

    inv_punctured.resize(mods.size());
    inv_punctured_shoup.resize(mods.size());
    for (size_t i = 0; i < mods.size(); ++i) {
        const Modulus& qi = mods[i];
        u64 prod = 1;
        for (size_t j = 0; j < mods.size(); ++j) {
            if (j == i)
                continue;
            prod = qi.mul(prod, qi.reduce(mods[j].value()));
        }
        inv_punctured[i] = qi.inverse(prod);
        inv_punctured_shoup[i] = qi.shoupPrecompute(inv_punctured[i]);
    }
}

u64
RnsBasis::productMod(const Modulus& p) const
{
    u64 prod = 1;
    for (const auto& q : mods)
        prod = p.mul(prod, p.reduce(q.value()));
    return prod;
}

double
RnsBasis::logProduct() const
{
    double acc = 0;
    for (const auto& q : mods)
        acc += std::log2(static_cast<double>(q.value()));
    return acc;
}

BasisConverter::BasisConverter(const RnsBasis& from_, const RnsBasis& to_)
    : from(from_), to(to_)
{
    for (size_t i = 0; i < from.size(); ++i)
        for (size_t j = 0; j < to.size(); ++j)
            MAD_REQUIRE(from[i].value() != to[j].value(),
                    "source and target bases must be disjoint");

    punctured_mod.resize(to.size());
    q_mod_target.resize(to.size());
    q_mod_target_shoup.resize(to.size());
    for (size_t j = 0; j < to.size(); ++j) {
        const Modulus& pj = to[j];
        punctured_mod[j].resize(from.size());
        for (size_t i = 0; i < from.size(); ++i) {
            u64 prod = 1;
            for (size_t k = 0; k < from.size(); ++k) {
                if (k == i)
                    continue;
                prod = pj.mul(prod, pj.reduce(from[k].value()));
            }
            punctured_mod[j][i] = prod;
        }
        q_mod_target[j] = from.productMod(pj);
        q_mod_target_shoup[j] = pj.shoupPrecompute(q_mod_target[j]);
    }
    inv_q.resize(from.size());
    for (size_t i = 0; i < from.size(); ++i)
        inv_q[i] = 1.0L / static_cast<long double>(from[i].value());

    r64_target.resize(to.size());
    r64_shoup_target.resize(to.size());
    pre1_target.resize(to.size());
    for (size_t j = 0; j < to.size(); ++j) {
        const Modulus& pj = to[j];
        r64_target[j] = pj.reduce128(static_cast<u128>(1) << 64);
        r64_shoup_target[j] = pj.shoupPrecompute(r64_target[j]);
        pre1_target[j] = pj.shoupPrecompute(1);
    }
}

namespace {

/**
 * One coefficient chunk [begin, begin + len) of every source limb, scaled
 * by (Q/q_i)^{-1} (scaleSourceRaw), with the SignedExact overshoot
 * counts (overshootRaw): exactly the inputs accumulateScaledRaw()
 * expects. The rows stay in cache while every target limb reads them.
 */
struct ScaledChunk
{
    std::vector<u64> buf;
    std::vector<const u64*> rows;
    std::vector<u64> us;

    ScaledChunk(const BasisConverter& conv, const std::vector<const u64*>& in,
                size_t begin, size_t len, ConvMode mode)
        : buf(in.size() * len)
    {
        for (size_t i = 0; i < in.size(); ++i) {
            u64* row = buf.data() + i * len;
            conv.scaleSourceRaw(in[i] + begin, len, i, row);
            rows.push_back(row);
        }
        if (mode == ConvMode::SignedExact) {
            us.resize(len);
            conv.overshootRaw(rows, len, us.data());
        }
    }

    const u64* overshootCounts() const
    {
        return us.empty() ? nullptr : us.data();
    }
};

} // namespace

void
BasisConverter::convertLimb(const std::vector<const u64*>& in, size_t n,
                            size_t target_idx, u64* out, ConvMode mode) const
{
    const size_t k = from.size();
    MAD_CHECK(in.size() == k, "source limb count mismatch");
    for (size_t i = 0; i < k; ++i)
        MAD_TRACE_READ(in[i], n * sizeof(u64));
    MAD_TRACE_WRITE(out, n * sizeof(u64));
    convertLimbRaw(in, n, target_idx, out, mode);
    faultinject::guardLimb(g_fault_basis, out, n);
}

void
BasisConverter::convertLimbRaw(const std::vector<const u64*>& in, size_t n,
                               size_t target_idx, u64* out,
                               ConvMode mode) const
{
    MAD_CHECK(in.size() == from.size(), "source limb count mismatch");
    // The scale pass is recomputed per target limb to keep this entry
    // point stateless; convert() amortizes it across all target limbs.
    // Coefficients are independent, so the index range is split across
    // the pool and each chunk carries its own scaled scratch.
    parallelForRange(n, [&](size_t begin, size_t end) {
        const ScaledChunk chunk(*this, in, begin, end - begin, mode);
        accumulateScaledRaw(chunk.rows, chunk.overshootCounts(), end - begin,
                            target_idx, out + begin);
    });
}

void
BasisConverter::scaleSourceRaw(const u64* in, size_t n, size_t src_idx,
                               u64* out) const
{
    MAD_CHECK(src_idx < from.size(), "source limb index out of range");
    // mul_shoup_scalar is elementwise and bit-identical to the scalar
    // mulShoup on every backend (the PR 5 bit-exactness contract), so
    // cached pre-scaled limbs reproduce the in-convert scale pass
    // exactly.
    simd::kernels().mul_shoup_scalar(out, in, n, from.invPunctured(src_idx),
                                     from.invPuncturedShoup(src_idx),
                                     from[src_idx].value());
}

void
BasisConverter::overshootRaw(const std::vector<const u64*>& scaled, size_t n,
                             u64* us) const
{
    const size_t k = from.size();
    MAD_CHECK(scaled.size() == k, "source limb count mismatch");
    // Kept scalar and i-ascending: the long-double rounding is part of
    // the output, so every caller must sum in the same order.
    for (size_t c = 0; c < n; ++c) {
        long double frac = 0.5L;
        for (size_t i = 0; i < k; ++i)
            frac += static_cast<long double>(scaled[i][c]) * inv_q[i];
        us[c] = static_cast<u64>(frac);
    }
}

void
BasisConverter::accumulateScaledRaw(const std::vector<const u64*>& scaled,
                                    const u64* us, size_t n,
                                    size_t target_idx, u64* out) const
{
    const size_t k = from.size();
    MAD_CHECK(scaled.size() == k, "source limb count mismatch");
    const Modulus& pj = to[target_idx];
    const simd::Kernels& K = simd::kernels();
    K.newlimb_acc(scaled.data(), n, punctured_mod[target_idx].data(), k,
                  pj.value(), r64_target[target_idx],
                  r64_shoup_target[target_idx], pre1_target[target_idx], out);
    // Subtract round(x/Q)*Q: sum_i scaled_i*Q_i^* = x + u*Q with
    // u = floor(sum_i scaled_i/q_i); rounding the centered value means
    // subtracting floor(sum + 0.5) copies of Q. u * (Q mod p_j) is one
    // Shoup multiply, exact for any 64-bit u.
    if (us != nullptr)
        for (size_t c = 0; c < n; ++c)
            out[c] = pj.sub(out[c], overshoot(us[c], target_idx));
}

void
BasisConverter::convert(const std::vector<const u64*>& in, size_t n,
                        const std::vector<u64*>& out, ConvMode mode) const
{
    MAD_CHECK(in.size() == from.size(), "source limb count mismatch");
    MAD_CHECK(out.size() == to.size(), "target limb count mismatch");
    TELEM_SPAN("BasisConvert");
    TELEM_SPAN(simd::activeSpanLabel());
    TELEM_COUNT("rns.basis.src_limbs", in.size());
    TELEM_COUNT("rns.basis.dst_limbs", out.size());
    const size_t k = from.size();
    for (size_t i = 0; i < k; ++i)
        MAD_TRACE_READ(in[i], n * sizeof(u64));
    for (size_t j = 0; j < out.size(); ++j)
        MAD_TRACE_WRITE(out[j], n * sizeof(u64));

    // Scale each source residue once per chunk, then accumulate the
    // chunk into every target limb. Coefficient ranges are independent,
    // so they fan out across the pool.
    parallelForRange(n, [&](size_t begin, size_t end) {
        const ScaledChunk chunk(*this, in, begin, end - begin, mode);
        for (size_t j = 0; j < to.size(); ++j)
            accumulateScaledRaw(chunk.rows, chunk.overshootCounts(),
                                end - begin, j, out[j] + begin);
    });
    for (size_t j = 0; j < out.size(); ++j)
        faultinject::guardLimb(g_fault_basis, out[j], n);
}

} // namespace madfhe
