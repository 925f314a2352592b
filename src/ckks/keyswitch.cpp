#include "ckks/keyswitch.h"

#include <algorithm>
#include <atomic>
#include <optional>

#include "memtrace/trace.h"
#include "rns/simd/simd.h"
#include "support/faultinject.h"
#include "support/parallel.h"
#include "telemetry/telemetry.h"

namespace madfhe {

namespace {
faultinject::Site g_fault_decompose("ckks.decompose",
                                    faultinject::kLimbKinds);
faultinject::Site g_fault_innerprod("ckks.ksk_innerprod",
                                    faultinject::kLimbKinds);
faultinject::Site g_fault_moddown("ckks.moddown", faultinject::kLimbKinds);
faultinject::Site g_fault_moddown_merged("ckks.moddown_merged",
                                         faultinject::kLimbKinds);
faultinject::Site g_fault_pmodup("ckks.pmodup", faultinject::kLimbKinds);
/** Guards every limb the streaming engine produces (raised (u, v),
 *  pinned caches, final outputs) — the digest checkpoint for
 *  intermediates that never exist as materialized polynomials. */
faultinject::Site g_fault_stream("keyswitch.stream", faultinject::kLimbKinds);

/** Per-policy trace/telemetry label (string literals: stable pointers
 *  for the span tree and deterministic bytes in the trace stream). */
const char*
streamScopeName(StreamPolicy p)
{
    switch (p) {
    case StreamPolicy::Fuse:
        return "Stream[fuse]";
    case StreamPolicy::Cache:
        return "Stream[cache]";
    case StreamPolicy::Full:
        return "Stream[full]";
    default:
        return "Stream[off]";
    }
}

/** Track the high-water mark of pinned streaming cache bytes. */
void
notePeakResident(size_t bytes)
{
    static std::atomic<i64> peak{0};
    i64 b = static_cast<i64>(bytes);
    i64 cur = peak.load(std::memory_order_relaxed);
    while (b > cur &&
           !peak.compare_exchange_weak(cur, b, std::memory_order_relaxed)) {
    }
    TELEM_GAUGE_SET("stream.peak_resident_bytes", std::max(b, cur));
}

/**
 * ModDown's final subtract-and-scale over one kept limb:
 * out[c] = (x[c] - corr[c]) * inv mod q. The difference is formed in
 * place in `corr`, then scaled by the dispatched Shoup kernel.
 */
void
subtractAndScale(const Modulus& q, const u64* x, u64* corr, u64 inv,
                 u64* out, size_t n)
{
    for (size_t c = 0; c < n; ++c)
        corr[c] = q.sub(x[c], corr[c]);
    simd::kernels().mul_shoup_scalar(out, corr, n, inv,
                                     q.shoupPrecompute(inv), q.value());
}
} // namespace

KeySwitcher::KeySwitcher(std::shared_ptr<const CkksContext> ctx_)
    : ctx(std::move(ctx_))
{
}

size_t
KeySwitcher::qLevelOf(const RnsPoly& raised) const
{
    size_t total = raised.numLimbs();
    size_t num_p = ctx->ring()->numP();
    MAD_CHECK(total > num_p, "raised polynomial missing P limbs");
    return total - num_p;
}

std::vector<RnsPoly>
KeySwitcher::decomposeAndRaise(const RnsPoly& x) const
{
    MAD_CHECK(x.rep() == Rep::Eval, "decomposeAndRaise expects eval rep");
    MAD_TRACE_SCOPE("DecompModUp");
    TELEM_SPAN("DecompModUp");
    const size_t level = x.numLimbs();
    const size_t beta = ctx->numDigits(level);
    const size_t n = x.degree();
    auto raised_basis = ctx->raisedIndices(level);

    // iNTT all limbs once (limb-wise pass shared by every digit).
    RnsPoly x_coeff = x;
    x_coeff.toCoeff();

    // Converted limbs that still need the forward NTT, grouped by raised
    // basis position so every digit sharing a modulus goes through one
    // batched table walk (forwardBatch) instead of beta separate ones.
    std::vector<std::vector<u64*>> to_ntt(raised_basis.size());

    std::vector<RnsPoly> digits;
    digits.reserve(beta);
    for (size_t j = 0; j < beta; ++j) {
        const size_t start = ctx->digitStart(j);
        const size_t size = ctx->digitSize(j, level);

        RnsPoly raised(x.context(), raised_basis, Rep::Eval);

        // Source limbs of this digit, in coefficient rep.
        std::vector<const u64*> src;
        for (size_t i = 0; i < size; ++i)
            src.push_back(x_coeff.limb(start + i));

        // NewLimb (slot-wise) into every other limb of the raised basis;
        // targets are in coefficient rep and are NTT'd in the batched pass
        // below.
        const BasisConverter& conv = ctx->modUpConverter(j, level);
        std::vector<u64*> dst;
        for (size_t i = 0; i < raised_basis.size(); ++i) {
            u32 chain_idx = raised_basis[i];
            if (chain_idx >= start && chain_idx < start + size &&
                chain_idx < level) {
                continue; // own limb, copied below
            }
            dst.push_back(raised.limb(i));
            to_ntt[i].push_back(raised.limb(i));
        }
        conv.convert(src, n, dst);

        // Own limbs: reuse the evaluation-rep input directly
        // (Algorithm 1, line 4: no NTT needed on the input limbs).
        for (size_t i = 0; i < size; ++i) {
            MAD_TRACE_READ(x.limb(start + i), n * sizeof(u64));
            MAD_TRACE_WRITE(raised.limb(start + i), n * sizeof(u64));
            std::copy(x.limb(start + i), x.limb(start + i) + n,
                      raised.limb(start + i));
        }

        digits.push_back(std::move(raised));
    }

    // One batched NTT per raised-basis position, positions fanned out
    // across the pool: each (stage, twiddle) load is shared by all digits
    // that carry this modulus.
    parallelFor(raised_basis.size(), [&](size_t i) {
        if (!to_ntt[i].empty())
            ctx->ring()->ntt(raised_basis[i])
                .forwardBatch(to_ntt[i].data(), to_ntt[i].size());
    });
    for (RnsPoly& d : digits)
        for (size_t i = 0; i < d.numLimbs(); ++i)
            faultinject::guardLimb(g_fault_decompose, d.limb(i), n);
    return digits;
}

RaisedCiphertext
KeySwitcher::innerProduct(const std::vector<RnsPoly>& digits,
                          const SwitchingKey& ksk) const
{
    MAD_REQUIRE(!digits.empty(), "no digits to key switch");
    MAD_REQUIRE(digits.size() <= ksk.numDigits(),
            "more digits than switching-key columns");
    const size_t n = digits[0].degree();
    const auto& raised_basis = digits[0].basis();

    RaisedCiphertext out;
    out.c0 = RnsPoly(digits[0].context(), raised_basis, Rep::Eval);
    out.c1 = RnsPoly(digits[0].context(), raised_basis, Rep::Eval);
    out.q_level = qLevelOf(digits[0]);

    // When beta < dnum the trailing ksk columns are simply unused
    // (Algorithm 3, note on line 3).
    //
    // Limb-position-major so every raised-basis position is an independent
    // parallel task accumulating its own (u, v) pair; the per-(digit,
    // limb) trace events match the digit-major formulation event for
    // event, just grouped by position.
    MAD_TRACE_SCOPE("KskInnerProd");
    TELEM_SPAN("KskInnerProd");
    const auto& K = simd::kernels();
    parallelFor(raised_basis.size(), [&](size_t i) {
        const u32 chain_idx = raised_basis[i];
        const Modulus& q = ctx->ring()->modulus(chain_idx);
        u64* u = out.c0.limb(i);
        u64* v = out.c1.limb(i);
        for (size_t j = 0; j < digits.size(); ++j) {
            const RnsPoly& d = digits[j];
            // The key basis is the identity chain, so limb position ==
            // chain index in the switching-key polynomials.
            const u64* dl = d.limb(i);
            const u64* bl = ksk.b(j).limb(chain_idx);
            const u64* al = ksk.a(j).limb(chain_idx);
            MAD_TRACE_READ(dl, n * sizeof(u64));
            MAD_TRACE_READ(bl, n * sizeof(u64));
            MAD_TRACE_READ(al, n * sizeof(u64));
            MAD_TRACE_READ(u, n * sizeof(u64));
            MAD_TRACE_READ(v, n * sizeof(u64));
            MAD_TRACE_WRITE(u, n * sizeof(u64));
            MAD_TRACE_WRITE(v, n * sizeof(u64));
            K.add_mul_mod_vec(u, dl, bl, n, q);
            K.add_mul_mod_vec(v, dl, al, n, q);
        }
    });
    // Limb-sum spot check after the inner product: the accumulated (u, v)
    // pair is the longest-lived DRAM-resident intermediate in key switch.
    for (size_t i = 0; i < raised_basis.size(); ++i) {
        faultinject::guardLimb(g_fault_innerprod, out.c0.limb(i), n);
        faultinject::guardLimb(g_fault_innerprod, out.c1.limb(i), n);
    }
    return out;
}

RnsPoly
KeySwitcher::modDown(const RnsPoly& x) const
{
    MAD_CHECK(x.rep() == Rep::Eval, "modDown expects eval rep");
    MAD_TRACE_SCOPE("ModDown");
    TELEM_SPAN("ModDown");
    const size_t level = qLevelOf(x);
    const size_t num_p = ctx->ring()->numP();
    const size_t n = x.degree();

    // iNTT the P limbs (limb-wise).
    std::vector<std::vector<u64>> p_coeff(num_p, std::vector<u64>(n));
    auto p_indices = ctx->ring()->pIndices();
    parallelFor(num_p, [&](size_t i) {
        const u64* src = x.limb(level + i);
        MAD_TRACE_ALLOC(p_coeff[i].data(), n * sizeof(u64));
        MAD_TRACE_READ(src, n * sizeof(u64));
        MAD_TRACE_WRITE(p_coeff[i].data(), n * sizeof(u64));
        std::copy(src, src + n, p_coeff[i].data());
        ctx->ring()->ntt(p_indices[i]).inverse(p_coeff[i].data());
    });

    // NewLimb (slot-wise): correction = [x]_P converted to each q_i.
    std::vector<const u64*> src;
    for (auto& limb : p_coeff)
        src.push_back(limb.data());
    std::vector<std::vector<u64>> corr(level, std::vector<u64>(n));
    std::vector<u64*> dst;
    for (auto& limb : corr) {
        MAD_TRACE_ALLOC(limb.data(), n * sizeof(u64));
        dst.push_back(limb.data());
    }
    ctx->modDownConverter(level).convert(src, n, dst);

    // Per kept limb: NTT the correction, subtract, scale by P^{-1}.
    RnsPoly out(x.context(), ctx->ring()->qIndices(level), Rep::Eval);
    parallelFor(level, [&](size_t i) {
        const Modulus& q = ctx->ring()->modulus(i);
        ctx->ring()->ntt(i).forward(corr[i].data());
        const u64* xi = x.limb(i);
        u64* oi = out.limb(i);
        MAD_TRACE_READ(xi, n * sizeof(u64));
        MAD_TRACE_READ(corr[i].data(), n * sizeof(u64));
        MAD_TRACE_WRITE(oi, n * sizeof(u64));
        subtractAndScale(q, xi, corr[i].data(), ctx->pInvModQ(i), oi, n);
    });
    for (size_t i = 0; i < level; ++i)
        faultinject::guardLimb(g_fault_moddown, out.limb(i), n);
    return out;
}

RnsPoly
KeySwitcher::modDownMerged(const RnsPoly& x) const
{
    MAD_CHECK(x.rep() == Rep::Eval, "modDownMerged expects eval rep");
    MAD_TRACE_SCOPE("ModDownMerged");
    TELEM_SPAN("ModDownMerged");
    const size_t level = qLevelOf(x);
    MAD_REQUIRE(level >= 2, "merged ModDown needs at least two Q limbs");
    const size_t num_p = ctx->ring()->numP();
    const size_t n = x.degree();

    // Dropped limbs: q_(level-1) followed by the P limbs — matching the
    // source basis of mergedModDownConverter().
    std::vector<std::vector<u64>> drop_coeff(1 + num_p, std::vector<u64>(n));
    auto p_indices = ctx->ring()->pIndices();
    parallelFor(1 + num_p, [&](size_t i) {
        const u32 chain_idx = i == 0 ? static_cast<u32>(level - 1)
                                     : p_indices[i - 1];
        const u64* src = i == 0 ? x.limb(level - 1) : x.limb(level + (i - 1));
        MAD_TRACE_ALLOC(drop_coeff[i].data(), n * sizeof(u64));
        MAD_TRACE_READ(src, n * sizeof(u64));
        MAD_TRACE_WRITE(drop_coeff[i].data(), n * sizeof(u64));
        std::copy(src, src + n, drop_coeff[i].data());
        ctx->ring()->ntt(chain_idx).inverse(drop_coeff[i].data());
    });

    std::vector<const u64*> src;
    for (auto& limb : drop_coeff)
        src.push_back(limb.data());
    std::vector<std::vector<u64>> corr(level - 1, std::vector<u64>(n));
    std::vector<u64*> dst;
    for (auto& limb : corr) {
        MAD_TRACE_ALLOC(limb.data(), n * sizeof(u64));
        dst.push_back(limb.data());
    }
    ctx->mergedModDownConverter(level).convert(src, n, dst);

    RnsPoly out(x.context(), ctx->ring()->qIndices(level - 1), Rep::Eval);
    parallelFor(level - 1, [&](size_t i) {
        const Modulus& q = ctx->ring()->modulus(i);
        ctx->ring()->ntt(i).forward(corr[i].data());
        const u64* xi = x.limb(i);
        u64* oi = out.limb(i);
        MAD_TRACE_READ(xi, n * sizeof(u64));
        MAD_TRACE_READ(corr[i].data(), n * sizeof(u64));
        MAD_TRACE_WRITE(oi, n * sizeof(u64));
        subtractAndScale(q, xi, corr[i].data(), ctx->mergedInv(level, i), oi,
                         n);
    });
    for (size_t i = 0; i + 1 < level; ++i)
        faultinject::guardLimb(g_fault_moddown_merged, out.limb(i), n);
    return out;
}

RnsPoly
KeySwitcher::pModUp(const RnsPoly& y) const
{
    MAD_CHECK(y.rep() == Rep::Eval, "pModUp expects eval rep");
    MAD_TRACE_SCOPE("PModUp");
    TELEM_SPAN("PModUp");
    const size_t level = y.numLimbs();
    const size_t n = y.degree();
    RnsPoly out(y.context(), ctx->raisedIndices(level), Rep::Eval);
    parallelFor(level, [&](size_t i) {
        const Modulus& q = ctx->ring()->modulus(i);
        const u64 p_mod = ctx->pModQ(i);
        const u64 p_shoup = q.shoupPrecompute(p_mod);
        const u64* yi = y.limb(i);
        u64* oi = out.limb(i);
        MAD_TRACE_READ(yi, n * sizeof(u64));
        MAD_TRACE_WRITE(oi, n * sizeof(u64));
        simd::kernels().mul_shoup_scalar(oi, yi, n, p_mod, p_shoup,
                                         q.value());
    });
    for (size_t i = 0; i < level; ++i)
        faultinject::guardLimb(g_fault_pmodup, out.limb(i), n);
    // P limbs of P*y are identically zero (Algorithm 5, line 3).
    return out;
}

std::pair<RnsPoly, RnsPoly>
KeySwitcher::keySwitch(const RnsPoly& x, const SwitchingKey& ksk) const
{
    MAD_TRACE_SCOPE("KeySwitch");
    TELEM_SPAN("KeySwitch");
    const StreamPolicy policy = streamPolicy();
    if (policy != StreamPolicy::Off)
        return streamKeySwitch(x, ksk, policy, false, nullptr, nullptr);
    auto digits = decomposeAndRaise(x);
    RaisedCiphertext raised = innerProduct(digits, ksk);
    return {modDown(raised.c0), modDown(raised.c1)};
}

std::pair<RnsPoly, RnsPoly>
KeySwitcher::keySwitchMerged(const RnsPoly& d2, const SwitchingKey& ksk,
                             const RnsPoly& d0, const RnsPoly& d1) const
{
    const StreamPolicy policy = streamPolicy();
    if (policy != StreamPolicy::Off)
        return streamKeySwitch(d2, ksk, policy, true, &d0, &d1);
    auto digits = decomposeAndRaise(d2);
    RaisedCiphertext raised = innerProduct(digits, ksk);
    raised.c0.add(pModUp(d0));
    raised.c1.add(pModUp(d1));
    return {modDownMerged(raised.c0), modDownMerged(raised.c1)};
}

/**
 * The limb-streaming engine (Section 3.1 made functional). One pass
 * over the raised basis, scheduled limb-by-limb across the pool:
 *
 *  Fuse  — per raised position, each digit's contribution is converted
 *          (NewLimb) + NTT'd into an O(1) scratch limb and multiplied
 *          into the (u, v) accumulators in cache; the beta digit
 *          polynomials of the materializing path never exist. The
 *          coefficient-rep spine x_coeff is still materialized and
 *          ModDown runs materializing.
 *  Cache — the spine is replaced by a pinned O(L)-limb cache of iNTT'd,
 *          pre-scaled digit source limbs (the O(beta) digit cache whose
 *          residues double as the O(alpha) basis-change partials:
 *          scale-by-(Q_j/q_i)^{-1} happens once per source limb instead
 *          of once per (digit, target)), and ModDown streams its
 *          correction limbs through the same pinned-scale treatment —
 *          p_coeff/corr are never materialized.
 *  Full  — limb re-ordering: the dropped (rescale + P) positions of the
 *          inner product are computed FIRST and consumed directly into
 *          the ModDown drop cache, so the raised (u, v) pair is never
 *          written to DRAM; kept positions then fuse MAC, correction
 *          and the final subtract-and-scale into a single output write.
 *
 * Every policy is byte-identical to the materializing composition: the
 * raw kernel entry points (convertLimbRaw / accumulateScaledRaw /
 * forwardBatchRaw / inverseBatchRaw) are bit-exact factorizations of
 * the traced ones, and the accumulation orders match term for term.
 */
std::pair<RnsPoly, RnsPoly>
KeySwitcher::streamKeySwitch(const RnsPoly& x, const SwitchingKey& ksk,
                             StreamPolicy policy, bool merged,
                             const RnsPoly* lift0, const RnsPoly* lift1) const
{
    MAD_CHECK(x.rep() == Rep::Eval, "streamKeySwitch expects eval rep");
    MAD_CHECK(policy != StreamPolicy::Off,
              "streaming engine called with policy off");
    const size_t level = x.numLimbs();
    const size_t beta = ctx->numDigits(level);
    MAD_REQUIRE(beta <= ksk.numDigits(),
            "more digits than switching-key columns");
    if (merged)
        MAD_REQUIRE(level >= 2, "merged ModDown needs at least two Q limbs");
    const size_t n = x.degree();
    const size_t alpha = ctx->alpha();
    const auto raised_basis = ctx->raisedIndices(level);
    const size_t r = raised_basis.size();
    const size_t kept = merged ? level - 1 : level;
    const size_t dropn = r - kept;
    const size_t limb_bytes = n * sizeof(u64);

    // Degrade Cache/Full to Fuse when the pinned working set would not
    // fit the MADFHE_STREAM_CACHE_BYTES budget (see DESIGN.md for the
    // sizing math: (L + beta) limbs of digit cache + (2*drop + 2) limbs
    // of ModDown drop cache).
    if (policy != StreamPolicy::Fuse) {
        const size_t pinned =
            (level + beta) * limb_bytes + (2 * dropn + 2) * limb_bytes;
        const size_t budget = streamCacheBytes();
        if (budget != 0 && pinned > budget) {
            TELEM_COUNT("stream.digit_cache.evictions", 1);
            policy = StreamPolicy::Fuse;
        } else {
            notePeakResident(pinned);
        }
    }

    memtrace::TraceScope scope(streamScopeName(policy));
    telemetry::Span span(streamScopeName(policy));

    // --- Digit-source state -------------------------------------------
    // Fuse materializes the coefficient-rep spine exactly like the
    // materializing Decomp; Cache/Full pin pre-scaled sources instead.
    std::optional<RnsPoly> x_coeff;
    std::vector<std::vector<std::vector<u64>>> scaled;
    std::vector<std::vector<u64>> us;
    std::vector<std::vector<const u64*>> scaled_ptrs(beta);
    if (policy == StreamPolicy::Fuse) {
        x_coeff.emplace(x);
        x_coeff->toCoeff();
    } else {
        scaled.resize(beta);
        us.assign(beta, std::vector<u64>(n));
        for (size_t j = 0; j < beta; ++j)
            scaled[j].assign(ctx->digitSize(j, level), std::vector<u64>(n));
        // Pin each source limb once: one DRAM read, iNTT, pre-scale by
        // the digit's (Q_j/q_i)^{-1} factor. The pinned buffers are
        // on-chip by construction (budget-checked above) and carry no
        // further trace events — matching the model's cache_alpha
        // accounting where a digit's sources are read once.
        parallelFor(level, [&](size_t l) {
            const size_t j = l / alpha;
            const size_t i = l - ctx->digitStart(j);
            u64* dst = scaled[j][i].data();
            MAD_TRACE_READ(x.limb(l), limb_bytes);
            std::copy(x.limb(l), x.limb(l) + n, dst);
            ctx->ring()->ntt(raised_basis[l]).inverseRaw(dst);
            ctx->modUpConverter(j, level).scaleSourceRaw(dst, n, i, dst);
        });
        for (size_t j = 0; j < beta; ++j) {
            for (auto& limb : scaled[j])
                scaled_ptrs[j].push_back(limb.data());
            ctx->modUpConverter(j, level)
                .overshootRaw(scaled_ptrs[j], n, us[j].data());
            for (auto& limb : scaled[j])
                faultinject::guardLimb(g_fault_stream, limb.data(), n);
        }
    }

    // Converter target index for every (digit, raised position); npos
    // marks own limbs (reused straight from the eval-rep input).
    constexpr size_t npos = static_cast<size_t>(-1);
    std::vector<std::vector<size_t>> conv_idx(beta,
                                              std::vector<size_t>(r, npos));
    for (size_t j = 0; j < beta; ++j) {
        const size_t start = ctx->digitStart(j);
        const size_t size = ctx->digitSize(j, level);
        size_t t = 0;
        for (size_t i = 0; i < r; ++i) {
            const u32 chain_idx = raised_basis[i];
            if (chain_idx >= start && chain_idx < start + size &&
                chain_idx < level)
                continue;
            conv_idx[j][i] = t++;
        }
    }

    // MAC one raised position into (uacc, vacc): digit contributions in
    // ascending-j order (bit-identical to the materializing
    // innerProduct), then the optional merged P-lift — the same
    // per-coefficient op sequence RnsPoly::add(pModUp(d)) produces.
    const auto& K = simd::kernels();
    auto macPosition = [&](size_t i, u64* uacc, u64* vacc, u64* scratch) {
        const u32 chain_idx = raised_basis[i];
        const Modulus& q = ctx->ring()->modulus(chain_idx);
        std::fill(uacc, uacc + n, 0);
        std::fill(vacc, vacc + n, 0);
        for (size_t j = 0; j < beta; ++j) {
            const u64* dl;
            if (conv_idx[j][i] == npos) {
                dl = x.limb(chain_idx);
                MAD_TRACE_READ(dl, limb_bytes);
            } else {
                const BasisConverter& conv = ctx->modUpConverter(j, level);
                if (policy == StreamPolicy::Fuse) {
                    const size_t start = ctx->digitStart(j);
                    const size_t size = ctx->digitSize(j, level);
                    std::vector<const u64*> src;
                    src.reserve(size);
                    for (size_t s = 0; s < size; ++s) {
                        MAD_TRACE_READ(x_coeff->limb(start + s), limb_bytes);
                        src.push_back(x_coeff->limb(start + s));
                    }
                    conv.convertLimbRaw(src, n, conv_idx[j][i], scratch);
                } else {
                    conv.accumulateScaledRaw(scaled_ptrs[j], us[j].data(), n,
                                             conv_idx[j][i], scratch);
                }
                ctx->ring()->ntt(chain_idx).forwardRaw(scratch);
                dl = scratch;
            }
            const u64* bl = ksk.b(j).limb(chain_idx);
            const u64* al = ksk.a(j).limb(chain_idx);
            MAD_TRACE_READ(bl, limb_bytes);
            MAD_TRACE_READ(al, limb_bytes);
            K.add_mul_mod_vec(uacc, dl, bl, n, q);
            K.add_mul_mod_vec(vacc, dl, al, n, q);
        }
        if (merged && chain_idx < level) {
            // PModUp fused into the accumulation; its P limbs are
            // identically zero (Algorithm 5, line 3), so only Q
            // positions carry the lift. The digit scratch is free by now
            // and holds each lifted limb before it is added.
            const u64 p_mod = ctx->pModQ(chain_idx);
            const u64 p_shoup = q.shoupPrecompute(p_mod);
            const u64* l0 = lift0->limb(chain_idx);
            const u64* l1 = lift1->limb(chain_idx);
            MAD_TRACE_READ(l0, limb_bytes);
            MAD_TRACE_READ(l1, limb_bytes);
            K.mul_shoup_scalar(scratch, l0, n, p_mod, p_shoup, q.value());
            for (size_t c = 0; c < n; ++c)
                uacc[c] = q.add(uacc[c], scratch[c]);
            K.mul_shoup_scalar(scratch, l1, n, p_mod, p_shoup, q.value());
            for (size_t c = 0; c < n; ++c)
                vacc[c] = q.add(vacc[c], scratch[c]);
        }
    };

    const BasisConverter& down_conv =
        merged ? ctx->mergedModDownConverter(level)
               : ctx->modDownConverter(level);

    // Streamed ModDown (Cache): pin the iNTT'd, pre-scaled dropped limbs
    // and produce each kept limb with a single fused
    // accumulate -> NTT -> subtract-and-scale pass; p_coeff and the
    // correction polynomial are never materialized.
    auto streamModDown = [&](const RnsPoly& rx) -> RnsPoly {
        std::vector<std::vector<u64>> dropc(dropn, std::vector<u64>(n));
        std::vector<u64> usd(n);
        parallelFor(dropn, [&](size_t d) {
            const size_t pos = kept + d;
            MAD_TRACE_READ(rx.limb(pos), limb_bytes);
            std::copy(rx.limb(pos), rx.limb(pos) + n, dropc[d].data());
            ctx->ring()->ntt(raised_basis[pos]).inverseRaw(dropc[d].data());
            down_conv.scaleSourceRaw(dropc[d].data(), n, d, dropc[d].data());
        });
        std::vector<const u64*> dp;
        for (auto& limb : dropc)
            dp.push_back(limb.data());
        down_conv.overshootRaw(dp, n, usd.data());
        for (auto& limb : dropc)
            faultinject::guardLimb(g_fault_stream, limb.data(), n);
        RnsPoly out(rx.context(), ctx->ring()->qIndices(kept), Rep::Eval);
        parallelFor(kept, [&](size_t i) {
            const Modulus& q = ctx->ring()->modulus(i);
            std::vector<u64> corr(n);
            down_conv.accumulateScaledRaw(dp, usd.data(), n, i, corr.data());
            ctx->ring()->ntt(i).forwardRaw(corr.data());
            const u64 inv = merged ? ctx->mergedInv(level, i)
                                   : ctx->pInvModQ(i);
            const u64* xi = rx.limb(i);
            u64* oi = out.limb(i);
            MAD_TRACE_READ(xi, limb_bytes);
            MAD_TRACE_WRITE(oi, limb_bytes);
            subtractAndScale(q, xi, corr.data(), inv, oi, n);
        });
        for (size_t i = 0; i < kept; ++i)
            faultinject::guardLimb(g_fault_stream, out.limb(i), n);
        TELEM_COUNT("stream.limbs_fused", kept);
        TELEM_COUNT("stream.digit_cache.hits", kept);
        return out;
    };

    if (policy != StreamPolicy::Full) {
        // Fuse / Cache: the raised (u, v) pair is still materialized;
        // each limb is produced by one fused pass and written once.
        RnsPoly ru(x.context(), raised_basis, Rep::Eval);
        RnsPoly rv(x.context(), raised_basis, Rep::Eval);
        parallelFor(r, [&](size_t i) {
            std::vector<u64> scratch(n);
            macPosition(i, ru.limb(i), rv.limb(i), scratch.data());
            MAD_TRACE_WRITE(ru.limb(i), limb_bytes);
            MAD_TRACE_WRITE(rv.limb(i), limb_bytes);
        });
        TELEM_COUNT("stream.limbs_fused", 2 * r);
        if (policy == StreamPolicy::Cache)
            TELEM_COUNT("stream.digit_cache.hits", beta * r - level);
        for (size_t i = 0; i < r; ++i) {
            faultinject::guardLimb(g_fault_stream, ru.limb(i), n);
            faultinject::guardLimb(g_fault_stream, rv.limb(i), n);
        }
        if (policy == StreamPolicy::Fuse) {
            if (merged)
                return {modDownMerged(ru), modDownMerged(rv)};
            return {modDown(ru), modDown(rv)};
        }
        return {streamModDown(ru), streamModDown(rv)};
    }

    // Full: phase A — dropped positions first (the Section 3.1 limb
    // re-ordering), consumed straight into the pinned ModDown drop
    // cache; the raised (u, v) never exists.
    std::vector<std::vector<u64>> dropu(dropn, std::vector<u64>(n));
    std::vector<std::vector<u64>> dropv(dropn, std::vector<u64>(n));
    std::vector<u64> usu(n), usv(n);
    parallelFor(dropn, [&](size_t d) {
        const size_t pos = kept + d;
        const u32 chain_idx = raised_basis[pos];
        std::vector<u64> uacc(n), vacc(n), scratch(n);
        macPosition(pos, uacc.data(), vacc.data(), scratch.data());
        ctx->ring()->ntt(chain_idx).inverseRaw(uacc.data());
        ctx->ring()->ntt(chain_idx).inverseRaw(vacc.data());
        down_conv.scaleSourceRaw(uacc.data(), n, d, dropu[d].data());
        down_conv.scaleSourceRaw(vacc.data(), n, d, dropv[d].data());
    });
    std::vector<const u64*> dpu, dpv;
    for (size_t d = 0; d < dropn; ++d) {
        dpu.push_back(dropu[d].data());
        dpv.push_back(dropv[d].data());
    }
    down_conv.overshootRaw(dpu, n, usu.data());
    down_conv.overshootRaw(dpv, n, usv.data());
    for (size_t d = 0; d < dropn; ++d) {
        faultinject::guardLimb(g_fault_stream, dropu[d].data(), n);
        faultinject::guardLimb(g_fault_stream, dropv[d].data(), n);
    }

    // Phase B — kept positions: MAC, streamed correction, and the final
    // subtract-and-scale fused into one output write per limb.
    RnsPoly ou(x.context(), ctx->ring()->qIndices(kept), Rep::Eval);
    RnsPoly ov(x.context(), ctx->ring()->qIndices(kept), Rep::Eval);
    parallelFor(kept, [&](size_t i) {
        const Modulus& q = ctx->ring()->modulus(i);
        std::vector<u64> uacc(n), vacc(n), scratch(n), corr(n);
        macPosition(i, uacc.data(), vacc.data(), scratch.data());
        const u64 inv = merged ? ctx->mergedInv(level, i) : ctx->pInvModQ(i);
        u64* ui = ou.limb(i);
        u64* vi = ov.limb(i);
        down_conv.accumulateScaledRaw(dpu, usu.data(), n, i, corr.data());
        ctx->ring()->ntt(i).forwardRaw(corr.data());
        MAD_TRACE_WRITE(ui, limb_bytes);
        subtractAndScale(q, uacc.data(), corr.data(), inv, ui, n);
        down_conv.accumulateScaledRaw(dpv, usv.data(), n, i, corr.data());
        ctx->ring()->ntt(i).forwardRaw(corr.data());
        MAD_TRACE_WRITE(vi, limb_bytes);
        subtractAndScale(q, vacc.data(), corr.data(), inv, vi, n);
    });
    TELEM_COUNT("stream.limbs_fused", 2 * r);
    TELEM_COUNT("stream.digit_cache.hits", (beta * r - level) + 2 * kept);
    for (size_t i = 0; i < kept; ++i) {
        faultinject::guardLimb(g_fault_stream, ou.limb(i), n);
        faultinject::guardLimb(g_fault_stream, ov.limb(i), n);
    }
    return {std::move(ou), std::move(ov)};
}

} // namespace madfhe
