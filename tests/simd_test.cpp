/**
 * @file
 * Scalar-vs-SIMD bit-exactness suite. The contract under test is
 * stronger than correctness: every vector kernel must leave the exact
 * canonical residues the scalar path leaves — byte-identical buffers —
 * across ring sizes, prime shapes on both sides of the FP-kernel domain
 * boundary (q < 2^50), non-lane-multiple tails, thread counts, and with
 * fault injection armed. Byte identity is what keeps memtrace replay,
 * seed-compressed ciphertext expansion and the determinism suite valid
 * under any backend.
 */
#include <gtest/gtest.h>

#include <cstring>

#include "ckks/encryptor.h"
#include "ckks/serialize.h"
#include "ckks/stream.h"
#include "rns/basis.h"
#include "rns/ntt.h"
#include "rns/primegen.h"
#include "rns/simd/simd.h"
#include "support/faultinject.h"
#include "support/parallel.h"
#include "support/random.h"
#include "test_util.h"

namespace madfhe {
namespace {

std::vector<u64>
randomResidues(size_t n, const Modulus& q, u64 seed)
{
    Prng rng(seed);
    std::vector<u64> a(n);
    for (auto& v : a)
        v = rng.uniform(q.value());
    return a;
}

std::vector<simd::Backend>
vectorBackends()
{
    std::vector<simd::Backend> out;
    for (simd::Backend b : {simd::Backend::Avx2, simd::Backend::Avx512})
        if (simd::supported(b))
            out.push_back(b);
    return out;
}

/** RAII: restore the scalar backend even when an assertion bails out. */
struct ScopedBackend
{
    explicit ScopedBackend(simd::Backend b) { simd::setBackend(b); }
    ~ScopedBackend() { simd::setBackend(simd::Backend::Scalar); }
};

TEST(SimdDispatch, ScalarIsAlwaysAvailable)
{
    EXPECT_TRUE(simd::supported(simd::Backend::Scalar));
    ASSERT_NE(simd::scalarKernels(), nullptr);
    EXPECT_STREQ(simd::scalarKernels()->name, "scalar");
    EXPECT_EQ(simd::scalarKernels()->lanes, 1u);
    // The scalar table is the reference: it has no fused FP kernel.
    EXPECT_EQ(simd::scalarKernels()->fp_transform, nullptr);
}

/**
 * NTT/iNTT byte identity over ring sizes and prime widths spanning both
 * kernel regimes: < 2^50 engages the fused error-free FMA transform on
 * vector backends, >= 2^50 falls back to the integer Harvey path, and
 * 61 bits sits just under the q < 2^62 lazy-reduction ceiling.
 */
TEST(SimdNtt, BitExactAcrossSizesAndPrimeShapes)
{
    const auto backends = vectorBackends();
    if (backends.empty())
        GTEST_SKIP() << "no vector backend runnable on this host";

    for (size_t n : {size_t{8}, size_t{64}, size_t{1024}, size_t{8192}}) {
        for (unsigned bits : {28u, 40u, 45u, 49u, 50u, 54u, 60u, 61u}) {
            const Modulus q(generateNttPrimes(bits, n, 1)[0]);
            const NttTables tab(n, q);
            const auto coeff = randomResidues(n, q, 1000 + bits);

            auto fwd_ref = coeff;
            auto inv_ref = coeff;
            {
                ScopedBackend sb(simd::Backend::Scalar);
                tab.forward(fwd_ref.data());
                inv_ref = fwd_ref;
                tab.inverse(inv_ref.data());
            }
            ASSERT_EQ(inv_ref, coeff) << "scalar roundtrip broken";

            for (simd::Backend b : backends) {
                ScopedBackend sb(b);
                auto fwd = coeff;
                tab.forward(fwd.data());
                EXPECT_EQ(fwd, fwd_ref)
                    << simd::backendName(b) << " forward differs, n=" << n
                    << " bits=" << bits;
                auto inv = fwd_ref;
                tab.inverse(inv.data());
                EXPECT_EQ(inv, coeff)
                    << simd::backendName(b) << " inverse differs, n=" << n
                    << " bits=" << bits;
            }
        }
    }
}

/** forwardBatch must equal limb-by-limb forward() on every backend. */
TEST(SimdNtt, BatchMatchesPerLimb)
{
    const size_t n = 2048;
    const Modulus q(generateNttPrimes(45, n, 1)[0]);
    const NttTables tab(n, q);

    std::vector<std::vector<u64>> ref(3);
    for (size_t i = 0; i < ref.size(); ++i)
        ref[i] = randomResidues(n, q, 50 + i);
    auto batch = ref;

    ScopedBackend restore(simd::Backend::Scalar);
    for (simd::Backend b : vectorBackends()) {
        simd::setBackend(b);
        auto per_limb = ref;
        for (auto& limb : per_limb)
            tab.forward(limb.data());
        auto batched = batch;
        std::vector<u64*> ptrs;
        for (auto& limb : batched)
            ptrs.push_back(limb.data());
        tab.forwardBatch(ptrs.data(), ptrs.size());
        EXPECT_EQ(batched, per_limb) << simd::backendName(b);
    }
}

/**
 * Pointwise kernels compared table-against-table (no dispatch needed),
 * with n chosen off the lane grid so the scalar tail path runs too.
 */
TEST(SimdPointwise, BitExactIncludingTails)
{
    const size_t n = 1003; // not a multiple of 4 or 8: exercises tails
    for (unsigned bits : {30u, 45u, 61u}) {
        const Modulus q(generateNttPrimes(bits, 1 << 8, 1)[0]);
        const auto a0 = randomResidues(n, q, 7 * bits);
        const auto b0 = randomResidues(n, q, 9 * bits);
        const auto acc0 = randomResidues(n, q, 11 * bits);
        std::vector<u64> w(n), w_shoup(n);
        for (size_t i = 0; i < n; ++i) {
            w[i] = b0[i];
            w_shoup[i] = q.shoupPrecompute(w[i]);
        }
        const u64 ws = b0[0];
        const u64 ws_pre = q.shoupPrecompute(ws);

        const simd::Kernels* S = simd::scalarKernels();
        auto mul_ref = a0;
        S->mul_mod_vec(mul_ref.data(), b0.data(), n, q);
        auto fma_ref = acc0;
        S->add_mul_mod_vec(fma_ref.data(), a0.data(), b0.data(), n, q);
        auto shoup_ref = a0;
        S->mul_shoup_vec(shoup_ref.data(), w.data(), w_shoup.data(), n,
                         q.value());
        std::vector<u64> bcast_ref(n);
        S->mul_shoup_scalar(bcast_ref.data(), a0.data(), n, ws, ws_pre,
                            q.value());

        for (const simd::Kernels* V :
             {simd::avx2Kernels(), simd::avx512Kernels()}) {
            if (!V)
                continue;
            auto mul = a0;
            V->mul_mod_vec(mul.data(), b0.data(), n, q);
            EXPECT_EQ(mul, mul_ref) << V->name << " bits=" << bits;
            auto fma = acc0;
            V->add_mul_mod_vec(fma.data(), a0.data(), b0.data(), n, q);
            EXPECT_EQ(fma, fma_ref) << V->name << " bits=" << bits;
            auto shoup = a0;
            V->mul_shoup_vec(shoup.data(), w.data(), w_shoup.data(), n,
                             q.value());
            EXPECT_EQ(shoup, shoup_ref) << V->name << " bits=" << bits;
            std::vector<u64> bcast(n);
            V->mul_shoup_scalar(bcast.data(), a0.data(), n, ws, ws_pre,
                                q.value());
            EXPECT_EQ(bcast, bcast_ref) << V->name << " bits=" << bits;
        }
    }
}

/**
 * Fast basis extension must be byte-identical under every backend, for
 * every entry point key switching uses: convert() in both modes,
 * convertLimbRaw() per target limb, and the streaming factorization
 * scaleSourceRaw() + overshootRaw() + accumulateScaledRaw() with and
 * without the overshoot vector. The shapes cover the CKKS chain widths
 * and primes just under the 2^62 lazy-reduction cap (where the 128-bit
 * NewLimb accumulator and the overshoot Shoup multiply have the least
 * headroom); n = 203 is off the lane grid so vector tails run too.
 */
TEST(SimdBasis, ConvertBitExactAcrossBackends)
{
    const size_t n = 203;
    struct Shape
    {
        unsigned from_bits, to_bits;
        size_t k;
    };
    for (const Shape& shape : {Shape{45, 46, 4}, Shape{61, 61, 5},
                               Shape{60, 61, 17}}) {
        SCOPED_TRACE("from " + std::to_string(shape.from_bits) + " bits x" +
                     std::to_string(shape.k) + ", to " +
                     std::to_string(shape.to_bits) + " bits");
        auto primes_from = generateNttPrimes(shape.from_bits, 256, shape.k);
        auto primes_to = generateNttPrimes(shape.to_bits, 256, 3, primes_from);
        std::vector<Modulus> from_m, to_m;
        for (u64 p : primes_from)
            from_m.emplace_back(p);
        for (u64 p : primes_to)
            to_m.emplace_back(p);
        RnsBasis from(std::move(from_m)), to(std::move(to_m));
        BasisConverter conv(from, to);

        std::vector<std::vector<u64>> in(from.size());
        std::vector<const u64*> in_ptrs;
        for (size_t i = 0; i < from.size(); ++i) {
            in[i] = randomResidues(n, from[i], 70 + i);
            // Pin the extremes: all-zero and all-(q-1) coefficients give
            // the smallest and largest overshoot counts.
            in[i][0] = 0;
            in[i][1] = from[i].value() - 1;
            in_ptrs.push_back(in[i].data());
        }

        // Every output of every entry point, concatenated limb by limb.
        auto run = [&](simd::Backend b) {
            ScopedBackend sb(b);
            std::vector<std::vector<u64>> outs;
            for (ConvMode mode : {ConvMode::SignedExact, ConvMode::Approx}) {
                std::vector<std::vector<u64>> out(to.size(),
                                                  std::vector<u64>(n));
                std::vector<u64*> out_ptrs;
                for (auto& limb : out)
                    out_ptrs.push_back(limb.data());
                conv.convert(in_ptrs, n, out_ptrs, mode);
                outs.insert(outs.end(), out.begin(), out.end());
                for (size_t j = 0; j < to.size(); ++j) {
                    std::vector<u64> limb(n);
                    conv.convertLimbRaw(in_ptrs, n, j, limb.data(), mode);
                    outs.push_back(limb);
                }
            }
            std::vector<std::vector<u64>> scaled(from.size(),
                                                 std::vector<u64>(n));
            std::vector<const u64*> scaled_ptrs;
            for (size_t i = 0; i < from.size(); ++i) {
                conv.scaleSourceRaw(in[i].data(), n, i, scaled[i].data());
                scaled_ptrs.push_back(scaled[i].data());
            }
            std::vector<u64> us(n);
            conv.overshootRaw(scaled_ptrs, n, us.data());
            const std::vector<const u64*> overshoots = {us.data(), nullptr};
            for (const u64* overshoot : overshoots) {
                for (size_t j = 0; j < to.size(); ++j) {
                    std::vector<u64> limb(n);
                    conv.accumulateScaledRaw(scaled_ptrs, overshoot, n, j,
                                             limb.data());
                    outs.push_back(limb);
                }
            }
            return outs;
        };

        const auto ref = run(simd::Backend::Scalar);
        // The streaming factorization reproduces convert() in both modes.
        const size_t t = to.size();
        for (size_t j = 0; j < t; ++j) {
            EXPECT_EQ(ref[4 * t + j], ref[j]) << "SignedExact, target " << j;
            EXPECT_EQ(ref[5 * t + j], ref[2 * t + j]) << "Approx, target " << j;
            EXPECT_EQ(ref[t + j], ref[j]) << "convertLimbRaw, target " << j;
        }
        for (simd::Backend b : vectorBackends())
            EXPECT_EQ(run(b), ref) << simd::backendName(b);
    }
}

/**
 * Key switching end to end: the MAC loops, the fused P-lift and ModDown's
 * subtract-and-scale dispatch through the SIMD table, so keySwitch,
 * keySwitchMerged (Mult relinearization) and rotateRaised must leave
 * the same bytes on every backend under every stream policy — and the
 * same bytes as the scalar materializing path.
 */
TEST(SimdKeySwitch, BitExactAcrossBackendsAndStreamPolicies)
{
    test::CkksHarness h(CkksParams::unitTest());
    const GaloisKeys gks = h.makeGaloisKeys({1});
    const SwitchingKey& gk = gks.at(h.ctx->ring()->galoisElt(1));
    const auto& ksw = h.eval->keySwitcher();
    const size_t level = h.ctx->maxLevel();
    const auto basis = h.ctx->ring()->qIndices(level);
    Sampler s(31);
    auto randomEval = [&] {
        RnsPoly p(h.ctx->ring(), basis, Rep::Coeff);
        p.setFromSigned(s.centeredBinomial(h.ctx->degree()));
        p.toEval();
        return p;
    };
    const RnsPoly x = randomEval();
    const RnsPoly d0 = randomEval(), d1 = randomEval(), d2 = randomEval();
    const Ciphertext ct = h.encryptSlots(test::randomSlots(h.ctx->slots(), 8),
                                         level);

    auto run = [&](simd::Backend b, StreamPolicy p) {
        ScopedBackend sb(b);
        ScopedStreamPolicy sp(p);
        std::vector<RnsPoly> out;
        auto [u, v] = ksw.keySwitch(x, gk);
        out.push_back(std::move(u));
        out.push_back(std::move(v));
        auto [mu, mv] = ksw.keySwitchMerged(d2, h.rlk, d0, d1);
        out.push_back(std::move(mu));
        out.push_back(std::move(mv));
        const auto digits = ksw.decomposeAndRaise(ct.c1);
        RaisedCiphertext r = h.eval->rotateRaised(digits, ct, 1, gks);
        out.push_back(std::move(r.c0));
        out.push_back(std::move(r.c1));
        return out;
    };
    static const char* const kNames[] = {"keySwitch u", "keySwitch v",
                                         "merged u",    "merged v",
                                         "rotateRaised c0",
                                         "rotateRaised c1"};

    const auto ref = run(simd::Backend::Scalar, StreamPolicy::Off);
    std::vector<simd::Backend> all = {simd::Backend::Scalar};
    for (simd::Backend b : vectorBackends())
        all.push_back(b);
    for (simd::Backend b : all) {
        for (StreamPolicy p : kStreamPolicies) {
            const auto got = run(b, p);
            for (size_t i = 0; i < ref.size(); ++i)
                EXPECT_TRUE(got[i].equals(ref[i]))
                    << kNames[i] << " differs: " << simd::backendName(b)
                    << ", stream " << streamPolicyName(p);
        }
    }
}

/**
 * The fused FP transform must refuse inputs outside its proven domain
 * (q >= 2^50, or rings too small to fill a vector) so the caller falls
 * back to the integer path instead of silently losing exactness.
 */
TEST(SimdFp, TransformRejectsOutOfDomainInputs)
{
    for (const simd::Kernels* V :
         {simd::avx2Kernels(), simd::avx512Kernels()}) {
        if (!V)
            continue;
        ASSERT_NE(V->fp_transform, nullptr) << V->name;
        u64 buf[16] = {0};
        // 54-bit modulus: the 2^53 error-free multiply budget is gone.
        EXPECT_FALSE(V->fp_transform(buf, 16, nullptr, nullptr, nullptr,
                                     (1ULL << 54) + 1));
        // Ring smaller than two vectors: no room for the lane shuffles.
        EXPECT_FALSE(V->fp_transform(buf, V->lanes, nullptr, nullptr,
                                     nullptr, (1ULL << 45) + 1));
    }
}

/**
 * The rns.ntt_fwd fault site must keep firing when the fused SIMD path
 * handles the transform — the guard hooks the batch entry points, not
 * the scalar stage loop, so arming a fault under MADFHE_SIMD=auto (or
 * any vector backend) still lands a bit flip in the produced limb.
 */
TEST(SimdFault, NttInjectionFiresUnderVectorBackends)
{
    const size_t n = 1024;
    const Modulus q(generateNttPrimes(45, n, 1)[0]);
    const NttTables tab(n, q);
    const auto coeff = randomResidues(n, q, 99);

    auto clean = coeff;
    {
        ScopedBackend sb(simd::Backend::Scalar);
        tab.forward(clean.data());
    }

    std::vector<simd::Backend> all = {simd::Backend::Scalar};
    for (simd::Backend b : vectorBackends())
        all.push_back(b);
    for (simd::Backend b : all) {
        ScopedBackend sb(b);
        // arm() zeroes the per-arm fired counter, so == 1 after one
        // forward proves this arming (not a previous one) fired.
        faultinject::arm({"rns.ntt_fwd", 0, faultinject::Kind::BitFlip, 3});
        auto buf = coeff;
        tab.forward(buf.data());
        faultinject::disarm();
        EXPECT_EQ(faultinject::firedCount(), 1u) << simd::backendName(b);
        EXPECT_NE(buf, clean)
            << simd::backendName(b) << ": armed bit flip left no trace";
    }
}

/**
 * Satellite: seed-compressed ciphertext expansion. The c1 component is
 * regenerated from a 32-byte PRNG seed on the receiving side, so both
 * halves of the wire must derive bit-identical polynomials no matter
 * which SIMD backend or thread count they run — this test rebuilds the
 * whole stack per configuration (all sampling is seeded from
 * params.seed) and compares every limb byte-for-byte.
 */
TEST(SimdSeeded, CiphertextExpansionBitExactAcrossBackendsAndThreads)
{
    CkksParams params;
    params.log_n = 10;
    params.log_scale = 30;
    params.first_prime_bits = 40;
    params.num_levels = 3;

    struct Snapshot
    {
        std::vector<std::vector<u64>> c0, c1;
        double scale;
    };
    auto run = [&](simd::Backend b, size_t threads) {
        ScopedBackend sb(b);
        ThreadPool::setGlobalThreads(threads);
        auto ctx = std::make_shared<CkksContext>(params);
        CkksEncoder encoder(ctx);
        KeyGenerator keygen(ctx);
        SecretKey sk = keygen.secretKey();
        Encryptor enc(ctx, keygen.publicKey(sk));
        auto slots = test::randomSlots(ctx->slots(), 21);
        Plaintext pt = encoder.encode(slots, ctx->scale(), ctx->maxLevel());
        SeededCiphertext sct = enc.encryptSymmetricSeeded(pt, sk);
        Ciphertext ct = expandSeeded(*ctx, sct);
        Snapshot s;
        s.scale = ct.scale;
        for (size_t i = 0; i < ct.c0.numLimbs(); ++i) {
            s.c0.emplace_back(ct.c0.limb(i), ct.c0.limb(i) + ct.c0.degree());
            s.c1.emplace_back(ct.c1.limb(i), ct.c1.limb(i) + ct.c1.degree());
        }
        ThreadPool::setGlobalThreads(ThreadPool::defaultThreads());
        return s;
    };

    const Snapshot ref = run(simd::Backend::Scalar, 1);
    std::vector<simd::Backend> all = {simd::Backend::Scalar};
    for (simd::Backend b : vectorBackends())
        all.push_back(b);
    for (simd::Backend b : all) {
        for (size_t threads : {size_t{1}, size_t{4}}) {
            if (b == simd::Backend::Scalar && threads == 1)
                continue;
            const Snapshot got = run(b, threads);
            EXPECT_EQ(got.c1, ref.c1)
                << simd::backendName(b) << " threads=" << threads
                << ": reconstructed c1 not byte-identical";
            EXPECT_EQ(got.c0, ref.c0)
                << simd::backendName(b) << " threads=" << threads;
            EXPECT_EQ(got.scale, ref.scale);
        }
    }
}

} // namespace
} // namespace madfhe
