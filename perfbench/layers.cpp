/**
 * @file
 * Per-layer primitive sweep: each metric times one public call of the
 * rns, ring or ckks layer at the top level of the workload's context,
 * as the median over repeated calls.
 */
#include <cstring>
#include <random>

#include "bench.h"
#include "ckks/keyswitch.h"
#include "rns/basis.h"
#include "rns/ntt.h"

namespace perfbench {

namespace {

using namespace madfhe;

/** Median seconds of `fn`, repeated for about `budget` seconds. */
template <typename Fn>
double
budgetMedian(double budget, Fn&& fn)
{
    std::vector<double> t;
    const auto start = Clock::now();
    while (t.size() < 5 || (t.size() < 2000 && secondsSince(start) < budget)) {
        const auto t0 = Clock::now();
        fn();
        t.push_back(secondsSince(t0));
    }
    return median(std::move(t));
}

constexpr double kBudget = 0.3;

} // namespace

double
hostCopyGbps()
{
    const size_t bytes = 32u << 20;
    std::vector<char> src(bytes, 1), dst(bytes, 0);
    std::vector<double> rates;
    for (int i = 0; i < 9; ++i) {
        src[static_cast<size_t>(i) * 4096] = static_cast<char>(i);
        const auto t0 = Clock::now();
        std::memcpy(dst.data(), src.data(), bytes);
        rates.push_back(2.0 * bytes / secondsSince(t0) / 1e9);
    }
    if (dst[4096] != src[4096])
        std::fprintf(stderr, "perfbench: copy mismatch\n");
    return median(std::move(rates));
}

void
primitiveLayers(const PrimitiveSetup& s, Report& r)
{
    const auto& ctx = s.ctx;
    const size_t top = ctx->maxLevel();
    const size_t n = ctx->degree();
    CkksEncoder encoder(ctx);
    Encryptor encryptor(ctx, *s.pk, s.seed ^ 0x5eedULL);
    Decryptor decryptor(ctx, *s.sk);
    Evaluator eval(ctx);

    std::mt19937_64 rng(s.seed);
    std::uniform_real_distribution<double> u(-0.5, 0.5);
    std::vector<std::complex<double>> v(ctx->slots());
    for (auto& z : v)
        z = {u(rng), u(rng)};
    const Plaintext pt = encoder.encode(v, ctx->scale(), top);
    const Ciphertext a = encryptor.encrypt(pt);
    const Ciphertext b = encryptor.encrypt(pt);

    // rns: one limb forward/inverse NTT, alternating so values stay valid.
    {
        const NttTables& ntt = ctx->ring()->ntt(0);
        std::vector<u64> limb(a.c0.limb(0), a.c0.limb(0) + n);
        std::vector<double> fwd, inv;
        for (int i = 0; i < 400; ++i) {
            const auto t0 = Clock::now();
            ntt.forward(limb.data());
            const auto t1 = Clock::now();
            ntt.inverse(limb.data());
            fwd.push_back(std::chrono::duration<double>(t1 - t0).count());
            inv.push_back(secondsSince(t1));
        }
        r.add("rns.ntt_fwd_us", median(fwd) * 1e6, "us");
        r.add("rns.ntt_inv_us", median(inv) * 1e6, "us");
    }
    // rns: digit 0's ModUp basis conversion at the top level.
    {
        RnsPoly x = a.c1;
        x.toCoeff();
        const BasisConverter& conv = ctx->modUpConverter(0, top);
        std::vector<const u64*> in;
        for (size_t i = 0; i < conv.source().size(); ++i)
            in.push_back(x.limb(i));
        std::vector<std::vector<u64>> out_limbs(conv.target().size(),
                                                std::vector<u64>(n));
        std::vector<u64*> out;
        for (auto& l : out_limbs)
            out.push_back(l.data());
        r.add("rns.modup_us",
              budgetMedian(kBudget, [&] { conv.convert(in, n, out); }) * 1e6,
              "us");
    }
    const u64 elt = ctx->ring()->galoisElt(s.steps.at(0));
    r.add("ring.automorphism_us",
          budgetMedian(kBudget, [&] { (void)a.c0.automorph(elt); }) * 1e6,
          "us");

    const auto ms = [](double sec) { return sec * 1e3; };
    r.add("ckks.mult_ms",
          ms(budgetMedian(kBudget, [&] { (void)eval.mul(a, b, *s.rlk); })),
          "ms");
    const double rot = budgetMedian(
        kBudget, [&] { (void)eval.rotate(a, s.steps[0], *s.gks); });
    r.add("ckks.rotate_ms", ms(rot), "ms");
    const double hoisted = budgetMedian(
        kBudget, [&] { (void)eval.rotateHoisted(a, s.steps, *s.gks); });
    r.add("ckks.rotate_hoisted_ms",
          ms((hoisted - rot) / static_cast<double>(s.steps.size() - 1)),
          "ms");
    r.add("ckks.keyswitch_ms", ms(budgetMedian(kBudget, [&] {
              (void)eval.keySwitcher().keySwitch(a.c1, *s.rlk);
          })),
          "ms");
    r.add("ckks.rescale_ms",
          ms(budgetMedian(kBudget, [&] { (void)eval.rescale(a); })), "ms");
    if (s.matvec != nullptr) {
        Evaluator mv_eval(s.matvec_ctx);
        CkksEncoder mv_encoder(s.matvec_ctx);
        r.add("ckks.matvec_ms", ms(budgetMedian(kBudget, [&] {
                  (void)s.matvec->apply(mv_eval, mv_encoder, *s.matvec_input,
                                        *s.matvec_gks);
              })),
              "ms");
    }
    r.add("ckks.encode_ms", ms(budgetMedian(kBudget, [&] {
              (void)encoder.encode(v, ctx->scale(), top);
          })),
          "ms");
    r.add("ckks.encrypt_ms",
          ms(budgetMedian(kBudget, [&] { (void)encryptor.encrypt(pt); })),
          "ms");
    r.add("ckks.decrypt_ms",
          ms(budgetMedian(kBudget, [&] { (void)decryptor.decrypt(a); })),
          "ms");
}

} // namespace perfbench
