/**
 * @file
 * End-to-end bootstrapping test (Algorithm 4) at toy parameters, plus
 * unit tests of ModRaise and the level/shape contracts.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "boot/bootstrapper.h"
#include "ckks/backend.h"
#include "test_util.h"

namespace madfhe {
namespace {

using test::CkksHarness;

BootstrapParams
toyBootParams()
{
    BootstrapParams bp;
    bp.ctos_iters = 3;
    bp.stoc_iters = 3;
    bp.sine_degree = 71;
    bp.k_bound = 8.0;
    return bp;
}

class BootstrapTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        CkksParams p = CkksParams::bootstrapToy();
        p.log_n = 11;
        p.hamming_weight = 16; // keeps |I| < K = 8 w.h.p.
        harness = new CkksHarness(p);
        boot = new Bootstrapper(harness->ctx, toyBootParams());
        KeyGenerator keygen(harness->ctx);
        gks = new GaloisKeys(keygen.galoisKeys(
            harness->sk, boot->requiredRotations(), /*conj=*/true));
    }
    static void
    TearDownTestSuite()
    {
        delete gks;
        delete boot;
        delete harness;
        gks = nullptr;
        boot = nullptr;
        harness = nullptr;
    }
    static CkksHarness* harness;
    static Bootstrapper* boot;
    static GaloisKeys* gks;
};

CkksHarness* BootstrapTest::harness = nullptr;
Bootstrapper* BootstrapTest::boot = nullptr;
GaloisKeys* BootstrapTest::gks = nullptr;

TEST_F(BootstrapTest, ModRaisePreservesMessageModQ0)
{
    auto& h = *harness;
    auto v = test::randomSlots(h.ctx->slots(), 1);
    for (auto& z : v)
        z *= 0.5;
    auto ct = h.encryptSlots(v, 1);
    Ciphertext raised = boot->modRaise(ct);
    EXPECT_EQ(raised.level(), h.ctx->maxLevel());
    // Decrypting the raised ciphertext gives Delta*m + q0*I; dropping it
    // back to one limb removes the q0*I part exactly.
    Ciphertext back = h.eval->dropToLevel(raised, 1);
    EXPECT_LT(test::maxError(v, h.decryptSlots(back)), 1e-4);
}

TEST_F(BootstrapTest, ModRaiseRequiresOneLimb)
{
    auto& h = *harness;
    auto ct = h.encryptSlots(test::randomSlots(h.ctx->slots(), 2), 2);
    EXPECT_THROW(boot->modRaise(ct), std::invalid_argument);
}

TEST_F(BootstrapTest, DepthFitsChain)
{
    EXPECT_LT(boot->depth(), harness->ctx->maxLevel() - 1);
}

TEST_F(BootstrapTest, OutputDigestPinned)
{
    // Pinned against the implementation whose bootstrap matvecs ran the
    // copy-per-diagonal accumulation; the limb-fused one is byte-identical.
    // A fresh seeded encryptor keeps the input independent of test order.
    auto& h = *harness;
    auto v = test::randomSlots(h.ctx->slots(), 6);
    for (auto& z : v)
        z *= 0.5;
    Encryptor enc(h.ctx, h.pk, /*seed=*/61);
    Ciphertext ct = enc.encrypt(h.encoder->encode(v, h.ctx->scale(), 1));
    Ciphertext fresh = boot->bootstrap(*h.eval, *h.encoder, ct, *gks, h.rlk);
    EXPECT_EQ(RealBackend(h.ctx).resultDigest(fresh), "r:7eb1fb1c8da0d235");
}

TEST_F(BootstrapTest, EndToEndRefreshesLevels)
{
    auto& h = *harness;
    const size_t slots = h.ctx->slots();
    // Modest-magnitude messages: the sine approximation needs
    // |Delta*m| << q0.
    auto v = test::randomSlots(slots, 3);
    for (auto& z : v)
        z *= 0.5;

    auto ct = h.encryptSlots(v, 1);
    ASSERT_EQ(ct.level(), 1u);

    Ciphertext fresh = boot->bootstrap(*h.eval, *h.encoder, ct, *gks, h.rlk);

    // Levels were recovered...
    EXPECT_GE(fresh.level(), 2u);
    // ...and the message survived.
    auto w = h.decryptSlots(fresh);
    double max_err = test::maxError(v, w);
    EXPECT_LT(max_err, 0.02) << "bootstrapping precision too low";

    // The refreshed ciphertext is usable: square it.
    Ciphertext sq = h.eval->square(fresh, h.rlk);
    auto w2 = h.decryptSlots(sq);
    for (size_t i = 0; i < slots; ++i)
        EXPECT_LT(std::abs(w2[i] - v[i] * v[i]), 0.05);
}

} // namespace
} // namespace madfhe
