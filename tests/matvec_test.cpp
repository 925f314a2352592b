/**
 * @file
 * PtMatVecMult tests: the hoisted BSGS schedule against the plaintext
 * reference, plus output digests pinned across implementations.
 */
#include <gtest/gtest.h>

#include "apps/mlp.h"
#include "ckks/backend.h"
#include "ckks/matvec.h"
#include "test_util.h"

namespace madfhe {
namespace {

using test::CkksHarness;
using test::maxError;
using test::randomSlots;

std::map<int, std::vector<std::complex<double>>>
randomDiagonals(size_t slots, const std::vector<int>& indices, u64 seed)
{
    std::map<int, std::vector<std::complex<double>>> diags;
    u64 s = seed;
    for (int d : indices)
        diags[d] = randomSlots(slots, s++);
    return diags;
}

class MatVecTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        h = std::make_unique<CkksHarness>(CkksParams::unitTest());
    }
    std::unique_ptr<CkksHarness> h;
};

TEST_F(MatVecTest, SingleDiagonalIsPointwiseProduct)
{
    const size_t slots = h->ctx->slots();
    auto diags = randomDiagonals(slots, {0}, 1);
    LinearTransform lt(h->ctx, diags, h->ctx->scale());
    auto x = randomSlots(slots, 2);
    auto ct = h->encryptSlots(x, 3);
    GaloisKeys gks = h->makeGaloisKeys(lt.requiredRotations());
    auto y = h->decryptSlots(lt.apply(*h->eval, *h->encoder, ct, gks));
    auto expect = lt.applyPlain(x);
    EXPECT_LT(maxError(expect, y), 1e-3);
}

TEST_F(MatVecTest, GeneralDiagonalsMatchPlainReference)
{
    const size_t slots = h->ctx->slots();
    auto diags = randomDiagonals(slots, {0, 1, 2, 5, 9}, 3);
    LinearTransform lt(h->ctx, diags, h->ctx->scale());
    auto x = randomSlots(slots, 4);
    auto ct = h->encryptSlots(x, 3);
    GaloisKeys gks = h->makeGaloisKeys(lt.requiredRotations());
    auto y = h->decryptSlots(lt.apply(*h->eval, *h->encoder, ct, gks));
    EXPECT_LT(maxError(lt.applyPlain(x), y), 1e-3);
}

TEST_F(MatVecTest, NegativeDiagonalIndicesWrap)
{
    const size_t slots = h->ctx->slots();
    auto diags = randomDiagonals(slots, {-1, 0, 1}, 5);
    LinearTransform lt(h->ctx, diags, h->ctx->scale());
    auto x = randomSlots(slots, 6);
    auto ct = h->encryptSlots(x, 3);
    GaloisKeys gks = h->makeGaloisKeys(lt.requiredRotations());
    auto y = h->decryptSlots(lt.apply(*h->eval, *h->encoder, ct, gks));
    EXPECT_LT(maxError(lt.applyPlain(x), y), 1e-3);
}

TEST_F(MatVecTest, ApplyConsumesExactlyOneLevel)
{
    const size_t slots = h->ctx->slots();
    auto diags = randomDiagonals(slots, {0, 3}, 7);
    LinearTransform lt(h->ctx, diags, h->ctx->scale());
    auto ct = h->encryptSlots(randomSlots(slots, 8), 4);
    GaloisKeys gks = h->makeGaloisKeys(lt.requiredRotations());
    auto out = lt.apply(*h->eval, *h->encoder, ct, gks);
    EXPECT_EQ(out.level(), 3u);
}

TEST_F(MatVecTest, ExplicitBabyStepCount)
{
    const size_t slots = h->ctx->slots();
    auto diags = randomDiagonals(slots, {0, 1, 2, 3, 4, 5}, 11);
    MatVecOptions opts;
    opts.baby_steps = 2;
    LinearTransform lt(h->ctx, diags, h->ctx->scale(), opts);
    auto x = randomSlots(slots, 12);
    auto ct = h->encryptSlots(x, 3);
    GaloisKeys gks = h->makeGaloisKeys(lt.requiredRotations());
    auto y = h->decryptSlots(lt.apply(*h->eval, *h->encoder, ct, gks));
    EXPECT_LT(maxError(lt.applyPlain(x), y), 1e-3);
}

// Output digests pinned against the implementation that kept separate
// unfused and limb-fused BSGS accumulations (both byte-identical): any
// change to the schedule's arithmetic or its key material shows here.
class MatVecDigest : public MatVecTest
{
  protected:
    std::string
    applyDigest(const LinearTransform& lt, const Ciphertext& ct)
    {
        GaloisKeys gks = h->makeGaloisKeys(lt.requiredRotations());
        RealBackend backend(h->ctx);
        return backend.resultDigest(
            lt.apply(*h->eval, *h->encoder, ct, gks));
    }
};

TEST_F(MatVecDigest, DefaultSplit)
{
    const size_t slots = h->ctx->slots();
    LinearTransform lt(h->ctx, randomDiagonals(slots, {0, 1, 2, 3, 5, 8}, 13),
                       h->ctx->scale());
    auto ct = h->encryptSlots(randomSlots(slots, 14), h->ctx->maxLevel());
    EXPECT_EQ(applyDigest(lt, ct), "r:f299251bc9783e81");
}

TEST_F(MatVecDigest, TwoBabySteps)
{
    const size_t slots = h->ctx->slots();
    MatVecOptions opts;
    opts.baby_steps = 2;
    LinearTransform lt(h->ctx,
                       randomDiagonals(slots, {0, 1, 2, 3, 4, 5}, 11),
                       h->ctx->scale(), opts);
    auto ct = h->encryptSlots(randomSlots(slots, 12), h->ctx->maxLevel());
    EXPECT_EQ(applyDigest(lt, ct), "r:34df2f99641fabf3");
}

TEST_F(MatVecDigest, AliasedNegativeDiagonals)
{
    // The MLP's block-dense layout: wrapping rows land on negative
    // diagonals d - dim, which alias to slots + d - dim.
    const size_t slots = h->ctx->slots();
    const size_t dim = 8;
    std::vector<std::vector<double>> w(dim, std::vector<double>(dim));
    auto vals = test::randomReals(dim * dim, 21);
    for (size_t r = 0; r < dim; ++r)
        for (size_t c = 0; c < dim; ++c)
            w[r][c] = vals[r * dim + c];
    LinearTransform lt(h->ctx, apps::blockDenseDiagonals(w, dim, slots),
                       h->ctx->scale());
    auto ct = h->encryptSlots(randomSlots(slots, 22), h->ctx->maxLevel());
    EXPECT_EQ(applyDigest(lt, ct), "r:b6bb4842b8f060c6");
}

TEST_F(MatVecDigest, InputBelowTopLevel)
{
    const size_t slots = h->ctx->slots();
    ASSERT_GT(h->ctx->maxLevel(), 2u);
    LinearTransform lt(h->ctx, randomDiagonals(slots, {0, 1, 4, 6, 11, 13}, 9),
                       h->ctx->scale());
    auto ct = h->encryptSlots(randomSlots(slots, 10), 2);
    EXPECT_EQ(applyDigest(lt, ct), "r:f8f7ad1f3e48d2ca");
}

TEST_F(MatVecTest, RejectsEmptyAndBadDiagonals)
{
    std::map<int, std::vector<std::complex<double>>> empty;
    EXPECT_THROW(LinearTransform(h->ctx, empty, h->ctx->scale()),
                 std::invalid_argument);
    std::map<int, std::vector<std::complex<double>>> bad;
    bad[0] = randomSlots(3, 1); // wrong length
    EXPECT_THROW(LinearTransform(h->ctx, bad, h->ctx->scale()),
                 std::invalid_argument);
}

} // namespace
} // namespace madfhe
