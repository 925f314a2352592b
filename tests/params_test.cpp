/**
 * @file
 * Parameter and context tests: validation rejects inconsistent sets,
 * derived quantities are right, the modulus chain has the shape the
 * scheme expects, and the cached converters agree with fresh ones.
 */
#include <gtest/gtest.h>

#include "ckks/context.h"
#include "rns/primegen.h"
#include "support/parallel.h"
#include "support/threadpool.h"

namespace madfhe {
namespace {

TEST(CkksParamsTest, PresetsValidate)
{
    EXPECT_NO_THROW(CkksParams::unitTest().validate());
    EXPECT_NO_THROW(CkksParams::medium().validate());
    EXPECT_NO_THROW(CkksParams::bootstrapToy().validate());
}

TEST(CkksParamsTest, RejectsInconsistentSets)
{
    CkksParams p = CkksParams::unitTest();
    p.log_n = 2;
    EXPECT_THROW(p.validate(), std::invalid_argument);

    p = CkksParams::unitTest();
    p.log_scale = 10;
    EXPECT_THROW(p.validate(), std::invalid_argument);

    p = CkksParams::unitTest();
    p.first_prime_bits = p.log_scale; // must be strictly wider
    EXPECT_THROW(p.validate(), std::invalid_argument);

    p = CkksParams::unitTest();
    p.num_levels = 0;
    EXPECT_THROW(p.validate(), std::invalid_argument);

    p = CkksParams::unitTest();
    p.dnum = p.chainLength() + 1;
    EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(CkksParamsTest, DerivedQuantities)
{
    CkksParams p = CkksParams::unitTest(); // log_n=10, 4 levels, dnum=2
    EXPECT_EQ(p.n(), 1024u);
    EXPECT_EQ(p.slots(), 512u);
    EXPECT_EQ(p.chainLength(), 5u);
    EXPECT_EQ(p.alpha(), 3u); // ceil(5/2)
    EXPECT_DOUBLE_EQ(p.scale(), static_cast<double>(1ULL << 35));
}

TEST(CkksContextTest, ChainShape)
{
    auto ctx = std::make_shared<CkksContext>(CkksParams::unitTest());
    // q_0 is the wide base prime; scale primes hug 2^log_scale.
    EXPECT_GT(ctx->qValue(0), 1ULL << 44);
    for (size_t i = 1; i < ctx->maxLevel(); ++i) {
        double ratio = static_cast<double>(ctx->qValue(i)) /
                       ctx->params().scale();
        EXPECT_GT(ratio, 0.999) << "limb " << i;
        EXPECT_LT(ratio, 1.001) << "limb " << i;
    }
    // All chain moduli are distinct NTT primes.
    auto ring = ctx->ring();
    for (size_t i = 0; i < ring->numModuli(); ++i) {
        EXPECT_TRUE(isPrime(ring->modulus(i).value()));
        EXPECT_EQ(ring->modulus(i).value() % (2 * ring->degree()), 1u);
        for (size_t j = i + 1; j < ring->numModuli(); ++j)
            EXPECT_NE(ring->modulus(i).value(), ring->modulus(j).value());
    }
}

TEST(CkksContextTest, DigitGeometry)
{
    CkksParams p = CkksParams::unitTest(); // 5 limbs, dnum=2, alpha=3
    auto ctx = std::make_shared<CkksContext>(p);
    EXPECT_EQ(ctx->numDigits(5), 2u);
    EXPECT_EQ(ctx->numDigits(3), 1u);
    EXPECT_EQ(ctx->digitStart(1), 3u);
    EXPECT_EQ(ctx->digitSize(0, 5), 3u);
    EXPECT_EQ(ctx->digitSize(1, 5), 2u); // truncated last digit
    EXPECT_THROW(ctx->digitSize(1, 3), std::logic_error);
}

TEST(CkksContextTest, RaisedIndicesLayout)
{
    auto ctx = std::make_shared<CkksContext>(CkksParams::unitTest());
    auto idx = ctx->raisedIndices(2);
    ASSERT_EQ(idx.size(), 2 + ctx->ring()->numP());
    EXPECT_EQ(idx[0], 0u);
    EXPECT_EQ(idx[1], 1u);
    // P limbs follow the Q prefix and sit after the full Q chain.
    for (size_t i = 2; i < idx.size(); ++i)
        EXPECT_GE(idx[i], ctx->maxLevel());
}

TEST(CkksContextTest, ScalarTablesAreConsistent)
{
    auto ctx = std::make_shared<CkksContext>(CkksParams::unitTest());
    auto ring = ctx->ring();
    for (size_t i = 0; i < ctx->maxLevel(); ++i) {
        const Modulus& qi = ring->modulus(i);
        // P * P^{-1} = 1 mod q_i.
        EXPECT_EQ(qi.mul(ctx->pModQ(i), ctx->pInvModQ(i)), 1u);
    }
    for (size_t lvl = 2; lvl <= ctx->maxLevel(); ++lvl) {
        u64 q_top = ctx->qValue(lvl - 1);
        for (size_t i = 0; i + 1 < lvl; ++i) {
            const Modulus& qi = ring->modulus(i);
            EXPECT_EQ(qi.mul(ctx->rescaleInv(lvl, i), qi.reduce(q_top)),
                      1u);
            // mergedInv = (P * q_top)^{-1}.
            u64 pq = qi.mul(ctx->pModQ(i), qi.reduce(q_top));
            EXPECT_EQ(qi.mul(ctx->mergedInv(lvl, i), pq), 1u);
        }
    }
}

TEST(CkksContextTest, ConvertersAreCachedByIdentity)
{
    auto ctx = std::make_shared<CkksContext>(CkksParams::unitTest());
    const BasisConverter& a = ctx->modUpConverter(0, 5);
    const BasisConverter& b = ctx->modUpConverter(0, 5);
    EXPECT_EQ(&a, &b);
    const BasisConverter& c = ctx->modDownConverter(4);
    const BasisConverter& d = ctx->modDownConverter(4);
    EXPECT_EQ(&c, &d);
}

TEST(CkksContextTest, ConvertersFillSafelyFromPoolWorkers)
{
    // The converter caches fill lazily, and key switching asks for
    // converters from inside pool workers. Workers filling a cold cache
    // at once must each get the one cached converter per key.
    const size_t prev_threads = ThreadPool::global().size();
    ThreadPool::setGlobalThreads(4);
    for (int round = 0; round < 20; ++round) {
        auto ctx = std::make_shared<CkksContext>(CkksParams::unitTest());
        const size_t levels = ctx->maxLevel();
        // Task t walks every converter, starting at its own level.
        auto walk = [&](size_t t) {
            std::vector<const BasisConverter*> seen;
            for (size_t s = 0; s < levels; ++s) {
                const size_t level = 1 + (s + t) % levels;
                for (size_t d = 0; d < ctx->numDigits(level); ++d)
                    seen.push_back(&ctx->modUpConverter(d, level));
                seen.push_back(&ctx->modDownConverter(level));
                if (level >= 2)
                    seen.push_back(&ctx->mergedModDownConverter(level));
            }
            return seen;
        };
        const size_t tasks = 16;
        std::vector<std::vector<const BasisConverter*>> got(tasks);
        parallelFor(tasks, [&](size_t t) { got[t] = walk(t); });
        for (size_t t = 0; t < tasks; ++t)
            EXPECT_EQ(got[t], walk(t)) << "round " << round << " task " << t;
    }
    ThreadPool::setGlobalThreads(prev_threads);
}

} // namespace
} // namespace madfhe
