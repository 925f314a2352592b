/**
 * @file
 * Evaluation-graph IR tests: shape inference mirrors the Evaluator's
 * level/scale state machine (same UserError messages), the pass pipeline
 * places drops/rescales and hoists/fuses correctly, and — the load-bearing
 * invariant — graph execution is byte-identical to the imperative
 * schedule on the real backend at every stream policy and thread count,
 * and value-identical on the virtual backend.
 */
#include <gtest/gtest.h>

#include "apps/lr.h"
#include "apps/mlp.h"
#include "ckks/backend.h"
#include "ckks/stream.h"
#include "graph/exec.h"
#include "graph/passes.h"
#include "support/threadpool.h"
#include "test_util.h"
#include "virtual/backend.h"

namespace madfhe {
namespace {

using namespace apps;
using test::CkksHarness;
using test::randomSlots;

bool
sameBytes(const Ciphertext& a, const Ciphertext& b)
{
    return a.c0.equals(b.c0) && a.c1.equals(b.c1) && a.scale == b.scale;
}

/** Restores the previous global pool size on scope exit. */
struct ScopedThreads
{
    explicit ScopedThreads(size_t n) { ThreadPool::setGlobalThreads(n); }
    ~ScopedThreads() { ThreadPool::setGlobalThreads(0); }
};

// ---------------------------------------------------------------------------
// Shape inference
// ---------------------------------------------------------------------------

class GraphShapes : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ctx = std::make_shared<CkksContext>(CkksParams::unitTest());
    }
    std::shared_ptr<CkksContext> ctx;
};

TEST_F(GraphShapes, MulChainTracksEvaluatorLevelAndScale)
{
    const double s = ctx->scale();
    graph::GraphBuilder b;
    auto a = b.input(3, s);
    auto c = b.input(3, s);
    auto m = b.mul(a, c);
    b.output(m);
    graph::Graph g = b.build();
    graph::runPasses(g, *ctx); // resolves the rescale into merged ModDown

    const graph::ValueMeta& meta = g.metaOf(g.outputs()[0]);
    EXPECT_EQ(meta.level, 2u);
    // Merged Mult: scale = sa * sb / q_{level-1}, the Evaluator formula.
    EXPECT_DOUBLE_EQ(meta.scale, s * s / ctx->qValue(2));
    EXPECT_EQ(meta.slots, ctx->slots());
}

TEST_F(GraphShapes, MirrorsEvaluatorErrorsWithoutAlignment)
{
    const double s = ctx->scale();
    {
        graph::GraphBuilder b;
        auto m = b.add(b.input(3, s), b.input(2, s));
        b.output(m);
        graph::Graph g = b.build();
        graph::PassOptions po;
        po.align_levels = false;
        try {
            graph::runPasses(g, *ctx, po);
            FAIL() << "expected UserError";
        } catch (const UserError& e) {
            EXPECT_NE(std::string(e.what()).find("ciphertext levels differ"),
                      std::string::npos);
        }
    }
    {
        graph::GraphBuilder b;
        b.output(b.mul(b.input(1, s), b.input(1, s)));
        graph::Graph g = b.build();
        try {
            graph::runPasses(g, *ctx);
            FAIL() << "expected UserError";
        } catch (const UserError& e) {
            EXPECT_NE(std::string(e.what())
                          .find("mul needs a level to rescale into"),
                      std::string::npos);
        }
    }
    {
        graph::GraphBuilder b;
        b.output(b.mulScalar(b.input(1, s), 0.5));
        graph::Graph g = b.build();
        try {
            graph::runPasses(g, *ctx);
            FAIL() << "expected UserError";
        } catch (const UserError& e) {
            EXPECT_NE(std::string(e.what())
                          .find("no level left to rescale into"),
                      std::string::npos);
        }
    }
}

TEST_F(GraphShapes, MetaBeforeInferShapesThrows)
{
    graph::GraphBuilder b;
    b.output(b.input(2, ctx->scale()));
    graph::Graph g = b.build();
    EXPECT_THROW((void)g.metaOf(g.outputs()[0]), InvariantError);
}

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

TEST_F(GraphShapes, AlignInsertsDropsAndUnmergedPlacesRescales)
{
    const double s = ctx->scale();
    graph::GraphBuilder b;
    auto a = b.input(3, s);
    auto c = b.input(3, s);
    auto m = b.mul(a, c);    // level 2 after rescale
    auto sum = b.add(m, a);  // operand levels 2 vs 3: needs a drop
    b.output(sum);
    graph::Graph g = b.build();

    graph::PassOptions po;
    po.merge_moddown = false;
    const graph::PassStats st = graph::runPasses(g, *ctx, po);
    EXPECT_EQ(st.drops_inserted, 1u);
    EXPECT_EQ(st.rescales_placed, 1u);
    EXPECT_EQ(st.moddowns_merged, 0u);
    // The drop lowered `a` to the product's level; add type-checks.
    EXPECT_EQ(g.metaOf(g.outputs()[0]).level, 2u);
}

TEST_F(GraphShapes, HoistCollapsesSameSourceRotationsOnly)
{
    const double s = ctx->scale();
    graph::GraphBuilder b;
    auto a = b.input(3, s);
    auto r1 = b.rotate(a, 1);
    auto r2 = b.rotate(a, 2);
    auto r3 = b.rotate(a, 3);
    auto other = b.rotate(r1, 1); // different source: stays a Rotate
    b.outputs({r1, r2, r3, other});
    graph::Graph g = b.build();
    const graph::PassStats st = graph::runPasses(g, *ctx);
    EXPECT_EQ(st.hoist_groups, 1u);
    EXPECT_EQ(st.rotations_hoisted, 3u);

    size_t hoisted = 0, plain = 0;
    for (const auto& n : g.nodes()) {
        hoisted += (n.kind == graph::OpKind::HoistedRotation);
        plain += (n.kind == graph::OpKind::Rotate);
    }
    EXPECT_EQ(hoisted, 1u);
    EXPECT_EQ(plain, 1u);
}

TEST_F(GraphShapes, PruneRemovesDeadNodesButKeepsInputs)
{
    const double s = ctx->scale();
    graph::GraphBuilder b;
    auto a = b.input(3, s);
    auto unused_in = b.input(3, s);
    auto dead = b.mulScalar(a, 2.0); // never consumed
    (void)dead;
    (void)unused_in;
    b.output(b.addScalar(a, 1.0));
    graph::Graph g = b.build();
    const graph::PassStats st = graph::runPasses(g, *ctx);
    EXPECT_GE(st.nodes_pruned, 1u);
    // Inputs survive pruning: run() binding is positional.
    EXPECT_EQ(g.numInputs(), 2u);
}

// ---------------------------------------------------------------------------
// Execution: byte identity against the imperative Evaluator (real backend)
// ---------------------------------------------------------------------------

class GraphExec : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        h = std::make_unique<CkksHarness>(CkksParams::unitTest());
        backend = std::make_unique<RealBackend>(h->ctx);
        gks = h->makeGaloisKeys({1, 2, 3});
    }

    /** The micro schedule: d = (a*b + rot(c,1)) * 0.5 + 1.0, minus c. */
    Ciphertext
    imperative(const Ciphertext& a, const Ciphertext& b, const Ciphertext& c)
    {
        const Evaluator& e = *h->eval;
        Ciphertext prod = e.mul(a, b, h->rlk);
        Ciphertext sum = e.add(prod, e.dropToLevel(e.rotate(c, 1, gks),
                                                   prod.level()));
        Ciphertext scaled = e.mulScalarRescale(sum, 0.5);
        return e.sub(e.addScalar(scaled, 1.0, *h->encoder),
                     e.dropToLevel(c, scaled.level()));
    }

    graph::Graph
    buildMicro(size_t level)
    {
        graph::GraphBuilder b;
        auto a = b.input(level, h->ctx->scale());
        auto bb = b.input(level, h->ctx->scale());
        auto c = b.input(level, h->ctx->scale());
        auto sum = b.add(b.mul(a, bb), b.rotate(c, 1));
        b.output(b.sub(b.addScalar(b.mulScalar(sum, 0.5), 1.0), c));
        graph::Graph g = b.build();
        graph::runPasses(g, *h->ctx);
        return g;
    }

    std::unique_ptr<CkksHarness> h;
    std::unique_ptr<RealBackend> backend;
    GaloisKeys gks;
};

TEST_F(GraphExec, MicroScheduleByteIdenticalAcrossPoliciesAndThreads)
{
    const size_t L = 3;
    auto ca = h->encryptSlots(randomSlots(h->ctx->slots(), 1), L);
    auto cb = h->encryptSlots(randomSlots(h->ctx->slots(), 2), L);
    auto cc = h->encryptSlots(randomSlots(h->ctx->slots(), 3), L);
    graph::Graph g = buildMicro(L);

    for (StreamPolicy policy : kStreamPolicies) {
        ScopedStreamPolicy sp(policy);
        Ciphertext want = imperative(ca, cb, cc);
        for (size_t threads : {size_t(1), size_t(4)}) {
            ScopedThreads st(threads);
            graph::GraphExecutor exec(*backend, &h->rlk, &gks);
            auto got = exec.run(g, {ca, cb, cc});
            ASSERT_EQ(got.size(), 1u);
            EXPECT_TRUE(sameBytes(got[0], want))
                << "policy " << streamPolicyName(policy) << " threads "
                << threads;
        }
    }
}

TEST_F(GraphExec, UnmergedPipelineMatchesMulNoRescalePlusRescale)
{
    const size_t L = 3;
    auto ca = h->encryptSlots(randomSlots(h->ctx->slots(), 4), L);
    auto cb = h->encryptSlots(randomSlots(h->ctx->slots(), 5), L);

    graph::GraphBuilder b;
    b.output(b.mul(b.input(L, h->ctx->scale()), b.input(L, h->ctx->scale())));
    graph::Graph g = b.build();
    graph::PassOptions po;
    po.merge_moddown = false;
    graph::runPasses(g, *h->ctx, po);

    graph::GraphExecutor exec(*backend, &h->rlk);
    auto got = exec.run(g, {ca, cb});
    Ciphertext want = h->eval->rescale(h->eval->mulNoRescale(ca, cb, h->rlk));
    EXPECT_TRUE(sameBytes(got.at(0), want));
}

TEST_F(GraphExec, HoistedGroupMatchesRotateHoistedAndApproximatesRotate)
{
    const size_t L = 3;
    auto cc = h->encryptSlots(randomSlots(h->ctx->slots(), 6), L);
    const std::vector<int> steps = {1, 2, 3};

    graph::GraphBuilder b;
    auto in = b.input(L, h->ctx->scale());
    std::vector<graph::NodeRef> outs;
    for (int s : steps)
        outs.push_back(b.rotate(in, s));
    b.outputs(outs);
    graph::Graph g = b.build();
    const graph::PassStats st = graph::runPasses(g, *h->ctx);
    ASSERT_EQ(st.rotations_hoisted, steps.size());

    graph::GraphExecutor exec(*backend, &h->rlk, &gks);
    auto got = exec.run(g, {cc});
    ASSERT_EQ(got.size(), steps.size());

    // The hoisted path is its own byte oracle (hoisting changes where the
    // approximate basis conversion happens, so it is NOT byte-identical
    // to per-step rotate)...
    auto want = h->eval->rotateHoisted(cc, steps, gks);
    for (size_t i = 0; i < steps.size(); ++i)
        EXPECT_TRUE(sameBytes(got[i], want[i])) << "step " << steps[i];

    // ...but it must decrypt to the same rotation.
    auto plain = randomSlots(h->ctx->slots(), 6);
    for (size_t i = 0; i < steps.size(); ++i) {
        auto slots = h->decryptSlots(got[i]);
        double err = 0;
        for (size_t k = 0; k < slots.size(); ++k) {
            size_t src = (k + static_cast<size_t>(steps[i])) % slots.size();
            err = std::max(err, std::abs(slots[k] - plain[src]));
        }
        EXPECT_LT(err, 1e-3) << "step " << steps[i];
    }
}

TEST_F(GraphExec, ExecutorValidatesGraphAndKeys)
{
    const size_t L = 3;
    auto ca = h->encryptSlots(randomSlots(h->ctx->slots(), 7), L);
    auto cb = h->encryptSlots(randomSlots(h->ctx->slots(), 8), L);

    // Unresolved rescale (passes never ran).
    {
        graph::GraphBuilder b;
        b.output(b.mul(b.input(L, h->ctx->scale()),
                       b.input(L, h->ctx->scale())));
        graph::Graph g = b.build();
        graph::inferShapes(g, *h->ctx);
        graph::GraphExecutor exec(*backend, &h->rlk);
        EXPECT_THROW((void)exec.run(g, {ca, cb}), UserError);
    }
    // Wrong input count.
    {
        graph::GraphBuilder b;
        b.output(b.add(b.input(L, h->ctx->scale()),
                       b.input(L, h->ctx->scale())));
        graph::Graph g = b.build();
        graph::runPasses(g, *h->ctx);
        graph::GraphExecutor exec(*backend);
        EXPECT_THROW((void)exec.run(g, {ca}), UserError);
    }
    // Missing relinearization / Galois keys.
    {
        graph::GraphBuilder b;
        b.output(b.mul(b.input(L, h->ctx->scale()),
                       b.input(L, h->ctx->scale())));
        graph::Graph g = b.build();
        graph::runPasses(g, *h->ctx);
        graph::GraphExecutor exec(*backend);
        EXPECT_THROW((void)exec.run(g, {ca, cb}), UserError);
    }
    {
        graph::GraphBuilder b;
        b.output(b.rotate(b.input(L, h->ctx->scale()), 1));
        graph::Graph g = b.build();
        graph::runPasses(g, *h->ctx);
        graph::GraphExecutor exec(*backend, &h->rlk);
        EXPECT_THROW((void)exec.run(g, {ca}), UserError);
    }
}

// ---------------------------------------------------------------------------
// Fused PtMatVecMult
// ---------------------------------------------------------------------------

TEST(GraphMatVec, FusedGraphMatVecByteIdenticalToApply)
{
    CkksParams p;
    p.log_n = 10;
    p.log_scale = 34;
    p.first_prime_bits = 46;
    p.num_levels = 5;
    p.dnum = 2;
    CkksHarness h(p);

    std::map<int, std::vector<std::complex<double>>> diags;
    for (int d = 0; d < 6; ++d)
        diags[d] = randomSlots(h.ctx->slots(), 30 + static_cast<u64>(d));
    LinearTransform lt(h.ctx, std::move(diags), h.ctx->scale());
    GaloisKeys gks = h.makeGaloisKeys(lt.requiredRotations());
    RealBackend backend(h.ctx);

    auto ct = h.encryptSlots(randomSlots(h.ctx->slots(), 9),
                             h.ctx->maxLevel());

    graph::GraphBuilder b;
    b.output(b.matVec(b.input(h.ctx->maxLevel(), h.ctx->scale()), &lt));
    graph::Graph g = b.build();
    const graph::PassStats st = graph::runPasses(g, *h.ctx);
    EXPECT_EQ(st.matvecs_fused, 1u);

    for (StreamPolicy policy : kStreamPolicies) {
        ScopedStreamPolicy sp(policy);
        Ciphertext want = lt.apply(*h.eval, *h.encoder, ct, gks);
        graph::GraphExecutor exec(backend, &h.rlk, &gks);
        auto got = exec.run(g, {ct});
        EXPECT_TRUE(sameBytes(got.at(0), want))
            << "policy " << streamPolicyName(policy);
    }
}

// ---------------------------------------------------------------------------
// App schedules through the IR
// ---------------------------------------------------------------------------

CkksParams
lrParams()
{
    CkksParams p;
    p.log_n = 10;
    p.log_scale = 33;
    p.first_prime_bits = 45;
    p.num_levels = 14;
    p.dnum = 3;
    return p;
}

TEST(GraphApps, LrTrainGraphByteIdenticalToImperative)
{
    auto ctx = std::make_shared<CkksContext>(lrParams());
    LrConfig cfg;
    cfg.features = 2;
    cfg.iterations = 2;
    EncryptedLrTrainer trainer(ctx, cfg);

    CkksHarness h(lrParams());
    GaloisKeys gks = h.makeGaloisKeys(trainer.requiredRotations());
    RealBackend backend(h.ctx);

    auto data = LrDataset::twoGaussians(h.ctx->slots(), cfg.features, 7);
    auto features =
        trainer.encryptFeatures(*h.encoder, *h.encryptor, data);
    auto labels = trainer.encryptLabels(*h.encoder, *h.encryptor, data);
    auto w0 = trainer.initialWeights(*h.encoder, *h.encryptor);

    auto want = trainer.train(*h.eval, *h.encoder, w0, features, labels,
                              h.rlk, gks);

    graph::PassStats stats;
    for (size_t threads : {size_t(1), size_t(4)}) {
        ScopedThreads st(threads);
        auto got = trainer.trainGraph(backend, w0, features, labels, h.rlk,
                                      gks, {}, &stats);
        ASSERT_EQ(got.size(), want.size());
        for (size_t j = 0; j < got.size(); ++j)
            EXPECT_TRUE(sameBytes(got[j], want[j]))
                << "weight " << j << " threads " << threads;
    }
    // The align pass reproduced the imperative schedule's manual drops.
    EXPECT_GT(stats.drops_inserted, 0u);
    EXPECT_GT(stats.moddowns_merged, 0u);
    // LR's reduction rotations chain (each has a distinct source), so
    // the hoist pass must not fire — byte identity depends on it.
    EXPECT_EQ(stats.rotations_hoisted, 0u);
}

TEST(GraphApps, MlpInferGraphByteIdenticalToImperative)
{
    CkksParams p;
    p.log_n = 10;
    p.log_scale = 34;
    p.first_prime_bits = 46;
    p.num_levels = 5;
    p.dnum = 2;
    CkksHarness h(p);
    const size_t dim = 4;

    Prng rng(11);
    auto randMat = [&](size_t rows) {
        std::vector<std::vector<double>> m(rows, std::vector<double>(dim));
        for (auto& row : m)
            for (auto& v : row)
                v = (2 * rng.uniformReal() - 1) * 0.5;
        return m;
    };
    EncryptedMlp mlp(h.ctx, {randMat(dim), randMat(2)}, dim);
    GaloisKeys gks = h.makeGaloisKeys(mlp.requiredRotations());
    RealBackend backend(h.ctx);

    auto ct = h.encryptSlots(randomSlots(h.ctx->slots(), 13),
                             h.ctx->maxLevel());
    Ciphertext want = mlp.infer(*h.eval, *h.encoder, ct, gks, h.rlk);

    graph::PassStats stats;
    for (size_t threads : {size_t(1), size_t(4)}) {
        ScopedThreads st(threads);
        Ciphertext got =
            mlp.inferGraph(backend, ct, gks, h.rlk, {}, &stats);
        EXPECT_TRUE(sameBytes(got, want)) << "threads " << threads;
    }
    EXPECT_EQ(stats.matvecs_fused, mlp.numLayers());
}

// ---------------------------------------------------------------------------
// Virtual backend
// ---------------------------------------------------------------------------

TEST(GraphVirtual, LrTrainGraphMatchesPlainReference)
{
    auto ctx = std::make_shared<CkksContext>(lrParams());
    LrConfig cfg;
    cfg.features = 2;
    cfg.iterations = 2;
    EncryptedLrTrainer trainer(ctx, cfg);

    vbackend::VirtualBackend backend(ctx, {});
    KeyGenerator keygen(ctx);
    SecretKey sk = keygen.secretKey();
    PublicKey pk = keygen.publicKey(sk);
    SwitchingKey rlk = keygen.relinKey(sk);
    GaloisKeys gks = keygen.galoisKeys(sk, trainer.requiredRotations());

    auto data = LrDataset::twoGaussians(ctx->slots(), cfg.features, 7);
    std::vector<Ciphertext> features;
    for (const auto& column : data.features)
        features.push_back(backend.encryptReal(pk, column, 1));
    Ciphertext labels = backend.encryptReal(pk, data.labels, 2);
    std::vector<Ciphertext> w0;
    for (size_t j = 0; j < cfg.features; ++j)
        w0.push_back(backend.encryptReal(
            pk, std::vector<double>(ctx->slots(), 0.0), 3 + j));

    auto got = trainer.trainGraph(backend, w0, features, labels, rlk, gks);
    ASSERT_EQ(got.size(), cfg.features);

    // The virtual backend computes the schedule in exact slot arithmetic,
    // so the trained weights match the plaintext reference trainer.
    LrModel ref = trainer.trainPlain(data);
    for (size_t j = 0; j < cfg.features; ++j) {
        auto vals = backend.decryptReal(sk, got[j]);
        EXPECT_NEAR(vals.at(0), ref.weights[j], 1e-9) << "weight " << j;
    }
}

TEST(GraphVirtual, BootstrapNodeServedByVirtualRejectedByReal)
{
    auto ctx = std::make_shared<CkksContext>(CkksParams::loadTest());
    vbackend::VirtualBackend backend(ctx, {});
    KeyGenerator keygen(ctx);
    SecretKey sk = keygen.secretKey();
    PublicKey pk = keygen.publicKey(sk);

    graph::GraphBuilder b;
    // Drop to the bottom, then refresh: the virtual Bootstrap restores
    // max level.
    b.output(b.bootstrap(b.dropToLevel(b.input(ctx->maxLevel(),
                                               ctx->scale()),
                                       1)));
    graph::Graph g = b.build();
    graph::runPasses(g, *ctx);

    std::vector<double> vals(ctx->slots(), 0.25);
    Ciphertext ct = backend.encryptReal(pk, vals, 4);
    graph::GraphExecutor exec(backend);
    auto out = exec.run(g, {ct});
    auto round = backend.decryptReal(sk, out.at(0));
    EXPECT_NEAR(round.at(0), 0.25, 1e-6);

    CkksHarness h(CkksParams::unitTest());
    RealBackend real(h.ctx);
    graph::GraphBuilder b2;
    b2.output(b2.bootstrap(b2.dropToLevel(
        b2.input(h.ctx->maxLevel(), h.ctx->scale()), 1)));
    graph::Graph g2 = b2.build();
    graph::runPasses(g2, *h.ctx);
    auto rct = h.encryptSlots(randomSlots(h.ctx->slots(), 17),
                              h.ctx->maxLevel());
    graph::GraphExecutor rexec(real);
    EXPECT_THROW((void)rexec.run(g2, {rct}), UserError);
}

} // namespace
} // namespace madfhe
