/**
 * @file
 * Workload `graph_apps`: HELR training (EncryptedLrTrainer::trainGraph,
 * 8 features, 2 iterations, 1024 samples) and batched MLP inference
 * (EncryptedMlp::inferGraph, three 16-wide layers, 64 samples per
 * ciphertext) through the graph IR on the real backend at N = 2^11, with
 * no bootstrap. One operation is a round: one training call and four
 * inferences.
 */
#include <optional>
#include <random>

#include "apps/lr.h"
#include "apps/mlp.h"
#include "bench.h"
#include "checks.h"
#include "ckks/backend.h"
#include "graph/exec.h"

namespace perfbench {

namespace {

using namespace madfhe;

constexpr size_t kFeatures = 8;
constexpr size_t kIterations = 2;
constexpr double kLearningRate = 1.0;
constexpr size_t kMlpDim = 16;
constexpr size_t kInferPerRound = 4;
/** Max |encrypted - plaintext| per weight and per logit. */
constexpr double kLrTol = 1e-4;
constexpr double kMlpTol = 1e-4;
/** Training accuracy the two-Gaussian data must reach. */
constexpr double kLrAccuracyFloor = 0.9;

CkksParams
lrParams()
{
    CkksParams p;
    p.log_n = 11;
    p.log_scale = 33;
    p.first_prime_bits = 45;
    p.num_levels = 14;
    p.dnum = 3;
    return p;
}

CkksParams
mlpParams()
{
    CkksParams p;
    p.log_n = 11;
    p.log_scale = 36;
    p.first_prime_bits = 48;
    p.num_levels = 6;
    p.dnum = 2;
    return p;
}

/** Keys and encrypted inputs of one application at its own context. */
struct AppKeys
{
    std::shared_ptr<CkksContext> ctx;
    std::unique_ptr<KeyGenerator> keygen;
    SecretKey sk;
    PublicKey pk;
    SwitchingKey rlk;
    GaloisKeys gks;
    std::unique_ptr<CkksEncoder> encoder;
    std::unique_ptr<Encryptor> encryptor;
    std::unique_ptr<Decryptor> decryptor;
    std::unique_ptr<RealBackend> backend;

    AppKeys(const CkksParams& p, uint64_t seed)
        : ctx(std::make_shared<CkksContext>(p))
    {
        keygen = std::make_unique<KeyGenerator>(ctx);
        sk = keygen->secretKey();
        pk = keygen->publicKey(sk);
        rlk = keygen->relinKey(sk);
        encoder = std::make_unique<CkksEncoder>(ctx);
        encryptor = std::make_unique<Encryptor>(ctx, pk, seed);
        decryptor = std::make_unique<Decryptor>(ctx, sk);
        backend = std::make_unique<RealBackend>(ctx);
    }

    /** Generate the Galois keys; returns the seconds it took. */
    double
    makeGaloisKeys(const std::vector<int>& steps)
    {
        const auto t0 = Clock::now();
        gks = keygen->galoisKeys(sk, steps);
        return secondsSince(t0);
    }
};

struct AppsRig
{
    AppKeys lr;
    AppKeys mlp;
    std::unique_ptr<apps::EncryptedLrTrainer> trainer;
    std::unique_ptr<apps::EncryptedMlp> net;
    LrData data;
    std::vector<double> lr_want;
    std::vector<Ciphertext> lr_inputs; ///< w0..., x..., y
    std::vector<Matrix> layers;
    std::vector<std::vector<double>> samples;
    std::vector<std::vector<double>> mlp_want;
    Ciphertext mlp_input;
    double galois_keygen_s = 0.0;

    explicit AppsRig(uint64_t seed)
        : lr(lrParams(), seed), mlp(mlpParams(), seed + 1)
    {
        apps::LrConfig cfg;
        cfg.features = kFeatures;
        cfg.iterations = kIterations;
        cfg.learning_rate = kLearningRate;
        trainer = std::make_unique<apps::EncryptedLrTrainer>(lr.ctx, cfg);
        galois_keygen_s += lr.makeGaloisKeys(trainer->requiredRotations());

        const size_t slots = lr.ctx->slots();
        data = twoGaussians(slots, kFeatures, seed);
        lr_want = lrReference(data, slots, kIterations, kLearningRate);
        apps::LrDataset ds;
        ds.features = data.features;
        ds.labels = data.labels;
        lr_inputs = trainer->initialWeights(*lr.encoder, *lr.encryptor);
        for (Ciphertext& ct :
             trainer->encryptFeatures(*lr.encoder, *lr.encryptor, ds))
            lr_inputs.push_back(std::move(ct));
        lr_inputs.push_back(
            trainer->encryptLabels(*lr.encoder, *lr.encryptor, ds));

        std::mt19937_64 rng(seed ^ 0x4d4c50ULL);
        std::uniform_real_distribution<double> w(-0.3, 0.3), x(-1.0, 1.0);
        for (size_t rows : {kMlpDim, kMlpDim, size_t(10)}) {
            Matrix m(rows, std::vector<double>(kMlpDim));
            for (auto& row : m)
                for (double& v : row)
                    v = w(rng);
            layers.push_back(std::move(m));
        }
        net = std::make_unique<apps::EncryptedMlp>(mlp.ctx, layers, kMlpDim);
        galois_keygen_s += mlp.makeGaloisKeys(net->requiredRotations());
        std::vector<double> packed(mlp.ctx->slots());
        for (double& v : packed)
            v = x(rng);
        for (size_t b = 0; b < net->batch(); ++b) {
            samples.emplace_back(packed.begin() + b * kMlpDim,
                                 packed.begin() + (b + 1) * kMlpDim);
            mlp_want.push_back(mlpForward(layers, samples.back()));
        }
        mlp_input = mlp.encryptor->encrypt(mlp.encoder->encodeReal(
            packed, mlp.ctx->scale(), mlp.ctx->maxLevel()));
    }

    std::vector<Ciphertext>
    lrInputs(size_t from, size_t count) const
    {
        return {lr_inputs.begin() + from, lr_inputs.begin() + from + count};
    }

    void
    checkLr(const std::vector<Ciphertext>& weights, Report& r)
    {
        std::vector<double> got;
        for (const Ciphertext& ct : weights)
            got.push_back(
                lr.encoder->decode(lr.decryptor->decrypt(ct)).at(0).real());
        r.seen(maxAbsError(got, lr_want));
        if (!lrOk(got, lr_want, data, kLrTol, kLrAccuracyFloor))
            r.wrong("HELR weights off by " +
                    std::to_string(maxAbsError(got, lr_want)) +
                    ", accuracy " + std::to_string(lrAccuracy(got, data)));
    }

    void
    checkMlp(const Ciphertext& out, Report& r)
    {
        const Slots slots = mlp.encoder->decode(mlp.decryptor->decrypt(out));
        for (size_t b = 0; b < samples.size(); ++b) {
            std::vector<double> got(mlp_want[b].size());
            for (size_t k = 0; k < got.size(); ++k)
                got[k] = slots.at(b * kMlpDim + k).real();
            r.seen(maxAbsError(got, mlp_want[b]));
            if (!mlpOk(got, mlp_want[b], kMlpTol)) {
                r.wrong("MLP logits of sample " + std::to_string(b) +
                        " off by " +
                        std::to_string(maxAbsError(got, mlp_want[b])));
                return;
            }
        }
    }

    /**
     * Run `call` as one attempted operation: returns its wall seconds,
     * or nullopt when it threw (counted as failed). With `traced_bytes`,
     * memtrace records the call and its raw flow is added there.
     */
    template <typename Call>
    std::optional<double>
    attempt(Report& r, const char* what, double* traced_bytes, Call&& call)
    {
        ++r.attempted;
        double dt = 0.0;
        const auto timed = [&] {
            const auto t0 = Clock::now();
            call();
            dt = secondsSince(t0);
        };
        try {
            if (traced_bytes != nullptr)
                *traced_bytes += tracedBytes(timed);
            else
                timed();
        } catch (const std::exception& e) {
            ++r.failed;
            std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                         e.what());
            return std::nullopt;
        }
        return dt;
    }

    /**
     * One round: a training call and kInferPerRound batched inferences,
     * each checked. Returns the wall seconds of the calls alone, or
     * nullopt when one threw. With `traced_bytes`, the calls' summed raw
     * memtrace flow is stored there.
     */
    std::optional<double>
    round(Report& r, double* traced_bytes = nullptr)
    {
        if (traced_bytes != nullptr)
            *traced_bytes = 0.0;
        std::vector<Ciphertext> w;
        const std::optional<double> train_s =
            attempt(r, "HELR", traced_bytes, [&] {
                w = trainer->trainGraph(*lr.backend, lrInputs(0, kFeatures),
                                        lrInputs(kFeatures, kFeatures),
                                        lr_inputs.back(), lr.rlk, lr.gks);
            });
        if (!train_s)
            return std::nullopt;
        checkLr(w, r);
        double total = *train_s;
        for (size_t i = 0; i < kInferPerRound; ++i) {
            Ciphertext out;
            const std::optional<double> infer_s =
                attempt(r, "MLP", traced_bytes, [&] {
                    out = net->inferGraph(*mlp.backend, mlp_input, mlp.gks,
                                          mlp.rlk);
                });
            if (!infer_s)
                return std::nullopt;
            checkMlp(out, r);
            total += *infer_s;
        }
        return total;
    }
};

void
traceLayers(AppsRig& rig, const Args& args, Report& r)
{
    std::vector<double> passes, exec;
    size_t collapsed = 0, fused = 0;
    const auto start = Clock::now();
    do {
        // Seconds in graph build + passes, and in execution, of one
        // HELR training graph plus one MLP inference graph.
        double t_passes = 0.0, t_exec = 0.0;
        ++r.attempted;
        try {
            auto t0 = Clock::now();
            graph::Graph g = rig.trainer->buildTrainGraph();
            graph::PassStats st = graph::runPasses(g, *rig.lr.ctx);
            auto t1 = Clock::now();
            std::vector<Ciphertext> w =
                graph::GraphExecutor(*rig.lr.backend, &rig.lr.rlk, &rig.lr.gks)
                    .run(g, rig.lr_inputs);
            t_passes += std::chrono::duration<double>(t1 - t0).count();
            t_exec += secondsSince(t1);
            rig.checkLr(w, r);
            collapsed = st.rotations_hoisted - st.hoist_groups;

            ++r.attempted;
            t0 = Clock::now();
            graph::Graph h = rig.net->buildInferGraph();
            st = graph::runPasses(h, *rig.mlp.ctx);
            t1 = Clock::now();
            std::vector<Ciphertext> out =
                graph::GraphExecutor(*rig.mlp.backend, &rig.mlp.rlk,
                                     &rig.mlp.gks)
                    .run(h, {rig.mlp_input});
            t_passes += std::chrono::duration<double>(t1 - t0).count();
            t_exec += secondsSince(t1);
            rig.checkMlp(out.at(0), r);
            collapsed += st.rotations_hoisted - st.hoist_groups;
            fused = st.matvecs_fused;
        } catch (const std::exception& e) {
            ++r.failed;
            std::fprintf(stderr, "perfbench: graph run failed: %s\n",
                         e.what());
            continue;
        }
        passes.push_back(t_passes);
        exec.push_back(t_exec);
    } while (secondsSince(start) < args.seconds);

    r.add("graph.passes_ms", median(passes) * 1e3, "ms");
    r.add("graph.exec_ms", median(exec) * 1e3, "ms");
    r.add("graph.modups_collapsed", static_cast<double>(collapsed), "count");
    r.add("graph.matvecs_fused", static_cast<double>(fused), "count");
    if (!args.sweep)
        return;
    r.add("ckks.galois_keygen_s", rig.galois_keygen_s, "s");

    // Primitive sweep at the HELR parameters; the PtMatVecMult is the
    // MLP's first layer at the MLP parameters.
    LinearTransform layer0(
        rig.mlp.ctx,
        apps::blockDenseDiagonals(rig.layers[0], kMlpDim,
                                  rig.mlp.ctx->slots()),
        rig.mlp.ctx->scale());
    PrimitiveSetup ps;
    ps.ctx = rig.lr.ctx;
    ps.pk = &rig.lr.pk;
    ps.sk = &rig.lr.sk;
    ps.rlk = &rig.lr.rlk;
    ps.gks = &rig.lr.gks;
    ps.steps = {1, 2, 4, 8};
    ps.matvec = &layer0;
    ps.matvec_ctx = rig.mlp.ctx;
    ps.matvec_input = &rig.mlp_input;
    ps.matvec_gks = &rig.mlp.gks;
    ps.seed = args.seed;
    primitiveLayers(ps, r);
}

} // namespace

Report
runGraphApps(const Args& args)
{
    Report r;
    AppsRig rig(args.seed);
    rig.round(r); // untimed warm-up of both applications
    const double setup_s = sinceProcessStart();

    if (args.trace) {
        traceLayers(rig, args, r);
        return r;
    }

    std::vector<double> times;
    const auto start = Clock::now();
    do {
        if (const std::optional<double> dt = rig.round(r))
            times.push_back(*dt);
    } while (secondsSince(start) < args.seconds);
    double traced = 0.0;
    rig.round(r, &traced);

    addEndToEnd(r, median(times), serialRate(times), traced, setup_s);
    std::fprintf(stderr,
                 "perfbench: %zu timed rounds, %.3f..%.3f s per round\n",
                 times.size(), quantile(times, 0.0), quantile(times, 1.0));
    return r;
}

} // namespace perfbench
