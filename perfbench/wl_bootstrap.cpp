/**
 * @file
 * Workload `bootstrap`: repeated full CKKS bootstraps (ModRaise ->
 * CoeffToSlot -> EvalMod -> SlotToCoeff) at N = 2^11, h = 16 and the
 * default BootstrapParams, the parameters tools/boot_profile uses. Every
 * call gets fresh seeded input slots; every output is decrypted and
 * compared with those slots.
 */
#include <optional>
#include <random>

#include "bench.h"
#include "boot/bootstrapper.h"
#include "boot/dft.h"
#include "checks.h"
#include "telemetry/export.h"
#include "telemetry/simfhe_bridge.h"
#include "telemetry/telemetry.h"

namespace perfbench {

namespace {

using namespace madfhe;

/** Max slot error a bootstrap output may show (5.8e-4 measured). */
constexpr double kBootBound = 2e-3;

const char* const kStages[] = {"ModRaise", "CoeffToSlot", "EvalMod",
                               "SlotToCoeff"};
const char* const kStageKeys[] = {"modraise", "ctos", "evalmod", "stoc"};

struct BootRig
{
    CkksParams params;
    BootstrapParams boot_params;
    std::shared_ptr<CkksContext> ctx;
    std::unique_ptr<CkksEncoder> encoder;
    std::unique_ptr<KeyGenerator> keygen;
    SecretKey sk;
    PublicKey pk;
    SwitchingKey rlk;
    GaloisKeys gks;
    double galois_keygen_s = 0.0;
    std::unique_ptr<Encryptor> encryptor;
    std::unique_ptr<Decryptor> decryptor;
    std::unique_ptr<Evaluator> eval;
    std::unique_ptr<Bootstrapper> boot;
    std::mt19937_64 rng;

    explicit BootRig(uint64_t seed) : rng(seed)
    {
        params = CkksParams::bootstrapToy();
        params.log_n = 11;
        params.hamming_weight = 16;
        ctx = std::make_shared<CkksContext>(params);
        encoder = std::make_unique<CkksEncoder>(ctx);
        keygen = std::make_unique<KeyGenerator>(ctx);
        sk = keygen->secretKey();
        pk = keygen->publicKey(sk);
        rlk = keygen->relinKey(sk);
        eval = std::make_unique<Evaluator>(ctx);
        boot = std::make_unique<Bootstrapper>(ctx, boot_params);
        const auto t0 = Clock::now();
        gks = keygen->galoisKeys(sk, boot->requiredRotations(), true);
        galois_keygen_s = secondsSince(t0);
        encryptor = std::make_unique<Encryptor>(ctx, pk, seed);
        decryptor = std::make_unique<Decryptor>(ctx, sk);
    }

    /**
     * Bootstrap fresh seeded slots once and check the output. Returns
     * the wall seconds of the bootstrap call alone, or nullopt when it
     * threw (counted as failed). With `traced_bytes`, memtrace records
     * the bootstrap call and its raw flow in bytes is stored there.
     */
    std::optional<double>
    runOne(Report& r, double* traced_bytes = nullptr)
    {
        std::uniform_real_distribution<double> u(-1.0, 1.0);
        Slots in(ctx->slots());
        for (auto& z : in)
            z = {u(rng), u(rng)};
        const Ciphertext ct =
            encryptor->encrypt(encoder->encode(in, ctx->scale(), 1));
        ++r.attempted;
        Ciphertext out;
        double dt = 0.0;
        const auto call = [&] {
            const auto t0 = Clock::now();
            out = boot->bootstrap(*eval, *encoder, ct, gks, rlk);
            dt = secondsSince(t0);
        };
        try {
            if (traced_bytes != nullptr)
                *traced_bytes = tracedBytes(call);
            else
                call();
        } catch (const std::exception& e) {
            ++r.failed;
            std::fprintf(stderr, "perfbench: bootstrap failed: %s\n",
                         e.what());
            return std::nullopt;
        }
        const Slots got = encoder->decode(decryptor->decrypt(out));
        r.seen(maxAbsError(got, in));
        if (!bootstrapOk(got, in, kBootBound))
            r.wrong("bootstrap output error " +
                    std::to_string(maxAbsError(got, in)) + " > " +
                    std::to_string(kBootBound));
        return dt;
    }
};

u64
spanCount(const telemetry::Snapshot& snap, const char* name)
{
    u64 n = 0;
    for (const auto& row : snap.spans)
        if (row.path.rfind("Bootstrap/", 0) == 0 && row.name == name)
            n += row.count;
    return n;
}

void
traceLayers(BootRig& rig, const Args& args, Report& r)
{
    // Each round: one bootstrap with memtrace off, whose Bootstrap/*
    // spans give the stage wall times, then one with memtrace on, whose
    // spans give the traced bytes per stage and whose wall time against
    // the first gives the tracing overhead.
    telemetry::setLevel(telemetry::Level::Spans);
    std::vector<double> stage_s[4], whole_s, traced_s;
    u64 rotations = 0, keyswitches = 0, rescales = 0;
    double traced_total = 0.0;
    telemetry::Snapshot snap;
    const auto start = Clock::now();
    do {
        telemetry::resetAll();
        const std::optional<double> dt = rig.runOne(r);
        if (!dt)
            continue;
        snap = telemetry::snapshot();
        for (int i = 0; i < 4; ++i) {
            const telemetry::SpanRow* row =
                snap.span(std::string("Bootstrap/") + kStages[i]);
            stage_s[i].push_back(row ? row->total_ns / 1e9 : 0.0);
        }
        whole_s.push_back(*dt);
        rotations = spanCount(snap, "Rotate") + spanCount(snap, "Conjugate");
        keyswitches = spanCount(snap, "KeySwitch") +
                      spanCount(snap, "KskInnerProd") +
                      spanCount(snap, "Mult");
        rescales = spanCount(snap, "Rescale");

        telemetry::resetAll();
        if (const std::optional<double> traced = rig.runOne(r, &traced_total))
            traced_s.push_back(*traced);
        snap = telemetry::snapshot();
    } while (secondsSince(start) < args.seconds);
    telemetry::setLevel(telemetry::Level::Off);

    // SimFHE bytes with the bridge's materialization factors divided
    // back out: the raw model, not the calibrated one.
    telemetry::BootstrapShape shape;
    shape.ctos_iters = rig.boot_params.ctos_iters;
    shape.stoc_iters = rig.boot_params.stoc_iters;
    shape.sine_degree = rig.boot_params.sine_degree;
    std::map<std::string, double> model;
    for (const auto& p : telemetry::bootstrapPredictions(rig.params, shape))
        model[p.path] = p.model_bytes / telemetry::materializationFactor(p.path);

    for (int i = 0; i < 4; ++i)
        r.add(std::string("boot.") + kStageKeys[i] + "_ms",
              median(stage_s[i]) * 1e3, "ms");
    for (int i = 1; i < 4; ++i) {
        const std::string path = std::string("Bootstrap/") + kStages[i];
        const telemetry::SpanRow* row = snap.span(path);
        const double bytes = row ? static_cast<double>(row->traced_bytes) : 0.0;
        const std::string key = std::string("boot.") + kStageKeys[i];
        r.add(key + "_traced_mb", bytes / kMiB, "MB");
        r.add(key + "_over_model", bytes / model.at(path), "ratio");
        r.add(key + "_flow_gbps", bytes / median(stage_s[i]) / 1e9, "GB/s");
    }
    r.add("boot.over_model", traced_total / model.at("Bootstrap"), "ratio");
    r.add("boot.rotations", static_cast<double>(rotations), "count");
    r.add("boot.keyswitches", static_cast<double>(keyswitches), "count");
    r.add("boot.rescales", static_cast<double>(rescales), "count");
    r.add("host.copy_gbps", hostCopyGbps(), "GB/s");
    r.add("memtrace.overhead", median(traced_s) / median(whole_s), "ratio");
    if (!args.sweep)
        return;
    r.add("ckks.galois_keygen_s", rig.galois_keygen_s, "s");

    // Primitive sweep at the bootstrap parameters; the PtMatVecMult is
    // the first CoeffToSlot factor.
    LinearTransform ctos(rig.ctx,
                         coeffToSlotFactors(rig.ctx->slots(),
                                            rig.boot_params.ctos_iters)
                             .at(0),
                         rig.ctx->scale(), rig.boot_params.matvec);
    const Ciphertext mv_in = rig.encryptor->encrypt(rig.encoder->encode(
        Slots(rig.ctx->slots(), {0.25, 0.0}), rig.ctx->scale(),
        rig.ctx->maxLevel()));
    PrimitiveSetup ps;
    ps.ctx = rig.ctx;
    ps.pk = &rig.pk;
    ps.sk = &rig.sk;
    ps.rlk = &rig.rlk;
    ps.gks = &rig.gks;
    for (int step : rig.boot->requiredRotations())
        if (step > 0 && ps.steps.size() < 4 &&
            std::find(ps.steps.begin(), ps.steps.end(), step) == ps.steps.end())
            ps.steps.push_back(step);
    ps.matvec = &ctos;
    ps.matvec_ctx = rig.ctx;
    ps.matvec_input = &mv_in;
    ps.matvec_gks = &rig.gks;
    ps.seed = args.seed;
    primitiveLayers(ps, r);
}

} // namespace

Report
runBootstrap(const Args& args)
{
    Report r;
    BootRig rig(args.seed);
    rig.runOne(r); // untimed warm-up: fills the lazily built tables
    const double setup_s = sinceProcessStart();

    if (args.trace) {
        traceLayers(rig, args, r);
        return r;
    }

    std::vector<double> times;
    const auto start = Clock::now();
    do {
        if (const std::optional<double> dt = rig.runOne(r))
            times.push_back(*dt);
    } while (secondsSince(start) < args.seconds);
    double traced = 0.0;
    rig.runOne(r, &traced);

    addEndToEnd(r, median(times), serialRate(times), traced, setup_s);
    std::fprintf(stderr,
                 "perfbench: %zu timed bootstraps, %.3f..%.3f s per call\n",
                 times.size(), quantile(times, 0.0), quantile(times, 1.0));
    return r;
}

} // namespace perfbench
