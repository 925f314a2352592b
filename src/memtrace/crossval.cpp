#include "memtrace/crossval.h"

#include <cmath>
#include <complex>
#include <functional>
#include <iomanip>
#include <map>
#include <sstream>

#include "boot/bootstrapper.h"
#include "ckks/backend.h"
#include "ckks/encryptor.h"
#include "ckks/matvec.h"
#include "graph/exec.h"
#include "graph/passes.h"
#include "memtrace/trace.h"
#include "simfhe/model.h"
#include "support/random.h"

namespace madfhe {
namespace memtrace {

CrossValConfig::CrossValConfig()
    : params(crossvalParams()), stream_policy(streamPolicy())
{
}

simfhe::Optimizations
cachingOptsFor(StreamPolicy p)
{
    switch (p) {
    case StreamPolicy::Fuse:
        return simfhe::Optimizations::o1();
    case StreamPolicy::Cache:
        return simfhe::Optimizations::upToAlpha();
    case StreamPolicy::Full:
        return simfhe::Optimizations::allCaching();
    default:
        return simfhe::Optimizations::none();
    }
}

CkksParams
crossvalParams()
{
    CkksParams p;
    p.log_n = 10;
    p.log_scale = 35;
    p.first_prime_bits = 45;
    // chainLength = 6 with dnum = 3 gives alpha = 2 and whole digits at
    // the top level, so the model's padded raised basis (beta*alpha +
    // alpha) equals the implementation's (level + alpha).
    p.num_levels = 5;
    p.dnum = 3;
    return p;
}

simfhe::SchemeConfig
matchedScheme(const CkksParams& p)
{
    simfhe::SchemeConfig s;
    s.log_n = p.log_n;
    s.limb_bits = p.log_scale;
    // Model alpha = ceil((boot_limbs + 1) / dnum); the implementation's
    // alpha = ceil(chainLength / dnum), so boot_limbs = num_levels.
    s.boot_limbs = p.num_levels;
    s.dnum = p.dnum;
    return s;
}

ReplayConfig
scaledReplayConfig(const CkksParams& p, size_t cache_limbs,
                   ReplayConfig::Policy policy)
{
    ReplayConfig rc;
    rc.policy = policy;
    rc.block_bytes = p.n() * sizeof(u64);
    rc.capacity_bytes = std::max<size_t>(1, cache_limbs) * rc.block_bytes;
    return rc;
}

namespace {

std::vector<std::complex<double>>
randomSlots(size_t count, u64 seed)
{
    Prng rng(seed);
    std::vector<std::complex<double>> v(count);
    for (auto& z : v)
        z = {2.0 * rng.uniformReal() - 1.0, 2.0 * rng.uniformReal() - 1.0};
    return v;
}

/** The executable stack a comparison runs against. */
struct CkksStack
{
    std::shared_ptr<CkksContext> ctx;
    std::unique_ptr<CkksEncoder> encoder;
    SecretKey sk;
    PublicKey pk;
    SwitchingKey rlk;
    std::unique_ptr<Encryptor> encryptor;
    std::unique_ptr<Evaluator> eval;

    explicit CkksStack(const CkksParams& params)
    {
        ctx = std::make_shared<CkksContext>(params);
        encoder = std::make_unique<CkksEncoder>(ctx);
        KeyGenerator keygen(ctx);
        sk = keygen.secretKey();
        pk = keygen.publicKey(sk);
        rlk = keygen.relinKey(sk);
        encryptor = std::make_unique<Encryptor>(ctx, pk);
        eval = std::make_unique<Evaluator>(ctx);
    }

    Ciphertext
    encryptRandom(u64 seed, size_t level)
    {
        Plaintext pt = encoder->encode(randomSlots(ctx->slots(), seed),
                                       ctx->scale(), level);
        return encryptor->encrypt(pt);
    }
};

/** Trace `op`, replay under `rc`, and return the named scope's traffic. */
Traffic
traceAndReplay(const std::function<void()>& op, const char* scope_name,
               const ReplayConfig& rc, Trace* keep_trace = nullptr)
{
    TraceSink& sink = TraceSink::instance();
    sink.clear();
    sink.enable();
    op();
    sink.disable();
    Trace trace = sink.snapshot();
    sink.clear();
    ReplayResult res = replay(trace, rc);
    if (keep_trace)
        *keep_trace = std::move(trace);
    const ScopeStats* s = res.scope(scope_name);
    return s ? s->traffic : Traffic{};
}

double
kb(double bytes)
{
    return bytes / 1024.0;
}

/** Tolerance band plus divergence note for one (primitive, policy). */
struct Band
{
    double lo;
    double hi;
    const char* note;
};

/**
 * Empirically calibrated traced/analytic bands per stream policy. The
 * Off rows are the historical materializing bands; the streaming rows
 * were measured after the limb-streaming engine landed (both sides of
 * the ratio change: the implementation stops spilling intermediates and
 * the model turns on the matching Section 3.1 toggles).
 */
Band
bandFor(const std::string& prim, StreamPolicy p)
{
    if (prim == "KeySwitch") {
        switch (p) {
        case StreamPolicy::Off:
            return {0.8, 1.4,
                    "temporaries (x_coeff copy, conversion buffers) add "
                    "traffic; cache reuse across sub-ops removes some "
                    "(observed ~1.06)"};
        case StreamPolicy::Fuse:
            return {0.55, 0.95,
                    "fused digits beat the model's o1 accounting, which "
                    "still charges digit writes (observed ~0.70)"};
        case StreamPolicy::Cache:
            return {0.65, 1.10,
                    "pinned digit/drop caches vs model upToAlpha (observed "
                    "~0.86)"};
        case StreamPolicy::Full:
            return {0.55, 0.95,
                    "nothing raised touches DRAM; model allCaching still "
                    "charges partial spills (observed ~0.72)"};
        }
    }
    if (prim == "Mult") {
        switch (p) {
        case StreamPolicy::Off:
            return {0.8, 1.4,
                    "merged-ModDown path on both sides (observed ~1.18)"};
        case StreamPolicy::Fuse:
            return {0.70, 1.20,
                    "tensor temporaries offset the fused key switch "
                    "(observed ~0.92)"};
        case StreamPolicy::Cache:
            return {0.85, 1.35,
                    "tensor/rescale traffic the caching toggles don't "
                    "model (observed ~1.11)"};
        case StreamPolicy::Full:
            return {0.80, 1.30,
                    "streamed merged key switch + unmodeled tensor "
                    "temporaries (observed ~1.04)"};
        }
    }
    if (prim == "Rotate") {
        switch (p) {
        case StreamPolicy::Off:
            return {0.8, 1.4,
                    "Automorph output + KeySwitch temporaries vs model's "
                    "unfused accounting (observed ~1.06)"};
        case StreamPolicy::Fuse:
            return {0.65, 1.15,
                    "automorph copy offsets the fused digits (observed "
                    "~0.87)"};
        case StreamPolicy::Cache:
            return {0.80, 1.30,
                    "automorph copy vs pinned caches (observed ~1.03)"};
        case StreamPolicy::Full:
            return {0.70, 1.20,
                    "streamed key switch behind the automorph copy "
                    "(observed ~0.93)"};
        }
    }
    return {0.5, 2.0, ""};
}

/**
 * The three key-switch-bound primitives under one stream policy, each
 * compared against the model at the matching opt level. Shared by the
 * default cross-validation (ambient policy) and the per-opt-level sweep.
 */
std::vector<PrimitiveComparison>
runKeySwitchTrio(CkksStack& stack, const ReplayConfig& rc,
                 const simfhe::SchemeConfig& scheme,
                 const simfhe::CacheConfig& cache, StreamPolicy policy,
                 Trace* mult_trace)
{
    ScopedStreamPolicy sp(policy);
    const size_t L = stack.ctx->maxLevel();
    const simfhe::Optimizations caching = cachingOptsFor(policy);
    simfhe::Optimizations merge = caching;
    merge.moddown_merge = true; // Evaluator::mul defaults to merged ModDown

    std::vector<PrimitiveComparison> out;

    {
        Ciphertext ct = stack.encryptRandom(11, L);
        const KeySwitcher& ksw = stack.eval->keySwitcher();
        Traffic t = traceAndReplay(
            [&] { (void)ksw.keySwitch(ct.c1, stack.rlk); }, "KeySwitch", rc);
        PrimitiveComparison c;
        c.name = "KeySwitch";
        c.traced = t;
        c.analytic = simfhe::CostModel(scheme, cache, caching).keySwitch(L);
        const Band b = bandFor(c.name, policy);
        c.tol_lo = b.lo;
        c.tol_hi = b.hi;
        c.note = b.note;
        out.push_back(std::move(c));
    }

    {
        Ciphertext a = stack.encryptRandom(21, L);
        Ciphertext b2 = stack.encryptRandom(22, L);
        Traffic t = traceAndReplay(
            [&] { (void)stack.eval->mul(a, b2, stack.rlk); }, "Mult", rc,
            mult_trace);
        PrimitiveComparison c;
        c.name = "Mult";
        c.traced = t;
        c.analytic = simfhe::CostModel(scheme, cache, merge).mult(L);
        const Band b = bandFor(c.name, policy);
        c.tol_lo = b.lo;
        c.tol_hi = b.hi;
        c.note = b.note;
        out.push_back(std::move(c));
    }

    {
        KeyGenerator keygen(stack.ctx);
        GaloisKeys gks = keygen.galoisKeys(stack.sk, {1}, false);
        Ciphertext ct = stack.encryptRandom(31, L);
        Traffic t = traceAndReplay(
            [&] { (void)stack.eval->rotate(ct, 1, gks); }, "Rotate", rc);
        PrimitiveComparison c;
        c.name = "Rotate";
        c.traced = t;
        c.analytic = simfhe::CostModel(scheme, cache, caching).rotate(L);
        const Band b = bandFor(c.name, policy);
        c.tol_lo = b.lo;
        c.tol_hi = b.hi;
        c.note = b.note;
        out.push_back(std::move(c));
    }

    return out;
}

} // namespace

bool
CrossValReport::allOk() const
{
    for (const auto& p : primitives)
        if (!p.ok())
            return false;
    return o1.ok();
}

std::string
CrossValReport::format() const
{
    std::ostringstream os;
    os << std::fixed;
    os << std::setw(14) << std::left << "primitive" << std::right
       << std::setw(12) << "traced KB" << std::setw(13) << "analytic KB"
       << std::setw(8) << "ratio" << std::setw(15) << "band"
       << std::setw(10) << "status" << "\n";
    for (const auto& p : primitives) {
        std::ostringstream band;
        band << "[" << std::fixed << std::setprecision(2) << p.tol_lo << ", "
             << p.tol_hi << "]";
        os << std::setw(14) << std::left << p.name << std::right
           << std::setprecision(1) << std::setw(12) << kb(p.tracedBytes())
           << std::setw(13) << kb(p.analyticBytes()) << std::setprecision(3)
           << std::setw(8) << p.ratio() << std::setw(15) << band.str()
           << std::setw(10) << (p.ok() ? "ok" : "DIVERGED") << "\n";
        os << std::setprecision(1) << "    traced   ct_r " << std::setw(9)
           << kb(p.traced.ct_read) << "  ct_w " << std::setw(9)
           << kb(p.traced.ct_write) << "  key_r " << std::setw(9)
           << kb(p.traced.key_read) << "  pt_r " << std::setw(9)
           << kb(p.traced.pt_read) << "\n";
        os << "    analytic ct_r " << std::setw(9) << kb(p.analytic.ct_read)
           << "  ct_w " << std::setw(9) << kb(p.analytic.ct_write)
           << "  key_r " << std::setw(9) << kb(p.analytic.key_read)
           << "  pt_r " << std::setw(9) << kb(p.analytic.pt_read) << "\n";
        if (!p.note.empty())
            os << "    note: " << p.note << "\n";
    }
    os << std::setprecision(1) << "O(1)-fusion direction: traced "
       << kb(o1.traced_stream) << " KB (2-limb cache) vs "
       << kb(o1.traced_cached) << " KB (scaled cache); analytic "
       << kb(o1.analytic_none) << " KB (none) vs " << kb(o1.analytic_o1)
       << " KB (cache_o1) -- " << (o1.ok() ? "ok" : "WRONG DIRECTION")
       << "\n";
    return os.str();
}

CrossValReport
runCrossValidation(const CrossValConfig& cfg)
{
    CrossValReport report;

    const ReplayConfig rc =
        scaledReplayConfig(cfg.params, cfg.cache_limbs, cfg.policy);
    const simfhe::SchemeConfig scheme = matchedScheme(cfg.params);
    const simfhe::CacheConfig cache{
        static_cast<double>(cfg.cache_limbs) * scheme.limbBytes()};

    CkksStack stack(cfg.params);
    const size_t L = stack.ctx->maxLevel();
    ScopedStreamPolicy sp(cfg.stream_policy);

    // The caching side of the comparison is policy-aware: the functional
    // primitives execute under cfg.stream_policy and the model gets the
    // matching Section 3.1 toggles. Algorithmic toggles follow the
    // executed code path as before.
    simfhe::Optimizations caching = cachingOptsFor(cfg.stream_policy);
    simfhe::Optimizations hoist = simfhe::Optimizations::none();
    hoist.moddown_hoist = true; // MatVecOptions default hoisting

    // --- KeySwitch / Mult / Rotate (policy-aware) ------------------------
    Trace mult_trace;
    for (auto& c : runKeySwitchTrio(stack, rc, scheme, cache,
                                    cfg.stream_policy, &mult_trace))
        report.primitives.push_back(std::move(c));

    // --- PtMatVecMult (BSGS, hoisted) ------------------------------------
    {
        const size_t slots = stack.ctx->slots();
        std::map<int, std::vector<std::complex<double>>> diags;
        for (size_t d = 0; d < cfg.diagonals; ++d)
            diags[static_cast<int>(d)] =
                randomSlots(slots, 40 + static_cast<u64>(d));
        LinearTransform lt(stack.ctx, std::move(diags), stack.ctx->scale());
        KeyGenerator keygen(stack.ctx);
        GaloisKeys gks =
            keygen.galoisKeys(stack.sk, lt.requiredRotations(), false);
        Ciphertext ct = stack.encryptRandom(41, L);
        Traffic t = traceAndReplay(
            [&] { (void)lt.apply(*stack.eval, *stack.encoder, ct, gks); },
            "PtMatVecMult", rc);
        PrimitiveComparison c;
        c.name = "PtMatVecMult";
        c.traced = t;
        c.analytic = simfhe::CostModel(scheme, cache, hoist)
                         .ptMatVecMult(L, cfg.diagonals);
        // The model's hoisted schedule assumes the paper's limb-major
        // fusion (digits read once, per-giant accumulators never
        // spilled). The implementation accumulates each giant step with
        // in-place raised MACs but still materializes one
        // RaisedCiphertext per baby step, so it moves ~2.85x the modeled
        // bytes. A copy-per-diagonal accumulation (raised copy + product
        // + add per diagonal) reads ~3.21x, so tol_hi sits between the
        // two: reintroducing it fails here. A ratio below tol_lo means
        // the baby products stopped spilling (retune).
        c.tol_lo = 2.5;
        c.tol_hi = 3.0;
        c.note = "baby-step raised products spill and re-load; giant "
                 "steps accumulate in place (observed ~2.85)";
        report.primitives.push_back(std::move(c));
    }

    // --- O(1)-fusion direction check on the Mult trace -------------------
    {
        ReplayConfig stream = rc;
        stream.capacity_bytes = 2 * rc.block_bytes;
        const ScopeStats* s;
        ReplayResult r_stream = replay(mult_trace, stream);
        s = r_stream.scope("Mult");
        report.o1.traced_stream = s ? s->traffic.bytes() : 0;
        ReplayResult r_cached = replay(mult_trace, rc);
        s = r_cached.scope("Mult");
        report.o1.traced_cached = s ? s->traffic.bytes() : 0;
        // Model side of the direction check is fixed at none-vs-o1 (both
        // with merged ModDown) regardless of the executed policy: it
        // checks the model's slope, the replays above check the trace's.
        simfhe::Optimizations merge = simfhe::Optimizations::none();
        merge.moddown_merge = true;
        simfhe::Optimizations merge_o1 = merge;
        merge_o1.cache_o1 = true;
        report.o1.analytic_none =
            simfhe::CostModel(scheme, cache, merge).mult(L).bytes();
        report.o1.analytic_o1 =
            simfhe::CostModel(scheme, cache, merge_o1).mult(L).bytes();
    }

    // --- Bootstrap (toy parameters, own stack) ---------------------------
    if (cfg.run_bootstrap) {
        CkksParams bp = CkksParams::bootstrapToy();
        bp.log_n = 11;
        bp.hamming_weight = 16;
        CkksStack boot_stack(bp);

        BootstrapParams boot_parms;
        boot_parms.ctos_iters = 3;
        boot_parms.stoc_iters = 3;
        boot_parms.sine_degree = 71;
        boot_parms.k_bound = 8.0;
        Bootstrapper boot(boot_stack.ctx, boot_parms);
        KeyGenerator keygen(boot_stack.ctx);
        GaloisKeys gks = keygen.galoisKeys(boot_stack.sk,
                                           boot.requiredRotations(), true);
        Ciphertext ct = boot_stack.encryptRandom(51, 1);

        const ReplayConfig boot_rc =
            scaledReplayConfig(bp, cfg.cache_limbs, cfg.policy);
        Traffic t = traceAndReplay(
            [&] {
                (void)boot.bootstrap(*boot_stack.eval, *boot_stack.encoder,
                                     ct, gks, boot_stack.rlk);
            },
            "Bootstrap", boot_rc);

        simfhe::SchemeConfig boot_scheme = matchedScheme(bp);
        boot_scheme.fft_iter = boot_parms.ctos_iters;
        const simfhe::CacheConfig boot_cache{
            static_cast<double>(cfg.cache_limbs) * boot_scheme.limbBytes()};
        simfhe::Optimizations boot_opts = caching;
        boot_opts.moddown_merge = true;
        boot_opts.moddown_hoist = true;

        PrimitiveComparison c;
        c.name = "Bootstrap";
        c.traced = t;
        c.analytic = simfhe::CostModel(boot_scheme, boot_cache, boot_opts)
                         .bootstrap();
        // Two structural gaps stack here: the executable EvalMod runs two
        // independent degree-71 Chebyshev evaluations (~2x the model's
        // shared 9-level/22-mult schedule) and the DFT PtMatVecMults
        // carry the baby-step spill gap above. Observed ~5.5.
        c.tol_lo = 3.0;
        c.tol_hi = 9.0;
        c.note = "EvalMod schedule mismatch (2x degree-71 Chebyshev vs "
                 "fixed 9-level model) on top of the matvec baby-step "
                 "spill gap (observed ~5.5)";
        report.primitives.push_back(std::move(c));
    }

    return report;
}

bool
PolicySweepReport::monotonicOk(const std::string& primitive) const
{
    double prev = -1.0;
    for (const auto& row : rows) {
        for (const auto& p : row.primitives) {
            if (p.name != primitive)
                continue;
            if (prev >= 0.0 && p.tracedBytes() >= prev)
                return false;
            prev = p.tracedBytes();
        }
    }
    return prev >= 0.0;
}

bool
PolicySweepReport::allOk() const
{
    for (const auto& row : rows)
        for (const auto& p : row.primitives)
            if (!p.ok())
                return false;
    return monotonicOk("KeySwitch") && monotonicOk("Mult") &&
           monotonicOk("Rotate");
}

std::string
PolicySweepReport::format() const
{
    std::ostringstream os;
    os << std::fixed;
    os << std::setw(8) << std::left << "policy" << std::setw(14)
       << "primitive" << std::right << std::setw(12) << "traced KB"
       << std::setw(13) << "analytic KB" << std::setw(8) << "ratio"
       << std::setw(15) << "band" << std::setw(10) << "status" << "\n";
    for (const auto& row : rows) {
        for (const auto& p : row.primitives) {
            std::ostringstream band;
            band << "[" << std::fixed << std::setprecision(2) << p.tol_lo
                 << ", " << p.tol_hi << "]";
            os << std::setw(8) << std::left
               << streamPolicyName(row.policy) << std::setw(14) << p.name
               << std::right << std::setprecision(1) << std::setw(12)
               << kb(p.tracedBytes()) << std::setw(13)
               << kb(p.analyticBytes()) << std::setprecision(3)
               << std::setw(8) << p.ratio() << std::setw(15) << band.str()
               << std::setw(10) << (p.ok() ? "ok" : "DIVERGED") << "\n";
        }
    }
    for (const char* prim : {"KeySwitch", "Mult", "Rotate"})
        os << "monotone off > fuse > cache > full [" << prim
           << "]: " << (monotonicOk(prim) ? "ok" : "VIOLATED") << "\n";
    return os.str();
}

bool
GraphFusionReport::ok() const
{
    return rotations_hoisted == rotations && rotations >= 2 &&
           modups_unhoisted == rotations && modups_hoisted == 1;
}

std::string
GraphFusionReport::format() const
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(1);
    os << "Hoisted rotations: " << rotations_hoisted
       << "/" << rotations << " collapsed; Decomp+ModUp runs "
       << modups_unhoisted << " -> " << modups_hoisted << " -- "
       << (modups_hoisted == 1 && modups_unhoisted == rotations
               ? "ok"
               : "NOT COLLAPSED")
       << "\n";
    os << "  DRAM (materializing policy, informational): "
       << kb(rotate_unhoisted) << " KB (unhoisted) vs "
       << kb(rotate_hoisted) << " KB (hoisted)\n";
    os << "graph hoisting: " << (ok() ? "ok" : "FAILED") << "\n";
    return os.str();
}

GraphFusionReport
runGraphFusion(const CrossValConfig& cfg)
{
    GraphFusionReport rep;
    const ReplayConfig rc =
        scaledReplayConfig(cfg.params, cfg.cache_limbs, cfg.policy);
    CkksStack stack(cfg.params);
    const size_t L = stack.ctx->maxLevel();
    ScopedStreamPolicy sp(cfg.stream_policy);

    const std::vector<int> hoist_steps = {1, 2, 3, 4};
    KeyGenerator keygen(stack.ctx);
    GaloisKeys gks = keygen.galoisKeys(stack.sk, hoist_steps, false);
    RealBackend backend(stack.ctx);

    // --- Hoisted rotations: same graph, pass off vs on ------------------
    // The structural claim: the per-rotate path decomposes the source N
    // times, the HoistedRotation group exactly once. Counted from the raw
    // trace's DecompModUp scope events under the materializing policy
    // (streaming key switches never open that scope); replayed DRAM
    // totals are kept for context only.
    auto traceRun = [&](const std::function<void()>& op, size_t* modups,
                        double* bytes) {
        ScopedStreamPolicy off(StreamPolicy::Off);
        TraceSink& sink = TraceSink::instance();
        sink.clear();
        sink.enable();
        op();
        sink.disable();
        Trace trace = sink.snapshot();
        sink.clear();
        size_t count = 0;
        for (const Event& e : trace.events) {
            if (e.kind == Kind::ScopeBegin &&
                trace.scope_names.at(static_cast<size_t>(e.addr)) ==
                    "DecompModUp")
                ++count;
        }
        *modups = count;
        *bytes = replay(trace, rc).total.bytes();
    };
    rep.rotations = hoist_steps.size();
    Ciphertext rct = stack.encryptRandom(42, L);
    auto buildRotations = [&](bool hoist_pass) {
        graph::GraphBuilder b;
        const graph::NodeRef in = b.input(L, rct.scale);
        std::vector<graph::NodeRef> outs;
        for (int s : hoist_steps)
            outs.push_back(b.rotate(in, s));
        b.outputs(outs);
        graph::Graph g = b.build();
        graph::PassOptions po;
        po.hoist_rotations = hoist_pass;
        const graph::PassStats st = graph::runPasses(g, *stack.ctx, po);
        if (hoist_pass)
            rep.rotations_hoisted = st.rotations_hoisted;
        return g;
    };
    {
        graph::Graph g = buildRotations(false);
        graph::GraphExecutor exec(backend, &stack.rlk, &gks);
        (void)exec.run(g, {rct}); // untraced: fill the lazy caches first
        traceRun([&] { (void)exec.run(g, {rct}); }, &rep.modups_unhoisted,
                 &rep.rotate_unhoisted);
    }
    {
        graph::Graph g = buildRotations(true);
        graph::GraphExecutor exec(backend, &stack.rlk, &gks);
        traceRun([&] { (void)exec.run(g, {rct}); }, &rep.modups_hoisted,
                 &rep.rotate_hoisted);
    }
    return rep;
}

PolicySweepReport
runPolicySweep(const CrossValConfig& cfg)
{
    PolicySweepReport report;
    const ReplayConfig rc =
        scaledReplayConfig(cfg.params, cfg.cache_limbs, cfg.policy);
    const simfhe::SchemeConfig scheme = matchedScheme(cfg.params);
    const simfhe::CacheConfig cache{
        static_cast<double>(cfg.cache_limbs) * scheme.limbBytes()};
    CkksStack stack(cfg.params);
    for (StreamPolicy p : kStreamPolicies) {
        PolicySweepReport::Row row;
        row.policy = p;
        row.primitives =
            runKeySwitchTrio(stack, rc, scheme, cache, p, nullptr);
        report.rows.push_back(std::move(row));
    }
    return report;
}

} // namespace memtrace
} // namespace madfhe
