#include "telemetry/simfhe_bridge.h"

#include "ckks/stream.h"
#include "simfhe/model.h"
#include "telemetry/telemetry.h"

namespace madfhe {
namespace telemetry {

namespace {

/**
 * Raw-traced bytes per modeled DRAM byte, measured at the crossval
 * bootstrap parameters with `tools/boot_profile --calibrate`. The
 * factors fold in two implementation properties the model's fused
 * accounting abstracts away: materialized temporaries (digits,
 * conversion buffers, per-baby raised products) and the EvalMod
 * schedule mismatch (two independent Chebyshev evaluations vs the
 * model's shared 9-level schedule). They are code-structure constants,
 * not parameter-dependent — re-measure after restructuring a kernel.
 */
struct CalibEntry
{
    const char* path;
    double factor;
};

constexpr CalibEntry kCalib[] = {
    // Bootstrap stages: measured under the default limb-streaming
    // policy (MADFHE_STREAM=full), model at the matching allCaching
    // opts.
    {"Bootstrap", 6.41},
    {"Bootstrap/ModRaise", 3.40},
    {"Bootstrap/CoeffToSlot", 6.68},
    {"Bootstrap/EvalMod", 5.98},
    {"Bootstrap/SlotToCoeff", 7.90},
    // Primitives: measured at the materializing baseline
    // (MADFHE_STREAM=off, model opts none). PtMatVecMult: 8 diagonals at
    // the top level of the boot_profile parameters (N = 2^11, 21 limbs).
    {"KeySwitch", 1.53},
    {"Mult", 1.99},
    {"Rotate", 1.45},
    {"PtMatVecMult", 5.28},
};

/**
 * Optimization set matching the code paths the executable stack runs.
 * The Section 3.1 caching toggles now track the ambient limb-streaming
 * policy (MADFHE_STREAM), since the key-switch hot paths execute the
 * corresponding fusion/caching level for real.
 */
simfhe::Optimizations
executedOpts()
{
    simfhe::Optimizations o;
    switch (streamPolicy()) {
    case StreamPolicy::Fuse:
        o = simfhe::Optimizations::o1();
        break;
    case StreamPolicy::Cache:
        o = simfhe::Optimizations::upToAlpha();
        break;
    case StreamPolicy::Full:
        o = simfhe::Optimizations::allCaching();
        break;
    case StreamPolicy::Off:
        o = simfhe::Optimizations::none();
        break;
    }
    o.moddown_merge = true; // Evaluator::mul defaults to merged ModDown
    o.moddown_hoist = true; // LinearTransform::apply: one ModDown per giant
    return o;
}

} // namespace

double
materializationFactor(const std::string& path)
{
    for (const auto& e : kCalib)
        if (path == e.path)
            return e.factor;
    return 1.0;
}

simfhe::SchemeConfig
bridgeScheme(const CkksParams& p)
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

std::vector<StagePrediction>
bootstrapPredictions(const CkksParams& p, const BootstrapShape& shape)
{
    simfhe::SchemeConfig scheme = bridgeScheme(p);
    scheme.fft_iter = shape.ctos_iters;
    const simfhe::CostModel model(scheme, simfhe::CacheConfig{},
                                  executedOpts());
    const auto b = model.bootstrapBreakdown();

    auto calibrated = [](const char* path, double model_bytes) {
        return StagePrediction{path,
                               model_bytes * materializationFactor(path)};
    };
    std::vector<StagePrediction> out;
    out.push_back(
        calibrated("Bootstrap/ModRaise", b.mod_raise.bytes()));
    out.push_back(
        calibrated("Bootstrap/CoeffToSlot", b.coeff_to_slot.bytes()));
    out.push_back(calibrated("Bootstrap/EvalMod", b.eval_mod.bytes()));
    out.push_back(
        calibrated("Bootstrap/SlotToCoeff", b.slot_to_coeff.bytes()));
    out.push_back(calibrated("Bootstrap", b.total().bytes()));
    return out;
}

std::vector<StagePrediction>
primitivePredictions(const CkksParams& p, size_t level, size_t diagonals)
{
    const simfhe::CostModel model(bridgeScheme(p), simfhe::CacheConfig{},
                                  executedOpts());
    auto calibrated = [](const char* path, double model_bytes) {
        return StagePrediction{path,
                               model_bytes * materializationFactor(path)};
    };
    std::vector<StagePrediction> out;
    out.push_back(calibrated("KeySwitch", model.keySwitch(level).bytes()));
    out.push_back(calibrated("Mult", model.mult(level).bytes()));
    out.push_back(calibrated("Rotate", model.rotate(level).bytes()));
    if (diagonals > 0)
        out.push_back(calibrated(
            "PtMatVecMult", model.ptMatVecMult(level, diagonals).bytes()));
    return out;
}

void
installBootstrapPredictions(const CkksParams& p, const BootstrapShape& shape)
{
    for (const auto& s : bootstrapPredictions(p, shape))
        setModelPrediction(s.path, s.model_bytes);
}

void
installPrimitivePredictions(const CkksParams& p, size_t level,
                            size_t diagonals)
{
    for (const auto& s : primitivePredictions(p, level, diagonals))
        setModelPrediction(s.path, s.model_bytes);
}

} // namespace telemetry
} // namespace madfhe
