/**
 * @file
 * Cross-validation of SimFHE's analytical DRAM model against the
 * executable CKKS stack: run a real (reduced-parameter) primitive under
 * memory tracing, replay the trace through a cache model scaled the way
 * the paper scales its on-chip memory (capacity measured in limbs), and
 * compare the replayed DRAM bytes against the CostModel prediction for a
 * SchemeConfig matched to the same CkksParams.
 *
 * The comparison is necessarily approximate — the implementation
 * materializes intermediates (digit polynomials, conversion temporaries)
 * that the model's fused accounting never spills, and the replay cache
 * captures reuse the model's per-sub-operation accounting ignores — so
 * each primitive carries an empirically calibrated tolerance band plus a
 * note naming the dominant divergence source.
 */
#ifndef MADFHE_MEMTRACE_CROSSVAL_H
#define MADFHE_MEMTRACE_CROSSVAL_H

#include <string>
#include <vector>

#include "ckks/params.h"
#include "ckks/stream.h"
#include "memtrace/replay.h"
#include "simfhe/config.h"
#include "simfhe/cost.h"

namespace madfhe {
namespace memtrace {

/** One primitive's traced-vs-analytical comparison. */
struct PrimitiveComparison
{
    std::string name;
    /** Replayed DRAM traffic of the primitive's trace scope. */
    Traffic traced;
    /** CostModel prediction (only the DRAM fields are meaningful here). */
    simfhe::Cost analytic;
    /** Acceptable traced/analytic total-bytes ratio band. */
    double tol_lo = 0.5;
    double tol_hi = 2.0;
    /** Dominant known divergence source (documentation, not excuse). */
    std::string note;

    double tracedBytes() const { return traced.bytes(); }
    double analyticBytes() const { return analytic.bytes(); }
    double
    ratio() const
    {
        return analyticBytes() > 0 ? tracedBytes() / analyticBytes() : 0.0;
    }
    bool ok() const { return ratio() >= tol_lo && ratio() <= tol_hi; }
};

/**
 * Direction check for the O(1)-limb fusion story (Section 3.1): shrinking
 * the replay cache to a couple of limbs must increase traced Mult traffic,
 * the same direction the analytical model moves when cache_o1 turns off.
 */
struct O1DirectionCheck
{
    double traced_stream = 0; ///< Mult DRAM bytes, 2-limb cache.
    double traced_cached = 0; ///< Mult DRAM bytes, scaled cache.
    double analytic_none = 0; ///< Model Mult bytes, no caching opts.
    double analytic_o1 = 0;   ///< Model Mult bytes, cache_o1 enabled.
    bool
    ok() const
    {
        return traced_stream > traced_cached && analytic_none > analytic_o1;
    }
};

struct CrossValConfig
{
    /** Functional parameter set to execute (see crossvalParams()). */
    CkksParams params;
    /**
     * On-chip capacity in limbs. The paper's 32 MB budget holds 32 of its
     * 1 MB limbs (N = 2^17); measuring capacity in limbs transfers that
     * budget to the reduced ring.
     */
    size_t cache_limbs = 32;
    ReplayConfig::Policy policy = ReplayConfig::Policy::Lru;
    /** Include the (slow) full-bootstrap comparison. */
    bool run_bootstrap = true;
    /** Diagonal count for the PtMatVecMult comparison. */
    size_t diagonals = 8;
    /**
     * Limb-streaming policy the functional primitives execute under.
     * The analytic side gets the matching Section 3.1 caching toggles
     * (cachingOptsFor), so the comparison stays apples-to-apples at
     * every opt level. Defaults to the ambient MADFHE_STREAM policy.
     */
    StreamPolicy stream_policy;

    CrossValConfig();
};

struct CrossValReport
{
    std::vector<PrimitiveComparison> primitives;
    O1DirectionCheck o1;

    bool allOk() const;
    /** Human-readable table of the comparisons. */
    std::string format() const;
};

/**
 * The default cross-validation parameter set: chainLength divisible by
 * dnum, so the model's digit padding (raised = beta*alpha + alpha) agrees
 * exactly with the implementation's raised basis (level + alpha) at the
 * top level.
 */
CkksParams crossvalParams();

/** SchemeConfig whose alpha/beta/raised match the executable context. */
simfhe::SchemeConfig matchedScheme(const CkksParams& p);

/** Replay config with limb-sized blocks and a capacity of `cache_limbs`
 *  limbs. */
ReplayConfig scaledReplayConfig(const CkksParams& p, size_t cache_limbs,
                                ReplayConfig::Policy policy);

/** Run every primitive comparison. Uses the global TraceSink (clears it;
 *  leaves tracing disabled on return). */
CrossValReport runCrossValidation(const CrossValConfig& cfg);

/**
 * Section 3.1 model toggles matching a MADFHE_STREAM policy: Off -> none,
 * Fuse -> o1, Cache -> upToAlpha, Full -> allCaching.
 */
simfhe::Optimizations cachingOptsFor(StreamPolicy p);

/**
 * The per-opt-level sweep (trace_validate --per-opt-level): run the
 * key-switch primitives (KeySwitch, Mult, Rotate) under every stream
 * policy, compare each against the analytic model at the matching opt
 * level, and check that the traced DRAM bytes drop strictly
 * monotonically along off -> fuse -> cache -> full.
 */
struct PolicySweepReport
{
    struct Row
    {
        StreamPolicy policy;
        std::vector<PrimitiveComparison> primitives;
    };
    std::vector<Row> rows;

    /** Traced bytes of `primitive` strictly decrease in lattice order. */
    bool monotonicOk(const std::string& primitive) const;
    bool allOk() const;
    std::string format() const;
};

PolicySweepReport runPolicySweep(const CrossValConfig& cfg);

/**
 * The graph-mode check (trace_validate --graph): the hoisted-rotation
 * pass. N same-source rotations pay N Decomp+ModUps on the per-rotate
 * path but exactly one through the graph's HoistedRotation group. The
 * ModUp count is the structural claim (it is also the NTT/compute
 * saving); the DRAM totals are reported for context but not gated — at
 * reduced parameters the per-step digit automorphs offset the saved
 * conversions, and under streaming policies the per-rotate path never
 * materializes digits at all. Both rotation runs execute under the
 * materializing (Off) policy so the Decomp+ModUp scopes are observable
 * in the trace. (PtMatVecMult has a single limb-fused schedule; its
 * traffic is gated by the runCrossValidation row.)
 */
struct GraphFusionReport
{
    size_t rotations = 0;         ///< same-source rotation count
    size_t rotations_hoisted = 0; ///< rotations the pass collapsed
    size_t modups_unhoisted = 0;  ///< Decomp+ModUp runs, per-rotate path
    size_t modups_hoisted = 0;    ///< Decomp+ModUp runs, hoisted group
    double rotate_unhoisted = 0;  ///< total DRAM bytes, N plain rotates
    double rotate_hoisted = 0;    ///< total DRAM bytes, hoisted group

    bool ok() const;
    std::string format() const;
};

GraphFusionReport runGraphFusion(const CrossValConfig& cfg);

} // namespace memtrace
} // namespace madfhe

#endif // MADFHE_MEMTRACE_CROSSVAL_H
