/**
 * @file
 * The graph pass pipeline. Order (each pass only ever rewrites edges or
 * appends nodes; a final dead-node prune + shape inference canonicalizes
 * the result):
 *
 *   1. alignLevels     — insert DropToLevel on the higher-level operand
 *                        of every Add/Sub/Mult, reproducing the manual
 *                        dropToLevel calls of the imperative schedules.
 *   2. placeRescales   — resolve every rescale-owing Mult: merged
 *                        ModDown (relin + rescale in one fused pass,
 *                        the default) or an explicit Rescale node.
 *   3. hoistRotations  — collapse N >= 2 Rotate nodes sharing a source
 *                        into one HoistedRotation (one Decomp+ModUp via
 *                        Evaluator::rotateHoisted instead of N).
 *   4. pruneDead       — drop nodes unreachable from the outputs
 *                        (Input nodes are always kept: run() binding is
 *                        positional).
 *
 * PtMatVecMult nodes need no pass: LinearTransform::apply has a single
 * (limb-fused BSGS) schedule.
 *
 * Pass invariant: with all passes enabled, executing the graph is
 * byte-identical to the imperative schedule it was built from, because
 * every rewrite maps onto an Evaluator path that is itself
 * byte-identical (merged ModDown, rotateHoisted for same-source
 * rotations).
 */
#ifndef MADFHE_GRAPH_PASSES_H
#define MADFHE_GRAPH_PASSES_H

#include "graph/ir.h"

namespace madfhe {
namespace graph {

struct PassOptions
{
    bool align_levels = true;
    /** Resolve Mult rescales into the merged-ModDown path (false:
     *  explicit Rescale nodes, the unmerged two-pass pipeline). */
    bool merge_moddown = true;
    bool hoist_rotations = true;
};

struct PassStats
{
    size_t drops_inserted = 0;   ///< DropToLevel nodes added by align
    size_t rescales_placed = 0;  ///< explicit Rescale nodes added
    size_t moddowns_merged = 0;  ///< Mults resolved to merged ModDown
    size_t rotations_hoisted = 0; ///< Rotate nodes folded into groups
    size_t hoist_groups = 0;     ///< HoistedRotation nodes created
    size_t matvecs_fused = 0;    ///< live PtMatVecMult nodes (all fused)
    size_t nodes_pruned = 0;     ///< dead nodes removed
};

/**
 * Run the pipeline and finish with inferShapes(), so the returned graph
 * is ready for GraphExecutor::run(). Throws UserError (the Evaluator's
 * own messages) if the schedule is invalid even after alignment.
 */
PassStats runPasses(Graph& g, const CkksContext& ctx, PassOptions opts = {});

} // namespace graph
} // namespace madfhe

#endif // MADFHE_GRAPH_PASSES_H
