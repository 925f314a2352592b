#include "graph/exec.h"

#include <algorithm>

#include "boot/bootstrapper.h"
#include "support/errors.h"
#include "support/threadpool.h"
#include "telemetry/telemetry.h"

namespace madfhe {
namespace graph {

namespace {

const char*
spanNameFor(OpKind kind)
{
    switch (kind) {
    case OpKind::Input: return "Graph.Input";
    case OpKind::Add: return "Graph.Add";
    case OpKind::Sub: return "Graph.Sub";
    case OpKind::Mult: return "Graph.Mult";
    case OpKind::Rescale: return "Graph.Rescale";
    case OpKind::DropToLevel: return "Graph.DropToLevel";
    case OpKind::Rotate: return "Graph.Rotate";
    case OpKind::HoistedRotation: return "Graph.HoistedRotation";
    case OpKind::MulScalar: return "Graph.MulScalar";
    case OpKind::AddScalar: return "Graph.AddScalar";
    case OpKind::PtMatVecMult: return "Graph.PtMatVecMult";
    case OpKind::KeySwitch: return "Graph.KeySwitch";
    case OpKind::ModRaise: return "Graph.ModRaise";
    case OpKind::Bootstrap: return "Graph.Bootstrap";
    }
    return "Graph.Unknown";
}

} // namespace

GraphExecutor::GraphExecutor(const EvalBackend& backend,
                             const SwitchingKey* rlk, const GaloisKeys* gks,
                             const Bootstrapper* boot, ExecOptions options)
    : backend_(backend), rlk_(rlk), gks_(gks), boot_(boot), opts_(options)
{
}

std::vector<Ciphertext>
GraphExecutor::run(const Graph& g,
                   const std::vector<Ciphertext>& inputs) const
{
    TELEM_SPAN("GraphExecute");
    const size_t n = g.size();
    MAD_REQUIRE(inputs.size() == g.numInputs(),
                "graph input count mismatch");
    for (u32 id = 0; id < n; ++id) {
        const Node& nd = g.node(id);
        MAD_REQUIRE(nd.meta.size() == nd.num_outputs,
                    "graph not finalized: run the pass pipeline first");
        MAD_REQUIRE(!(nd.kind == OpKind::Mult && nd.rescale_after),
                    "unresolved Mult rescale: run the pass pipeline first");
    }

    // Positional input binding.
    std::vector<u32> input_pos(n, 0);
    for (u32 i = 0; i < g.inputIds().size(); ++i)
        input_pos[g.inputIds()[i]] = i;

    // Dataflow bookkeeping: indegree (edges in), consumer lists, and a
    // remaining-use count per node so values free as soon as their last
    // consumer has run.
    std::vector<u32> indeg(n, 0);
    std::vector<std::vector<u32>> consumers(n);
    std::vector<u32> uses(n, 0);
    for (u32 id = 0; id < n; ++id) {
        for (const NodeRef& in : g.node(id).inputs) {
            ++indeg[id];
            consumers[in.node].push_back(id);
            ++uses[in.node];
        }
    }
    std::vector<bool> pinned(n, false); // graph outputs stay live
    for (const NodeRef& o : g.outputs())
        pinned[o.node] = true;

    std::vector<std::vector<Ciphertext>> vals(n);

    auto execNode = [&](u32 id) {
        const Node& nd = g.node(id);
        telemetry::Span span(spanNameFor(nd.kind));
        const u64 t0 = telemetry::nowNs();
        auto arg = [&](size_t i) -> const Ciphertext& {
            const NodeRef& r = nd.inputs.at(i);
            return vals[r.node].at(r.port);
        };
        std::vector<Ciphertext> out;
        switch (nd.kind) {
        case OpKind::Input:
            out.push_back(inputs[input_pos[id]]);
            break;
        case OpKind::Add:
            out.push_back(backend_.add(arg(0), arg(1)));
            break;
        case OpKind::Sub:
            out.push_back(backend_.sub(arg(0), arg(1)));
            break;
        case OpKind::Mult:
            MAD_REQUIRE(rlk_ != nullptr,
                        "graph Mult needs a relinearization key");
            out.push_back(nd.merged
                              ? backend_.mul(arg(0), arg(1), *rlk_)
                              : backend_.mulNoRescale(arg(0), arg(1), *rlk_));
            break;
        case OpKind::Rescale:
            out.push_back(backend_.rescale(arg(0)));
            break;
        case OpKind::DropToLevel:
            out.push_back(backend_.dropToLevel(arg(0), nd.target_level));
            break;
        case OpKind::Rotate:
            MAD_REQUIRE(gks_ != nullptr, "graph Rotate needs Galois keys");
            out.push_back(backend_.rotate(arg(0), nd.step, *gks_));
            break;
        case OpKind::HoistedRotation:
            MAD_REQUIRE(gks_ != nullptr, "graph Rotate needs Galois keys");
            out = backend_.rotateHoisted(arg(0), nd.steps, *gks_);
            break;
        case OpKind::MulScalar:
            out.push_back(backend_.mulScalarRescale(arg(0), nd.scalar));
            break;
        case OpKind::AddScalar:
            out.push_back(backend_.addScalar(arg(0), nd.scalar));
            break;
        case OpKind::PtMatVecMult:
            MAD_REQUIRE(gks_ != nullptr,
                        "graph PtMatVecMult needs Galois keys");
            out.push_back(backend_.matVec(*nd.transform, arg(0), *gks_));
            break;
        case OpKind::KeySwitch: {
            const auto* rb = dynamic_cast<const RealBackend*>(&backend_);
            MAD_REQUIRE(rb != nullptr,
                        "KeySwitch nodes require the real backend");
            MAD_REQUIRE(rlk_ != nullptr,
                        "graph KeySwitch needs a switching key");
            const Ciphertext& a = arg(0);
            auto [u, v] =
                rb->evaluator().keySwitcher().keySwitch(a.c1, *rlk_);
            Ciphertext ct;
            ct.c0 = a.c0;
            ct.c0.add(u);
            ct.c1 = std::move(v);
            ct.scale = a.scale;
            out.push_back(std::move(ct));
            break;
        }
        case OpKind::ModRaise: {
            const auto* rb = dynamic_cast<const RealBackend*>(&backend_);
            MAD_REQUIRE(rb != nullptr && boot_ != nullptr,
                        "ModRaise nodes require the real backend and a "
                        "bootstrapper");
            out.push_back(boot_->modRaise(arg(0)));
            break;
        }
        case OpKind::Bootstrap:
            out.push_back(backend_.bootstrap(arg(0)));
            break;
        }
        MAD_CHECK(out.size() == nd.num_outputs,
                  "graph node produced wrong output count");
        vals[id] = std::move(out);
        TELEM_COUNT("graph.nodes", 1);
        TELEM_HIST("graph.node_ns", telemetry::nowNs() - t0);
    };

    // Kahn waves; within a wave nodes are independent and run
    // concurrently (nested evaluator parallelFor runs inline).
    std::vector<u32> wave;
    for (u32 id = 0; id < n; ++id)
        if (indeg[id] == 0)
            wave.push_back(id);
    size_t executed = 0;
    while (!wave.empty()) {
        TELEM_COUNT("graph.waves", 1);
        if (opts_.parallel && wave.size() > 1 &&
            ThreadPool::global().size() > 1) {
            ThreadPool::global().run(wave.size(),
                                     [&](size_t i) { execNode(wave[i]); });
        } else {
            for (u32 id : wave)
                execNode(id);
        }
        executed += wave.size();

        std::vector<u32> next;
        for (u32 id : wave) {
            for (u32 c : consumers[id])
                if (--indeg[c] == 0)
                    next.push_back(c);
            // Free values whose consumers have all run (between waves,
            // single-threaded).
            for (const NodeRef& in : g.node(id).inputs) {
                if (--uses[in.node] == 0 && !pinned[in.node]) {
                    vals[in.node].clear();
                    vals[in.node].shrink_to_fit();
                    TELEM_COUNT("graph.values_freed", 1);
                }
            }
        }
        std::sort(next.begin(), next.end());
        wave = std::move(next);
    }
    MAD_CHECK(executed == n, "graph contains a cycle");

    std::vector<Ciphertext> results;
    results.reserve(g.outputs().size());
    for (const NodeRef& o : g.outputs())
        results.push_back(vals[o.node].at(o.port));
    return results;
}

} // namespace graph
} // namespace madfhe
