/**
 * @file
 * Cross-validation driver: runs real reduced-parameter CKKS primitives
 * (Mult, Rotate, KeySwitch, PtMatVecMult, bootstrap) under memory
 * tracing, replays each trace through a limb-granularity cache model,
 * and compares the replayed DRAM traffic against SimFHE's analytical
 * prediction. Exits nonzero when any primitive diverges beyond its
 * tolerance band, so CI can use it as a model-drift tripwire.
 *
 * With --per-opt-level the tool instead sweeps every MADFHE_STREAM
 * policy over the key-switch primitives, comparing each against the
 * analytical model at the matching Section 3.1 opt level and checking
 * that traced DRAM bytes drop monotonically off -> fuse -> cache ->
 * full.
 *
 * With --graph the tool checks the evaluation graph's hoisted-rotation
 * pass: N same-source rotations must collapse into one HoistedRotation
 * group that runs Decomp+ModUp once instead of N times.
 *
 * Usage: trace_validate [--cache-limbs N] [--policy lru|belady|infinite]
 *                       [--no-bootstrap] [--per-opt-level] [--graph]
 */
#include <cstring>
#include <iostream>
#include <string>

#include "memtrace/crossval.h"

namespace {

int
usage(const char* argv0)
{
    std::cerr << "usage: " << argv0
              << " [--cache-limbs N] [--policy lru|belady|infinite]"
                 " [--no-bootstrap] [--per-opt-level] [--graph]\n";
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace madfhe;

    memtrace::CrossValConfig cfg;
    bool per_opt_level = false;
    bool graph_mode = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--cache-limbs" && i + 1 < argc) {
            try {
                cfg.cache_limbs = std::stoul(argv[++i]);
            } catch (const std::exception&) {
                return usage(argv[0]);
            }
            if (cfg.cache_limbs == 0)
                return usage(argv[0]);
        } else if (arg == "--policy" && i + 1 < argc) {
            const std::string p = argv[++i];
            if (p == "lru")
                cfg.policy = memtrace::ReplayConfig::Policy::Lru;
            else if (p == "belady")
                cfg.policy = memtrace::ReplayConfig::Policy::Belady;
            else if (p == "infinite")
                cfg.policy = memtrace::ReplayConfig::Policy::Infinite;
            else
                return usage(argv[0]);
        } else if (arg == "--no-bootstrap") {
            cfg.run_bootstrap = false;
        } else if (arg == "--per-opt-level") {
            per_opt_level = true;
        } else if (arg == "--graph") {
            graph_mode = true;
        } else {
            return usage(argv[0]);
        }
    }

    std::cout << "Cross-validating traced DRAM traffic against the SimFHE "
                 "analytical model\n"
              << "params: N = 2^" << cfg.params.log_n << ", "
              << cfg.params.chainLength() << " limbs, dnum = "
              << cfg.params.dnum << "; cache = " << cfg.cache_limbs
              << " limbs\n\n";

    if (per_opt_level) {
        memtrace::PolicySweepReport sweep = memtrace::runPolicySweep(cfg);
        std::cout << sweep.format();
        if (!sweep.allOk()) {
            std::cout << "\nFAIL: per-opt-level divergence or "
                         "non-monotone traffic\n";
            return 1;
        }
        std::cout << "\nPASS: every stream policy agrees with its model "
                     "opt level\n";
        return 0;
    }

    if (graph_mode) {
        memtrace::GraphFusionReport rep = memtrace::runGraphFusion(cfg);
        std::cout << rep.format();
        if (!rep.ok()) {
            std::cout << "\nFAIL: graph rotation hoisting did not collapse "
                         "Decomp+ModUp\n";
            return 1;
        }
        std::cout << "\nPASS: graph rotation hoisting runs one "
                     "Decomp+ModUp\n";
        return 0;
    }

    memtrace::CrossValReport report = memtrace::runCrossValidation(cfg);
    std::cout << report.format();

    if (!report.allOk()) {
        std::cout << "\nFAIL: traced/analytic divergence beyond tolerance\n";
        return 1;
    }
    std::cout << "\nPASS: all primitives within tolerance\n";
    return 0;
}
