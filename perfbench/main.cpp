/**
 * @file
 * madbench: runs one benchmark workload and prints its result as one
 * JSON line (the last line of standard output).
 *
 *   madbench --workload bootstrap|graph_apps|serve_mixed --seed <n>
 *            --seconds <s> --trace 0|1
 *
 * --trace 0 times the named workload and prints the end-to-end metrics
 * from untraced passes. --trace 1 prints the per-layer metrics: the
 * layer ledger of every workload (boot.*, graph.*, serve.*, each for a
 * third of --seconds), so every traced run prints the same metrics, plus
 * the rns/ring/ckks primitive sweep at the named workload's parameters.
 * perfbench/run.py builds this binary and pins its environment; see
 * perfbench/README.md.
 */
#include <cmath>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <string>
#include <utility>

#include <sys/resource.h>

#include "bench.h"
#include "ckks/stream.h"
#include "rns/simd/simd.h"
#include "support/threadpool.h"

namespace perfbench {

namespace {

const Clock::time_point kProcessStart = Clock::now();

using Runner = Report (*)(const Args&);

const std::pair<const char*, Runner> kWorkloads[] = {
    {"bootstrap", runBootstrap},
    {"graph_apps", runGraphApps},
    {"serve_mixed", runServeMixed},
};

Report
run(const Args& args, Runner named)
{
    if (!args.trace)
        return named(args);
    Report r;
    for (const auto& [name, runner] : kWorkloads) {
        Args part = args;
        part.seconds = args.seconds / std::size(kWorkloads);
        part.sweep = runner == named;
        r.merge(runner(part));
    }
    return r;
}

bool
parseArgs(int argc, char** argv, Args& a)
{
    bool have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        char* end = nullptr;
        if (key == "--workload") {
            a.workload = val;
            have_workload = true;
        } else if (key == "--seed") {
            a.seed = std::strtoull(val.c_str(), &end, 10);
            if (*end != '\0')
                return false;
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val.c_str(), &end);
            if (*end != '\0' || !(a.seconds > 0.0) || a.seconds > 600.0)
                return false;
        } else if (key == "--trace") {
            if (val != "0" && val != "1")
                return false;
            a.trace = val == "1";
        } else {
            return false;
        }
    }
    return have_workload && argc % 2 == 1;
}

void
printJson(const Report& r)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                r.correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (size_t i = 0; i < r.metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", r.metrics[i].name.c_str(),
                    r.metrics[i].value, r.metrics[i].unit.c_str());
    std::printf("}}\n");
}

} // namespace

double
sinceProcessStart()
{
    return secondsSince(kProcessStart);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

} // namespace perfbench

int
main(int argc, char** argv)
{
    using namespace perfbench;
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: madbench --workload <name> --seed <n> "
                     "--seconds <s> --trace 0|1\n");
        return 2;
    }
    std::printf("# workload %s, seed %llu, %g s, trace %d; stream policy "
                "%s, simd %s, pool threads %zu\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0,
                madfhe::streamPolicyName(madfhe::streamPolicy()),
                madfhe::simd::activeName(),
                madfhe::ThreadPool::defaultThreads());
    std::fflush(stdout);

    Runner named = nullptr;
    for (const auto& [name, runner] : kWorkloads)
        if (args.workload == name)
            named = runner;
    if (named == nullptr) {
        std::fprintf(stderr, "madbench: unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }

    Report r;
    try {
        r = run(args, named);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "madbench: %s\n", e.what());
        return 1;
    }
    for (const auto& m : r.metrics) {
        if (!std::isfinite(m.value)) {
            std::fprintf(stderr, "madbench: metric %s is not finite\n",
                         m.name.c_str());
            return 1;
        }
    }
    std::fprintf(stderr, "madbench: largest output error %.3g\n",
                 r.worst_error);
    if (r.attempted == 0) {
        std::fprintf(stderr, "madbench: no operation attempted\n");
        return 1;
    }
    printJson(r);
    return 0;
}
