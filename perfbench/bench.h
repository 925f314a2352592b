/**
 * @file
 * Shared pieces of the benchmark binary: run arguments, the result
 * report, timing helpers, and the per-layer primitive sweep the traced
 * run prints at the named workload's parameters.
 */
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/matvec.h"
#include "memtrace/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Traced runs: also run the primitive sweep (and time the Galois
     *  key generation) at this workload's parameters. */
    bool sweep = true;
};

/** What one run prints as its last line. */
struct Report
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics;
    /** Largest output error any check saw (printed to stderr). */
    double worst_error = 0.0;

    void
    add(const std::string& name, double value, const std::string& unit)
    {
        metrics.push_back({name, value, unit});
    }

    void
    seen(double error)
    {
        worst_error = std::max(worst_error, error);
    }

    /** Fold another part of the same run into this report. */
    void
    merge(const Report& o)
    {
        correct = correct && o.correct;
        attempted += o.attempted;
        failed += o.failed;
        metrics.insert(metrics.end(), o.metrics.begin(), o.metrics.end());
        worst_error = std::max(worst_error, o.worst_error);
    }

    /** An output check failed: the run is reported as incorrect. */
    void
    wrong(const std::string& what)
    {
        if (correct)
            std::fprintf(stderr, "perfbench: check failed: %s\n",
                         what.c_str());
        correct = false;
    }
};

/** Seconds since the benchmark process started (static init time). */
double sinceProcessStart();

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Median of a sample (0 for an empty one). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/** Nearest-rank quantile q in (0, 1] of a sample (0 for an empty one). */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank =
        static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

/** Median wall seconds of `fn` over `reps` calls. */
template <typename Fn>
double
medianSeconds(size_t reps, Fn&& fn)
{
    std::vector<double> t;
    t.reserve(reps);
    for (size_t i = 0; i < reps; ++i) {
        const auto t0 = Clock::now();
        fn();
        t.push_back(secondsSince(t0));
    }
    return median(std::move(t));
}

constexpr double kMiB = 1024.0 * 1024.0;

/**
 * Run `fn` with memtrace recording and return the raw traced data flow
 * in bytes (every thread's events, no cache model). Recorded events are
 * dropped afterwards.
 */
template <typename Fn>
double
tracedBytes(Fn&& fn)
{
    namespace mt = madfhe::memtrace;
    mt::TraceSink& sink = mt::TraceSink::instance();
    sink.clear();
    const madfhe::u64 b0 = mt::tracedDataBytes();
    sink.enable();
    try {
        fn();
    } catch (...) {
        sink.disable();
        sink.clear();
        throw;
    }
    sink.disable();
    const double bytes =
        static_cast<double>(mt::tracedDataBytes() - b0);
    sink.clear();
    return bytes;
}

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/** Operations per second of a serial workload: count / total time. */
inline double
serialRate(const std::vector<double>& op_seconds)
{
    double total = 0.0;
    for (double t : op_seconds)
        total += t;
    return total > 0.0 ? static_cast<double>(op_seconds.size()) / total : 0.0;
}

/**
 * Add the end-to-end metrics every workload prints: the median wall
 * time of one operation, the operations completed per second, the raw
 * traced flow of one operation, the set-up time and the peak RSS.
 */
inline void
addEndToEnd(Report& r, double op_s, double ops_per_s, double traced_bytes,
            double setup_s)
{
    r.add("op_ms", op_s * 1e3, "ms");
    r.add("ops_per_s", ops_per_s, "1/s");
    r.add("traced_mb", traced_bytes / kMiB, "MB");
    r.add("setup_s", setup_s, "s");
    r.add("peak_rss_mb", peakRssMb(), "MB");
}

/** Streaming-copy bandwidth of this host (read + write bytes), GB/s. */
double hostCopyGbps();

/** Everything the per-layer primitive sweep needs at one parameter set. */
struct PrimitiveSetup
{
    std::shared_ptr<const madfhe::CkksContext> ctx;
    const madfhe::PublicKey* pk = nullptr;
    const madfhe::SecretKey* sk = nullptr;
    const madfhe::SwitchingKey* rlk = nullptr;
    const madfhe::GaloisKeys* gks = nullptr;
    /** At least two rotation steps that `gks` holds keys for. */
    std::vector<int> steps;
    /** The workload's own PtMatVecMult, with its context, an input
     *  ciphertext and Galois keys (the context may differ from ctx). */
    const madfhe::LinearTransform* matvec = nullptr;
    std::shared_ptr<const madfhe::CkksContext> matvec_ctx;
    const madfhe::Ciphertext* matvec_input = nullptr;
    const madfhe::GaloisKeys* matvec_gks = nullptr;
    uint64_t seed = 1;
};

/**
 * Time the rns, ring and ckks public calls at the top level of `s.ctx`
 * and add them as rns.* / ring.* / ckks.* metrics.
 */
void primitiveLayers(const PrimitiveSetup& s, Report& r);

/*
 * Each workload's entry point. Untraced (args.trace false), it times the
 * workload's operations and adds the end-to-end metrics; traced, it adds
 * its own layer's metrics (boot.*, graph.* or serve.*), plus the
 * primitive sweep when args.sweep is set.
 */
Report runBootstrap(const Args& args);
Report runGraphApps(const Args& args);
Report runServeMixed(const Args& args);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
