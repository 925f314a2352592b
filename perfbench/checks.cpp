#include "checks.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>

namespace perfbench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

template <typename T>
double
worstError(const std::vector<T>& got, const std::vector<T>& want)
{
    if (got.size() < want.size())
        return kInf;
    double worst = 0.0;
    for (size_t i = 0; i < want.size(); ++i) {
        const double e = std::abs(got[i] - want[i]);
        if (!std::isfinite(e))
            return kInf;
        worst = std::max(worst, e);
    }
    return worst;
}

/** w . x for sample i. */
double
margin(const std::vector<double>& w, const LrData& data, size_t i)
{
    double z = 0.0;
    for (size_t j = 0; j < w.size(); ++j)
        z += w[j] * data.features[j][i];
    return z;
}

size_t
argmax(const std::vector<double>& v)
{
    return static_cast<size_t>(std::max_element(v.begin(), v.end()) -
                               v.begin());
}

} // namespace

double
maxAbsError(const Slots& got, const Slots& want)
{
    return worstError(got, want);
}

double
maxAbsError(const std::vector<double>& got, const std::vector<double>& want)
{
    return worstError(got, want);
}

bool
bootstrapOk(const Slots& got, const Slots& input, double bound)
{
    return maxAbsError(got, input) <= bound;
}

LrData
twoGaussians(size_t samples, size_t features, uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::normal_distribution<double> noise(0.0, 0.25);
    LrData d;
    d.features.assign(features, std::vector<double>(samples));
    d.labels.resize(samples);
    for (size_t i = 0; i < samples; ++i) {
        const bool positive = i % 2 == 0;
        d.labels[i] = positive ? 1.0 : 0.0;
        for (size_t j = 0; j < features; ++j)
            d.features[j][i] = (positive ? 0.35 : -0.35) + noise(rng);
    }
    return d;
}

std::vector<double>
lrReference(const LrData& data, size_t slots, size_t iterations,
            double learning_rate)
{
    const size_t nf = data.features.size();
    const size_t ns = data.labels.size();
    std::vector<double> w(nf, 0.0);
    for (size_t it = 0; it < iterations; ++it) {
        std::vector<double> grad(nf, 0.0);
        for (size_t i = 0; i < ns; ++i) {
            const double z = margin(w, data, i);
            const double err = 0.5 + 0.25 * z - z * z * z / 48.0 -
                               data.labels[i];
            for (size_t j = 0; j < nf; ++j)
                grad[j] += err * data.features[j][i];
        }
        for (size_t j = 0; j < nf; ++j)
            w[j] -= learning_rate * grad[j] / static_cast<double>(slots);
    }
    return w;
}

double
lrAccuracy(const std::vector<double>& w, const LrData& data)
{
    const size_t ns = data.labels.size();
    if (ns == 0 || w.size() != data.features.size())
        return 0.0;
    size_t right = 0;
    for (size_t i = 0; i < ns; ++i)
        right += (margin(w, data, i) > 0.0) == (data.labels[i] > 0.5);
    return static_cast<double>(right) / static_cast<double>(ns);
}

bool
lrOk(const std::vector<double>& got, const std::vector<double>& want,
     const LrData& data, double tol, double floor)
{
    return got.size() == want.size() && maxAbsError(got, want) <= tol &&
           lrAccuracy(got, data) >= floor;
}

std::vector<double>
mlpForward(const std::vector<Matrix>& layers, const std::vector<double>& x)
{
    std::vector<double> cur = x;
    for (size_t l = 0; l < layers.size(); ++l) {
        std::vector<double> next(layers[l].size(), 0.0);
        for (size_t r = 0; r < layers[l].size(); ++r)
            for (size_t c = 0; c < layers[l][r].size() && c < cur.size();
                 ++c)
                next[r] += layers[l][r][c] * cur[c];
        if (l + 1 < layers.size())
            for (double& v : next)
                v *= v;
        cur = std::move(next);
    }
    return cur;
}

bool
mlpOk(const std::vector<double>& got, const std::vector<double>& want,
      double tol)
{
    if (want.empty() || got.size() != want.size() ||
        maxAbsError(got, want) > tol)
        return false;
    std::vector<double> sorted = want;
    std::sort(sorted.begin(), sorted.end(), std::greater<double>());
    const bool decided = sorted.size() < 2 || sorted[0] - sorted[1] > 2 * tol;
    return !decided || argmax(got) == argmax(want);
}

std::vector<double>
rotateSlots(const std::vector<double>& x, int step)
{
    const long n = static_cast<long>(x.size());
    std::vector<double> y(x.size());
    for (long k = 0; k < n; ++k)
        y[k] = x[static_cast<size_t>(((k + step) % n + n) % n)];
    return y;
}

std::vector<double>
diagonalMatVec(const std::map<int, std::vector<double>>& diags,
               const std::vector<double>& x)
{
    std::vector<double> y(x.size(), 0.0);
    for (const auto& [d, diag] : diags) {
        const std::vector<double> xr = rotateSlots(x, d);
        for (size_t k = 0; k < y.size() && k < diag.size(); ++k)
            y[k] += diag[k] * xr[k];
    }
    return y;
}

std::vector<double>
addSlots(const std::vector<double>& a, const std::vector<double>& b)
{
    std::vector<double> y(std::min(a.size(), b.size()));
    for (size_t k = 0; k < y.size(); ++k)
        y[k] = a[k] + b[k];
    return y;
}

std::vector<double>
mulSlots(const std::vector<double>& a, const std::vector<double>& b)
{
    std::vector<double> y(std::min(a.size(), b.size()));
    for (size_t k = 0; k < y.size(); ++k)
        y[k] = a[k] * b[k];
    return y;
}

bool
slotsOk(const std::vector<double>& got, const std::vector<double>& want,
        double tol)
{
    return !want.empty() && maxAbsError(got, want) <= tol;
}

bool
sameBytes(const std::string& got, const std::string& want)
{
    return !want.empty() && got == want;
}

bool
oneResponseEach(const std::vector<uint64_t>& attempted,
                const std::vector<uint64_t>& answered)
{
    std::vector<uint64_t> a = attempted, b = answered;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    return std::adjacent_find(a.begin(), a.end()) == a.end() && a == b;
}

} // namespace perfbench
