#include "ckks/matvec.h"

#include <cmath>

#include "memtrace/trace.h"
#include "telemetry/telemetry.h"

namespace madfhe {

LinearTransform::LinearTransform(
    std::shared_ptr<const CkksContext> ctx_,
    std::map<int, std::vector<std::complex<double>>> diagonals,
    double pt_scale_, MatVecOptions options)
    : ctx(std::move(ctx_)), pt_scale(pt_scale_), opts(options)
{
    MAD_REQUIRE(!diagonals.empty(), "transform needs at least one diagonal");
    const size_t slots = ctx->slots();
    for (auto& [d, v] : diagonals) {
        MAD_REQUIRE(v.size() == slots, "diagonal length must equal slot count");
        int dd = d % static_cast<int>(slots);
        if (dd < 0)
            dd += static_cast<int>(slots);
        // Merge aliased diagonals (d and d mod slots describe the same
        // rotation).
        auto [it, inserted] = diags.emplace(dd, v);
        if (!inserted) {
            for (size_t k = 0; k < slots; ++k)
                it->second[k] += v[k];
        }
    }
}

size_t
LinearTransform::babySteps() const
{
    if (opts.baby_steps)
        return opts.baby_steps;
    size_t bs = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(diags.size()))));
    return std::max<size_t>(1, bs);
}

std::vector<int>
LinearTransform::requiredRotations() const
{
    std::vector<int> steps;
    const size_t bs = babySteps();
    for (const auto& [d, v] : diags) {
        (void)v;
        int j = d % static_cast<int>(bs);
        int giant = d - j;
        steps.push_back(j);
        steps.push_back(giant);
    }
    return steps;
}

double
LinearTransform::maxDiagonalMagnitude() const
{
    double mag = 0.0;
    for (const auto& [d, v] : diags) {
        (void)d;
        for (const std::complex<double>& c : v)
            mag = std::max(mag, std::abs(c));
    }
    return mag;
}

std::vector<std::complex<double>>
LinearTransform::applyPlain(const std::vector<std::complex<double>>& x) const
{
    const size_t slots = ctx->slots();
    MAD_REQUIRE(x.size() == slots, "input length must equal slot count");
    std::vector<std::complex<double>> y(slots, {0.0, 0.0});
    for (const auto& [d, diag] : diags) {
        for (size_t k = 0; k < slots; ++k)
            y[k] += diag[k] * x[(k + d) % slots];
    }
    return y;
}

Ciphertext
LinearTransform::apply(const Evaluator& eval, const CkksEncoder& encoder,
                       const Ciphertext& ct, const GaloisKeys& gks) const
{
    MAD_TRACE_SCOPE("PtMatVecMult");
    TELEM_SPAN("PtMatVecMult");
    const size_t slots = ctx->slots();
    const size_t bs = babySteps();

    // Group diagonals by giant step, d = giant + j with 0 <= j < bs, and
    // rotate the input by each distinct baby step j off one hoisted
    // Decomp+ModUp, keeping the results in the raised basis.
    auto digits = eval.keySwitcher().decomposeAndRaise(ct.c1);
    std::map<int, std::map<int, const std::vector<std::complex<double>>*>>
        groups;
    std::map<int, RaisedCiphertext> baby_raised;
    for (const auto& [d, diag] : diags) {
        const int j = d % static_cast<int>(bs);
        groups[d - j][j] = &diag;
        if (!baby_raised.count(j))
            baby_raised.emplace(j, eval.rotateRaised(digits, ct, j, gks));
    }

    Ciphertext acc;
    bool first = true;
    for (const auto& [giant, cols] : groups) {
        // The leading diagonal seeds the raised accumulator (copy +
        // pointwise product); every further one is an in-place MAC,
        // byte-identical to copy + product + add over canonical [0, q)
        // residues but touching one raised operand less.
        RaisedCiphertext inner;
        bool inner_first = true;
        for (const auto& [j, diag] : cols) {
            std::vector<std::complex<double>> rotated(slots);
            for (size_t k = 0; k < slots; ++k)
                rotated[k] = (*diag)[(k + slots - giant % slots) % slots];
            Plaintext pt = encoder.encodeRaised(rotated, pt_scale,
                                                ct.level());
            const RaisedCiphertext& baby = baby_raised.at(j);
            if (inner_first) {
                inner = baby;
                eval.mulPlainRaised(inner, pt);
                inner_first = false;
            } else {
                MAD_CHECK(pt.poly.numLimbs() == baby.c0.numLimbs(),
                          "raised plaintext limb mismatch");
                inner.c0.addMul(baby.c0, pt.poly);
                inner.c1.addMul(baby.c1, pt.poly);
            }
        }
        // One ModDown pair per giant step, then the giant rotation.
        Ciphertext outer = eval.rotate(eval.modDownPair(inner), giant, gks);
        if (first) {
            acc = std::move(outer);
            first = false;
        } else {
            acc = eval.add(acc, outer);
        }
    }
    return eval.rescale(acc);
}

} // namespace madfhe
