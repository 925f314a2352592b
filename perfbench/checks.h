/**
 * @file
 * Output checks of the benchmark: plaintext reference computations
 * written here from the definitions of each workload, and the
 * comparisons that decide whether a decrypted output is correct. None of
 * this code calls into madfhe, so a fault in the library cannot make its
 * own reference agree with it.
 */
#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include <complex>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Slots = std::vector<std::complex<double>>;
using Matrix = std::vector<std::vector<double>>;

/** Largest |got[i] - want[i]| over want's length (got may be longer);
 *  infinity when got is shorter or any difference is not finite. */
double maxAbsError(const Slots& got, const Slots& want);
double maxAbsError(const std::vector<double>& got,
                   const std::vector<double>& want);

// --- bootstrap ---------------------------------------------------------

/** Decrypted bootstrap output must match the input slots within `bound`. */
bool bootstrapOk(const Slots& got, const Slots& input, double bound);

// --- logistic regression (HELR) ----------------------------------------

/** Seeded two-class data: class 1 at mean +0.35, class 0 at -0.35, per
 *  feature standard deviation 0.25; sample i has label i % 2 == 0. */
struct LrData
{
    Matrix features; ///< [feature][sample]
    std::vector<double> labels;
};
LrData twoGaussians(size_t samples, size_t features, uint64_t seed);

/**
 * Gradient descent with the degree-3 sigmoid 0.5 + z/4 - z^3/48, from
 * zero weights, with the gradient sum divided by `slots` (the encrypted
 * slot-sum reduction runs over every slot; padding slots are zero).
 */
std::vector<double> lrReference(const LrData& data, size_t slots,
                                size_t iterations, double learning_rate);

/** Share of samples whose sign of w.x matches the label. */
double lrAccuracy(const std::vector<double>& w, const LrData& data);

/** Weights within `tol` of the reference and accuracy at least `floor`. */
bool lrOk(const std::vector<double>& got, const std::vector<double>& want,
          const LrData& data, double tol, double floor);

// --- MLP ---------------------------------------------------------------

/** Forward pass: dense layers (rows x dim) with x -> x^2 between them. */
std::vector<double> mlpForward(const std::vector<Matrix>& layers,
                               const std::vector<double>& x);

/**
 * Logits within `tol` of the reference, and the same argmax wherever the
 * reference's top two logits are more than 2 * tol apart (closer ones
 * are a tie at this precision). The argmax rule states the class-level
 * requirement on its own, so it still holds if `tol` is ever loosened.
 */
bool mlpOk(const std::vector<double>& got, const std::vector<double>& want,
           double tol);

// --- serving -----------------------------------------------------------

/** y[k] = x[(k + step) mod n]: a left rotation of the slot vector. */
std::vector<double> rotateSlots(const std::vector<double>& x, int step);

/** y[k] = sum_d diag_d[k] * x[(k + d) mod n] (generalized diagonals). */
std::vector<double>
diagonalMatVec(const std::map<int, std::vector<double>>& diags,
               const std::vector<double>& x);

std::vector<double> addSlots(const std::vector<double>& a,
                             const std::vector<double>& b);
std::vector<double> mulSlots(const std::vector<double>& a,
                             const std::vector<double>& b);

/** Decrypted response slots within `tol` of the plaintext result. */
bool slotsOk(const std::vector<double>& got, const std::vector<double>& want,
             double tol);

/** A Get must return exactly the bytes its Put stored. */
bool sameBytes(const std::string& got, const std::string& want);

/** Every attempted request id answered exactly once, and nothing else. */
bool oneResponseEach(const std::vector<uint64_t>& attempted,
                     const std::vector<uint64_t>& answered);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
