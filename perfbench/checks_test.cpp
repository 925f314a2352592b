// Each output check of the benchmark accepts the reference result and
// trips on a corrupted copy of it.
#include <gtest/gtest.h>

#include <cmath>

#include "checks.h"

namespace perfbench {
namespace {

TEST(BootstrapCheck, TripsOnOneCorruptedSlot)
{
    Slots in = {{0.5, -0.25}, {-1.0, 0.75}, {0.125, 0.0}};
    Slots out = in;
    out[1] += std::complex<double>(4e-4, -3e-4); // bootstrap-sized noise
    EXPECT_TRUE(bootstrapOk(out, in, 2e-3));
    out[2] += 0.01;
    EXPECT_FALSE(bootstrapOk(out, in, 2e-3));
    out[2] = std::complex<double>(NAN, 0.0);
    EXPECT_FALSE(bootstrapOk(out, in, 2e-3));
    EXPECT_FALSE(bootstrapOk(Slots(2), in, 2e-3)); // truncated output
}

TEST(LrCheck, ReferenceLearnsTheTwoGaussians)
{
    const LrData d = twoGaussians(1024, 8, 3);
    const std::vector<double> w = lrReference(d, 1024, 2, 1.0);
    EXPECT_GE(lrAccuracy(w, d), 0.9);
    EXPECT_TRUE(lrOk(w, w, d, 1e-3, 0.9));
}

TEST(LrCheck, TripsOnCorruptedWeight)
{
    const LrData d = twoGaussians(1024, 8, 3);
    const std::vector<double> want = lrReference(d, 1024, 2, 1.0);
    std::vector<double> got = want;
    got[5] += 5e-3;
    EXPECT_FALSE(lrOk(got, want, d, 1e-3, 0.9));
}

TEST(LrCheck, TripsBelowAccuracyFloor)
{
    const LrData d = twoGaussians(1024, 8, 3);
    std::vector<double> w = lrReference(d, 1024, 2, 1.0);
    for (double& v : w)
        v = -v; // every prediction flipped, weights still "close" to w
    EXPECT_LT(lrAccuracy(w, d), 0.1);
    EXPECT_FALSE(lrOk(w, w, d, 1e-3, 0.9));
}

TEST(LrCheck, ReferenceFollowsTheUpdateRule)
{
    // One sample, one feature, one step from w = 0: error = 0.5 - y,
    // w1 = -lr * error * x / slots.
    LrData d;
    d.features = {{2.0}};
    d.labels = {1.0};
    const std::vector<double> w = lrReference(d, 4, 1, 1.0);
    EXPECT_DOUBLE_EQ(w[0], -(0.5 - 1.0) * 2.0 / 4.0);
}

TEST(MlpCheck, ForwardPassSquaresBetweenLayers)
{
    const std::vector<Matrix> layers = {{{1.0, 2.0}, {0.0, 1.0}},
                                        {{1.0, -1.0}}};
    // h = (1 + 2*3, 3)^2 = (49, 9); out = 49 - 9.
    EXPECT_EQ(mlpForward(layers, {1.0, 3.0}), std::vector<double>{40.0});
}

TEST(MlpCheck, TripsOnCorruptedLogit)
{
    const std::vector<double> want = {0.1, 0.9, -0.4};
    std::vector<double> got = want;
    got[0] += 2e-4;
    EXPECT_TRUE(mlpOk(got, want, 1e-3));
    got[2] -= 0.05;
    EXPECT_FALSE(mlpOk(got, want, 1e-3));
}

TEST(MlpCheck, TripsWhenTheWinnerChanges)
{
    // Two logits swapped: the predicted class changed.
    const std::vector<double> want = {0.5000, 0.4970, 0.1};
    EXPECT_FALSE(mlpOk({0.4970, 0.5000, 0.1}, want, 1e-3));
    // A reference tie (gap below 2 * tol) accepts either winner.
    const std::vector<double> tie = {0.5000, 0.4995};
    EXPECT_TRUE(mlpOk({0.4996, 0.4999}, tie, 1e-3));
}

TEST(ServeCheck, PlaintextOpsAndRotationDirection)
{
    const std::vector<double> x = {1, 2, 3, 4};
    EXPECT_EQ(rotateSlots(x, 1), (std::vector<double>{2, 3, 4, 1}));
    EXPECT_EQ(rotateSlots(x, -1), (std::vector<double>{4, 1, 2, 3}));
    const std::map<int, std::vector<double>> diags = {{0, {1, 1, 1, 1}},
                                                      {1, {0, 1, 0, 1}}};
    EXPECT_EQ(diagonalMatVec(diags, x), (std::vector<double>{1, 5, 3, 5}));
    EXPECT_EQ(mulSlots(x, x), (std::vector<double>{1, 4, 9, 16}));
    EXPECT_EQ(addSlots(x, x), (std::vector<double>{2, 4, 6, 8}));
}

TEST(ServeCheck, TripsOnCorruptedResponse)
{
    const std::vector<double> want = {0.25, -0.5, 0.75};
    std::vector<double> got = want;
    got[1] += 1e-5;
    EXPECT_TRUE(slotsOk(got, want, 1e-3));
    got[0] = -got[0];
    EXPECT_FALSE(slotsOk(got, want, 1e-3));
}

TEST(ServeCheck, GetMustReturnThePutBytes)
{
    const std::string put = std::string("ct\0bytes", 8);
    EXPECT_TRUE(sameBytes(put, put));
    std::string flipped = put;
    flipped[3] ^= 1;
    EXPECT_FALSE(sameBytes(flipped, put));
    EXPECT_FALSE(sameBytes("", ""));
}

TEST(ServeCheck, ExactlyOneResponsePerRequest)
{
    EXPECT_TRUE(oneResponseEach({1, 2, 3}, {3, 1, 2}));
    EXPECT_FALSE(oneResponseEach({1, 2, 3}, {1, 2}));       // one lost
    EXPECT_FALSE(oneResponseEach({1, 2, 3}, {1, 2, 2, 3})); // one twice
    EXPECT_FALSE(oneResponseEach({1, 2, 3}, {1, 2, 4}));    // wrong id
}

} // namespace
} // namespace perfbench
