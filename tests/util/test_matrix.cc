/**
 * @file
 * Tests for the dense LU solver over real and complex fields.
 */

#include <gtest/gtest.h>

#include <complex>
#include <limits>

#include "util/logging.hh"
#include "util/matrix.hh"
#include "util/rng.hh"

namespace
{

using Cplx = std::complex<double>;

TEST(MatrixTest, ElementAccess)
{
    vn::Matrix<double> m(2, 3);
    m(1, 2) = 5.0;
    EXPECT_EQ(m(1, 2), 5.0);
    EXPECT_EQ(m(0, 0), 0.0);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    m.setZero();
    EXPECT_EQ(m(1, 2), 0.0);
}

TEST(LuSolverTest, Identity)
{
    vn::Matrix<double> a(3, 3);
    for (size_t i = 0; i < 3; ++i)
        a(i, i) = 1.0;
    vn::LuSolver<double> lu(a);
    auto x = lu.solve({1.0, 2.0, 3.0});
    EXPECT_DOUBLE_EQ(x[0], 1.0);
    EXPECT_DOUBLE_EQ(x[1], 2.0);
    EXPECT_DOUBLE_EQ(x[2], 3.0);
}

TEST(LuSolverTest, Known2x2)
{
    // [2 1; 1 3] x = [3; 5] -> x = [0.8, 1.4]
    vn::Matrix<double> a(2, 2);
    a(0, 0) = 2.0;
    a(0, 1) = 1.0;
    a(1, 0) = 1.0;
    a(1, 1) = 3.0;
    vn::LuSolver<double> lu(a);
    auto x = lu.solve({3.0, 5.0});
    EXPECT_NEAR(x[0], 0.8, 1e-12);
    EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(LuSolverTest, RequiresPivoting)
{
    // Zero on the leading diagonal forces a row swap.
    vn::Matrix<double> a(2, 2);
    a(0, 0) = 0.0;
    a(0, 1) = 1.0;
    a(1, 0) = 1.0;
    a(1, 1) = 0.0;
    vn::LuSolver<double> lu(a);
    auto x = lu.solve({2.0, 3.0});
    EXPECT_NEAR(x[0], 3.0, 1e-12);
    EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(LuSolverTest, RandomSystemsRoundTrip)
{
    vn::Rng rng(33);
    for (int trial = 0; trial < 20; ++trial) {
        const size_t n = 1 + rng.below(12);
        vn::Matrix<double> a(n, n);
        std::vector<double> x_true(n);
        for (size_t i = 0; i < n; ++i) {
            x_true[i] = rng.uniform(-2.0, 2.0);
            for (size_t j = 0; j < n; ++j)
                a(i, j) = rng.uniform(-1.0, 1.0);
            a(i, i) += static_cast<double>(n); // diagonal dominance
        }
        std::vector<double> b(n, 0.0);
        for (size_t i = 0; i < n; ++i)
            for (size_t j = 0; j < n; ++j)
                b[i] += a(i, j) * x_true[j];

        vn::LuSolver<double> lu(a);
        auto x = lu.solve(b);
        for (size_t i = 0; i < n; ++i)
            ASSERT_NEAR(x[i], x_true[i], 1e-9);
    }
}

TEST(LuSolverTest, ComplexSystem)
{
    vn::Matrix<Cplx> a(2, 2);
    a(0, 0) = Cplx(1.0, 1.0);
    a(0, 1) = Cplx(0.0, -1.0);
    a(1, 0) = Cplx(2.0, 0.0);
    a(1, 1) = Cplx(1.0, 0.0);
    // Pick x, compute b = A x, recover x.
    std::vector<Cplx> x_true{Cplx(1.0, -2.0), Cplx(0.5, 3.0)};
    std::vector<Cplx> b(2);
    for (size_t i = 0; i < 2; ++i)
        b[i] = a(i, 0) * x_true[0] + a(i, 1) * x_true[1];
    vn::LuSolver<Cplx> lu(a);
    auto x = lu.solve(b);
    for (size_t i = 0; i < 2; ++i) {
        EXPECT_NEAR(x[i].real(), x_true[i].real(), 1e-12);
        EXPECT_NEAR(x[i].imag(), x_true[i].imag(), 1e-12);
    }
}

TEST(LuSolverTest, SolveIntoMatchesSolve)
{
    vn::Matrix<double> a(3, 3);
    vn::Rng rng(44);
    for (size_t i = 0; i < 3; ++i) {
        for (size_t j = 0; j < 3; ++j)
            a(i, j) = rng.uniform(-1.0, 1.0);
        a(i, i) += 4.0;
    }
    vn::LuSolver<double> lu(a);
    std::vector<double> b{1.0, -2.0, 0.5};
    auto x1 = lu.solve(b);
    std::vector<double> x2;
    lu.solveInto(b, x2);
    for (size_t i = 0; i < 3; ++i)
        EXPECT_DOUBLE_EQ(x1[i], x2[i]);
}

TEST(LuSolverTest, SingularMatrixIsFatal)
{
    bool prev = vn::setThrowOnError(true);
    vn::Matrix<double> a(2, 2);
    a(0, 0) = 1.0;
    a(0, 1) = 2.0;
    a(1, 0) = 2.0;
    a(1, 1) = 4.0; // rank 1
    EXPECT_THROW(vn::LuSolver<double>{a}, vn::FatalError);
    vn::setThrowOnError(prev);
}

TEST(LuSolverTest, NanPivotIsFatal)
{
    // NaN compares false to everything, so "pivot == 0" let it through.
    bool prev = vn::setThrowOnError(true);
    vn::Matrix<double> a(2, 2);
    a(0, 0) = std::numeric_limits<double>::quiet_NaN();
    a(0, 1) = 1.0;
    a(1, 0) = 1.0;
    a(1, 1) = 3.0;
    EXPECT_THROW(vn::LuSolver<double>{a}, vn::FatalError);
    vn::setThrowOnError(prev);
}

TEST(LuSolverTest, NonSquareIsFatal)
{
    bool prev = vn::setThrowOnError(true);
    vn::Matrix<double> a(2, 3);
    vn::LuSolver<double> lu;
    EXPECT_THROW(lu.factorize(a), vn::FatalError);
    vn::setThrowOnError(prev);
}

TEST(LuSolverTest, RhsSizeMismatchIsFatal)
{
    bool prev = vn::setThrowOnError(true);
    vn::Matrix<double> a(2, 2);
    a(0, 0) = a(1, 1) = 1.0;
    vn::LuSolver<double> lu(a);
    EXPECT_THROW(lu.solve({1.0, 2.0, 3.0}), vn::FatalError);
    vn::setThrowOnError(prev);
}

} // namespace
