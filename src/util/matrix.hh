/**
 * @file
 * Minimal dense linear algebra: a row-major matrix and LU factorization
 * with partial pivoting, templated over the scalar field so the same code
 * serves the real-valued transient solver and the complex-valued AC
 * (impedance) analysis.
 *
 * PDN netlists produce systems of a few dozen unknowns, so a dense
 * factorization is both simple and fast; the transient loop factorizes
 * once per time-step size and then performs only forward/back
 * substitutions. Those walk only the factor's non-zero entries: of the
 * zEC12 PDN's 2450 off-diagonal L and U slots (50 unknowns), 507 are
 * non-zero.
 */

#ifndef VN_UTIL_MATRIX_HH
#define VN_UTIL_MATRIX_HH

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "util/logging.hh"

namespace vn
{

/** Magnitude used for pivot selection; overloaded for complex. */
inline double fieldAbs(double x) { return std::fabs(x); }
inline double fieldAbs(const std::complex<double> &x) { return std::abs(x); }

namespace detail
{

/**
 * The off-diagonal non-zeros of one triangular factor, row by row:
 * row i's entries are [start[i], start[i + 1]) of `col` and `value`,
 * in ascending column order.
 */
template <typename T>
struct FactorRows
{
    std::vector<size_t> start;
    std::vector<size_t> col;
    std::vector<T> value;
};

/** Borrowed pointers to a double factorization, for the lane kernel. */
struct LuView
{
    size_t n;
    const size_t *perm;
    const FactorRows<double> *lower;
    const FactorRows<double> *upper;
    const double *diag;
};

/**
 * Lane-batched LU substitution kernel for double (lanes.cc). Performs,
 * for each of `lanes` SoA right-hand sides, exactly the scalar
 * solveInto() operation sequence; element (i, k) lives at
 * `i * lanes + k` in both `b` and `x`. Compiled out of line so the
 * chunked inner loops get constant trip counts (register accumulators)
 * and, on x86-64, a runtime-dispatched AVX2 clone.
 */
void solveLanesDouble(const LuView &lu, const double *b, size_t lanes,
                      double *x);

} // namespace detail

/**
 * Dense row-major matrix over field T (double or std::complex<double>).
 */
template <typename T>
class Matrix
{
  public:
    Matrix() = default;

    /** Create a rows x cols matrix initialized to zero. */
    Matrix(size_t rows, size_t cols)
        : rows_(rows), cols_(cols), data_(rows * cols, T{})
    {}

    /** Number of rows. */
    size_t rows() const { return rows_; }

    /** Number of columns. */
    size_t cols() const { return cols_; }

    /** Mutable element access (unchecked). */
    T &operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }

    /** Const element access (unchecked). */
    const T &
    operator()(size_t r, size_t c) const
    {
        return data_[r * cols_ + c];
    }

    /** Reset every element to zero, keeping the shape. */
    void
    setZero()
    {
        std::fill(data_.begin(), data_.end(), T{});
    }

  private:
    size_t rows_ = 0;
    size_t cols_ = 0;
    std::vector<T> data_;
};

/**
 * LU factorization with partial pivoting of a square matrix.
 *
 * Factorize once, then solve() any number of right-hand sides; this is the
 * hot path of the transient solver (one factorization per time-step size,
 * one substitution per step).
 *
 * The factorization is dense; what it keeps is, per row, the non-zero
 * entries of L and of U in ascending column order plus U's diagonal.
 * Every substitution skips exactly the factor's zero entries: it runs
 * the dense operation sequence (sum -= l(i, j) * x[j] over ascending j,
 * one divide per row) minus the terms whose factor is exactly zero.
 * Such a term can only change the running sum when the sum is exactly
 * -0.0 or x[j] is not finite, so outside those cases the result is
 * bit-identical to dense substitution.
 */
template <typename T>
class LuSolver
{
  public:
    LuSolver() = default;

    /** Factorize the given square matrix. Calls fatal() on singularity. */
    explicit LuSolver(const Matrix<T> &a) { factorize(a); }

    /**
     * (Re-)factorize. A zero or NaN pivot is fatal, so non-finite
     * element values cannot factorize into a silently wrong system.
     */
    void
    factorize(const Matrix<T> &a)
    {
        if (a.rows() != a.cols())
            fatal("LuSolver: matrix must be square, got ", a.rows(), "x",
                  a.cols());
        factorized_ = false;
        n_ = a.rows();
        Matrix<T> lu = a;
        perm_.resize(n_);
        for (size_t i = 0; i < n_; ++i)
            perm_[i] = i;

        for (size_t k = 0; k < n_; ++k) {
            // Partial pivoting: pick the largest-magnitude entry in
            // column k at or below the diagonal.
            size_t pivot = k;
            double best = fieldAbs(lu(k, k));
            for (size_t i = k + 1; i < n_; ++i) {
                double mag = fieldAbs(lu(i, k));
                if (mag > best) {
                    best = mag;
                    pivot = i;
                }
            }
            if (!(best > 0.0))
                fatal("LuSolver: singular matrix (pivot column ", k, ")");
            if (pivot != k) {
                for (size_t j = 0; j < n_; ++j)
                    std::swap(lu(k, j), lu(pivot, j));
                std::swap(perm_[k], perm_[pivot]);
            }
            for (size_t i = k + 1; i < n_; ++i) {
                T factor = lu(i, k) / lu(k, k);
                lu(i, k) = factor;
                if (factor == T{})
                    continue;
                for (size_t j = k + 1; j < n_; ++j)
                    lu(i, j) -= factor * lu(k, j);
            }
        }

        lower_ = {};
        upper_ = {};
        diag_.resize(n_);
        for (size_t i = 0; i < n_; ++i) {
            lower_.start.push_back(lower_.col.size());
            upper_.start.push_back(upper_.col.size());
            for (size_t j = 0; j < n_; ++j) {
                if (j == i || lu(i, j) == T{})
                    continue;
                auto &rows = j < i ? lower_ : upper_;
                rows.col.push_back(j);
                rows.value.push_back(lu(i, j));
            }
            diag_[i] = lu(i, i);
        }
        lower_.start.push_back(lower_.col.size());
        upper_.start.push_back(upper_.col.size());
        factorized_ = true;
    }

    /** Solve A x = b; returns x. */
    std::vector<T>
    solve(const std::vector<T> &b) const
    {
        std::vector<T> x;
        solveInto(b, x);
        return x;
    }

    /** In-place variant writing into x (sized n) to avoid allocation. */
    void
    solveInto(const std::vector<T> &b, std::vector<T> &x) const
    {
        if (!factorized_)
            panic("LuSolver::solveInto() before factorize()");
        if (b.size() != n_)
            fatal("LuSolver::solveInto(): rhs size ", b.size(),
                  " does not match system size ", n_);
        x.resize(n_);
        // Apply permutation and forward-substitute L (unit diagonal).
        for (size_t i = 0; i < n_; ++i) {
            T sum = b[perm_[i]];
            for (size_t p = lower_.start[i]; p < lower_.start[i + 1]; ++p)
                sum -= lower_.value[p] * x[lower_.col[p]];
            x[i] = sum;
        }
        // Back-substitute U.
        for (size_t ii = n_; ii-- > 0;) {
            T sum = x[ii];
            for (size_t p = upper_.start[ii]; p < upper_.start[ii + 1];
                 ++p)
                sum -= upper_.value[p] * x[upper_.col[p]];
            x[ii] = sum / diag_[ii];
        }
    }

    /**
     * Solve K right-hand sides laid out as SoA lanes (double only):
     * `b` and `x` hold `size() * lanes` entries where element (i, k) of
     * unknown i and lane k lives at index `i * lanes + k`.
     *
     * Each lane performs *exactly* the solveInto() operation sequence
     * (the same non-zero entries in the same order), so lane k of the
     * result is bit-identical to a solveInto() of lane k's right-hand
     * side. The lane loop is innermost over contiguous memory, which
     * lets the compiler vectorize and amortizes every factor load over
     * all lanes — this is the kernel behind the transient solver. Both
     * spans must hold exactly `size() * lanes` entries.
     */
    void
    solveLanesInto(std::span<const double> b, size_t lanes,
                   std::span<double> x) const
        requires std::is_same_v<T, double>
    {
        if (!factorized_)
            panic("LuSolver::solveLanesInto() before factorize()");
        if (lanes == 0)
            fatal("LuSolver::solveLanesInto(): lanes must be >= 1");
        if (b.size() != n_ * lanes || x.size() != n_ * lanes)
            fatal("LuSolver::solveLanesInto(): rhs size ", b.size(),
                  " and solution size ", x.size(), " do not match ", n_,
                  " unknowns x ", lanes, " lanes");
        detail::solveLanesDouble(
            {n_, perm_.data(), &lower_, &upper_, diag_.data()}, b.data(),
            lanes, x.data());
    }

    /** System size. */
    size_t size() const { return n_; }

    /** Whether factorize() succeeded. */
    bool factorized() const { return factorized_; }

    /** Non-zero off-diagonal entries of L, then of U. */
    size_t lowerNonZeros() const { return lower_.col.size(); }
    size_t upperNonZeros() const { return upper_.col.size(); }

  private:
    size_t n_ = 0;
    std::vector<size_t> perm_;
    detail::FactorRows<T> lower_;
    detail::FactorRows<T> upper_;
    std::vector<T> diag_;
    bool factorized_ = false;
};

} // namespace vn

#endif // VN_UTIL_MATRIX_HH
