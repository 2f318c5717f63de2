/**
 * @file
 * Lane-batched LU substitution kernel (double field).
 *
 * The transient solver advances K same-topology stimuli (one or more)
 * as SoA lanes and back-substitutes all K right-hand sides through one
 * shared factorization per step. This kernel is why that pays off:
 * lanes are processed in chunks whose trip count is a compile-time
 * constant, so the per-row running sums live in vector registers for
 * the whole substitution loop — the widened equivalent of the scalar
 * solveInto() `sum` variable — instead of bouncing through a
 * store-to-load forward on every factor entry.
 *
 * Bit-identity contract: per lane this performs *exactly* the scalar
 * solveInto() operation sequence — the factor's non-zero entries of
 * each row in ascending column order, one multiply and one subtract
 * per entry, one divide per row. It skips exactly the factor's zero
 * entries, so it matches dense substitution too unless a running sum
 * is exactly -0.0 or some x[j] is not finite (see LuSolver). Chunking
 * groups lanes; it never reorders or reassociates a lane's arithmetic.
 * On x86-64 an AVX2 clone is dispatched at runtime; AVX2 vmulpd /
 * vsubpd / vdivpd are elementwise IEEE-identical to their scalar
 * counterparts, and FMA contraction is impossible because the fma ISA
 * bit is never enabled for either clone.
 */

#include "util/matrix.hh"

namespace vn::detail
{

namespace
{

/**
 * Subtract one factor row's terms from a chunk of KN lane sums:
 * acc[k] -= value * x[col][k] for every non-zero of the row.
 */
template <size_t KN>
[[gnu::always_inline]] inline void
subtractRow(const size_t *col, const double *value, size_t begin,
            size_t end, const double *x, size_t lanes, size_t k0,
            double *acc)
{
    for (size_t p = begin; p < end; ++p) {
        const double factor = value[p];
        const double *xj = x + col[p] * lanes + k0;
        for (size_t k = 0; k < KN; ++k)
            acc[k] -= factor * xj[k];
    }
}

/**
 * Substitute one chunk of KN lanes starting at lane offset k0. KN is a
 * compile-time constant so `acc` is fully scalarized into registers.
 */
template <size_t KN>
[[gnu::always_inline]] inline void
solveChunk(const LuView &lu, const double *b, size_t lanes, size_t k0,
           double *x)
{
    const size_t *l_start = lu.lower->start.data();
    const size_t *l_col = lu.lower->col.data();
    const double *l_value = lu.lower->value.data();
    const size_t *u_start = lu.upper->start.data();
    const size_t *u_col = lu.upper->col.data();
    const double *u_value = lu.upper->value.data();

    double acc[KN];
    // Apply permutation and forward-substitute L (unit diagonal).
    for (size_t i = 0; i < lu.n; ++i) {
        const double *bp = b + lu.perm[i] * lanes + k0;
        for (size_t k = 0; k < KN; ++k)
            acc[k] = bp[k];
        subtractRow<KN>(l_col, l_value, l_start[i], l_start[i + 1], x,
                        lanes, k0, acc);
        double *xi = x + i * lanes + k0;
        for (size_t k = 0; k < KN; ++k)
            xi[k] = acc[k];
    }
    // Back-substitute U.
    for (size_t ii = lu.n; ii-- > 0;) {
        double *xi = x + ii * lanes + k0;
        for (size_t k = 0; k < KN; ++k)
            acc[k] = xi[k];
        subtractRow<KN>(u_col, u_value, u_start[ii], u_start[ii + 1], x,
                        lanes, k0, acc);
        const double diag = lu.diag[ii];
        for (size_t k = 0; k < KN; ++k)
            xi[k] = acc[k] / diag;
    }
}

/**
 * Full-width chunks of 8 lanes, then one constant-width remainder. A
 * batch that is one chunk (one lane included) passes its width as the
 * lane stride and 0 as the offset, so once solveChunk is inlined both
 * are constants too and every x[j] address is a plain scaled index.
 */
[[gnu::always_inline]] inline void
solveAll(const LuView &lu, const double *b, size_t lanes, double *x)
{
    switch (lanes) {
    case 1: solveChunk<1>(lu, b, 1, 0, x); return;
    case 2: solveChunk<2>(lu, b, 2, 0, x); return;
    case 3: solveChunk<3>(lu, b, 3, 0, x); return;
    case 4: solveChunk<4>(lu, b, 4, 0, x); return;
    case 5: solveChunk<5>(lu, b, 5, 0, x); return;
    case 6: solveChunk<6>(lu, b, 6, 0, x); return;
    case 7: solveChunk<7>(lu, b, 7, 0, x); return;
    case 8: solveChunk<8>(lu, b, 8, 0, x); return;
    default: break;
    }
    size_t k0 = 0;
    for (; k0 + 8 <= lanes; k0 += 8)
        solveChunk<8>(lu, b, lanes, k0, x);
    switch (lanes - k0) {
    case 1: solveChunk<1>(lu, b, lanes, k0, x); break;
    case 2: solveChunk<2>(lu, b, lanes, k0, x); break;
    case 3: solveChunk<3>(lu, b, lanes, k0, x); break;
    case 4: solveChunk<4>(lu, b, lanes, k0, x); break;
    case 5: solveChunk<5>(lu, b, lanes, k0, x); break;
    case 6: solveChunk<6>(lu, b, lanes, k0, x); break;
    case 7: solveChunk<7>(lu, b, lanes, k0, x); break;
    default: break;
    }
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define VN_LANES_AVX2 1

/**
 * AVX2 clone (note: avx2 only — never fma, which would contract the
 * multiply-subtract pairs and break bit-identity with the scalar
 * path). The always_inline helpers are compiled into this body under
 * the avx2 target, so the constant-trip lane loops vectorize 4-wide.
 */
__attribute__((target("avx2"))) void
solveAllAvx2(const LuView &lu, const double *b, size_t lanes, double *x)
{
    solveAll(lu, b, lanes, x);
}
#endif

} // namespace

void
solveLanesDouble(const LuView &lu, const double *b, size_t lanes,
                 double *x)
{
#ifdef VN_LANES_AVX2
    static const bool have_avx2 = __builtin_cpu_supports("avx2");
    if (have_avx2) {
        solveAllAvx2(lu, b, lanes, x);
        return;
    }
#endif
    solveAll(lu, b, lanes, x);
}

} // namespace vn::detail
