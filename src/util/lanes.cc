/**
 * @file
 * Lane-batched LU substitution kernel (double field).
 *
 * The transient solver advances K same-topology stimuli (one or more)
 * as SoA lanes and back-substitutes all K right-hand sides through one
 * shared factorization per step. This kernel is why that pays off:
 * lanes are processed in chunks whose width is a compile-time
 * constant, and a chunk's per-row running sums (the widened equivalent
 * of the scalar solveInto() `sum` variable) are held as whole values of
 * the target's double vector type, 4 lanes each in the AVX2 clone and
 * 2 in the generic one, with the remaining lanes as plain doubles.
 * Each factor entry is broadcast once per chunk.
 *
 * The sums are loaded from b and stored to x as whole vectors, and
 * later rows read x[j] as whole vectors too. That is what keeps a row's
 * substitution off the stack: a chunk held as a double array is moved
 * through memory in 16-byte halves and read back as a 32-byte operand,
 * and a 32-byte load that spans two in-flight 16-byte stores cannot be
 * forwarded, so every row that reads a row written just before it
 * (most of them) stalls on the substitution's dependency chain. Each
 * clone uses its own native width: a 32-byte vector type compiled
 * without AVX is split by the compiler and runs several times slower
 * than a plain loop.
 *
 * Bit-identity contract: per lane this performs *exactly* the scalar
 * solveInto() operation sequence — the factor's non-zero entries of
 * each row in ascending column order, one multiply and then one
 * subtract per entry, one divide per row. It skips exactly the
 * factor's zero entries, so it matches dense substitution too unless a
 * running sum is exactly -0.0 or some x[j] is not finite (see
 * LuSolver). Chunking groups lanes; it never reorders or reassociates a
 * lane's arithmetic. On x86-64 an AVX2 clone is dispatched at runtime;
 * AVX2 vmulpd / vsubpd / vdivpd are elementwise IEEE-identical to their
 * scalar counterparts. Neither clone enables the fma ISA bit, and the
 * build compiles every target with -ffp-contract=off (vn_util's public
 * compile options), so no multiply-subtract pair is ever fused, even
 * at an -march that has FMA.
 */

#include <cstring>

#include "util/matrix.hh"

namespace vn::detail
{

namespace
{

/** Doubles in one 16-byte (SSE2, NEON) or 32-byte (AVX) vector. */
typedef double Vec2 __attribute__((vector_size(16)));
typedef double Vec4 __attribute__((vector_size(32)));

/**
 * Running sums of one chunk of KN lanes: KN / W whole vectors of W
 * lanes, then KN % W scalar lanes. Never passed or returned by value
 * (a vector wider than the target's registers would change the ABI),
 * only by reference.
 */
template <typename Vec, size_t KN>
struct ChunkSums
{
    static constexpr size_t width = sizeof(Vec) / sizeof(double);
    static constexpr size_t vecs = KN / width;
    static constexpr size_t rest = KN % width;

    Vec vec[vecs > 0 ? vecs : 1];
    double tail[rest > 0 ? rest : 1];

    [[gnu::always_inline]] void
    load(const double *src)
    {
        for (size_t v = 0; v < vecs; ++v)
            std::memcpy(&vec[v], src + width * v, sizeof(Vec));
        for (size_t r = 0; r < rest; ++r)
            tail[r] = src[width * vecs + r];
    }

    [[gnu::always_inline]] void
    store(double *dst) const
    {
        for (size_t v = 0; v < vecs; ++v)
            std::memcpy(dst + width * v, &vec[v], sizeof(Vec));
        for (size_t r = 0; r < rest; ++r)
            dst[width * vecs + r] = tail[r];
    }

    /**
     * sums -= factor * xj, lane by lane (multiply, then subtract). A
     * scalar operand of a vector operation is broadcast to every lane.
     */
    [[gnu::always_inline]] void
    subtractScaled(double factor, const double *xj)
    {
        for (size_t v = 0; v < vecs; ++v) {
            Vec xv;
            std::memcpy(&xv, xj + width * v, sizeof(Vec));
            vec[v] -= factor * xv;
        }
        for (size_t r = 0; r < rest; ++r)
            tail[r] -= factor * xj[width * vecs + r];
    }

    [[gnu::always_inline]] void
    divide(double divisor)
    {
        for (size_t v = 0; v < vecs; ++v)
            vec[v] /= divisor;
        for (size_t r = 0; r < rest; ++r)
            tail[r] /= divisor;
    }
};

/**
 * Subtract one factor row's terms from a chunk's sums:
 * sums -= value * x[col] for every non-zero of the row.
 */
template <typename Vec, size_t KN>
[[gnu::always_inline]] inline void
subtractRow(const size_t *col, const double *value, size_t begin,
            size_t end, const double *x, size_t lanes, size_t k0,
            ChunkSums<Vec, KN> &sums)
{
    for (size_t p = begin; p < end; ++p)
        sums.subtractScaled(value[p], x + col[p] * lanes + k0);
}

/** Substitute one chunk of KN lanes starting at lane offset k0. */
template <typename Vec, size_t KN>
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

    ChunkSums<Vec, KN> sums;
    // Apply permutation and forward-substitute L (unit diagonal).
    for (size_t i = 0; i < lu.n; ++i) {
        sums.load(b + lu.perm[i] * lanes + k0);
        subtractRow<Vec, KN>(l_col, l_value, l_start[i], l_start[i + 1], x,
                        lanes, k0, sums);
        sums.store(x + i * lanes + k0);
    }
    // Back-substitute U.
    for (size_t ii = lu.n; ii-- > 0;) {
        double *xi = x + ii * lanes + k0;
        sums.load(xi);
        subtractRow<Vec, KN>(u_col, u_value, u_start[ii], u_start[ii + 1], x,
                        lanes, k0, sums);
        sums.divide(lu.diag[ii]);
        sums.store(xi);
    }
}

/**
 * Full-width chunks of 8 lanes, then one constant-width remainder. A
 * batch that is one chunk (one lane included) passes its width as the
 * lane stride and 0 as the offset, so once solveChunk is inlined both
 * are constants too and every x[j] address is a plain scaled index.
 */
template <typename Vec>
[[gnu::always_inline]] inline void
solveAll(const LuView &lu, const double *b, size_t lanes, double *x)
{
    switch (lanes) {
    case 1: solveChunk<Vec, 1>(lu, b, 1, 0, x); return;
    case 2: solveChunk<Vec, 2>(lu, b, 2, 0, x); return;
    case 3: solveChunk<Vec, 3>(lu, b, 3, 0, x); return;
    case 4: solveChunk<Vec, 4>(lu, b, 4, 0, x); return;
    case 5: solveChunk<Vec, 5>(lu, b, 5, 0, x); return;
    case 6: solveChunk<Vec, 6>(lu, b, 6, 0, x); return;
    case 7: solveChunk<Vec, 7>(lu, b, 7, 0, x); return;
    case 8: solveChunk<Vec, 8>(lu, b, 8, 0, x); return;
    default: break;
    }
    size_t k0 = 0;
    for (; k0 + 8 <= lanes; k0 += 8)
        solveChunk<Vec, 8>(lu, b, lanes, k0, x);
    switch (lanes - k0) {
    case 1: solveChunk<Vec, 1>(lu, b, lanes, k0, x); break;
    case 2: solveChunk<Vec, 2>(lu, b, lanes, k0, x); break;
    case 3: solveChunk<Vec, 3>(lu, b, lanes, k0, x); break;
    case 4: solveChunk<Vec, 4>(lu, b, lanes, k0, x); break;
    case 5: solveChunk<Vec, 5>(lu, b, lanes, k0, x); break;
    case 6: solveChunk<Vec, 6>(lu, b, lanes, k0, x); break;
    case 7: solveChunk<Vec, 7>(lu, b, lanes, k0, x); break;
    default: break;
    }
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define VN_LANES_AVX2 1

/**
 * AVX2 clone (note: avx2 only — never fma, which would contract the
 * multiply-subtract pairs and break bit-identity with the scalar
 * path). The always_inline helpers are compiled into this body under
 * the avx2 target, so each Vec4 operation is one ymm instruction.
 */
__attribute__((target("avx2"))) void
solveAllAvx2(const LuView &lu, const double *b, size_t lanes, double *x)
{
    solveAll<Vec4>(lu, b, lanes, x);
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
    solveAll<Vec2>(lu, b, lanes, x);
}

} // namespace vn::detail
