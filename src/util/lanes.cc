/**
 * @file
 * Lane-batched LU substitution kernel (double field).
 *
 * The transient solver advances K same-topology stimuli (one or more)
 * as SoA lanes and back-substitutes all K right-hand sides through one
 * shared factorization per step. This kernel is why that pays off:
 * lanes are processed in chunks whose width is a compile-time
 * constant, and a chunk's per-row running sums (the widened equivalent
 * of the scalar solveInto() `sum` variable) are held as one LanePack
 * (lanepack.hh): whole vectors of the clone's native width, 4 lanes
 * each in the AVX2 clone and 2 in the generic one, then a two-lane
 * vector and a scalar for what remains. Each factor entry is broadcast
 * once per chunk. Holding a chunk's last two or three lanes as a
 * 16-byte vector in the AVX2 clone keeps K = 3 and K = 7 from running
 * those lanes as scalars, which cost K = 3 as much per lane as one
 * lane.
 *
 * The sums are loaded from b and stored to x as whole vectors, and
 * later rows read x[j] as whole vectors too. That is what keeps a row's
 * substitution off the stack: a chunk held as a double array is moved
 * through memory in 16-byte halves and read back as a 32-byte operand,
 * and a 32-byte load that spans two in-flight 16-byte stores cannot be
 * forwarded, so every row that reads a row written just before it
 * (most of them) stalls on the substitution's dependency chain.
 *
 * Bit-identity contract: per lane this performs *exactly* the scalar
 * solveInto() operation sequence — the factor's non-zero entries of
 * each row in ascending column order, one multiply and then one
 * subtract per entry, one divide per row. It skips exactly the
 * factor's zero entries, so it matches dense substitution too unless a
 * running sum is exactly -0.0 or some x[j] is not finite (see
 * LuSolver). Chunking groups lanes; it never reorders or reassociates a
 * lane's arithmetic. On x86-64 an AVX2 clone is dispatched at runtime;
 * neither clone fuses a multiply-subtract pair (lanepack.hh).
 */

#include "util/lanepack.hh"
#include "util/matrix.hh"

namespace vn::detail
{

namespace
{

/**
 * Subtract one factor row's terms from a chunk's sums, lane by lane:
 * sums -= value * x[col] (multiply, then subtract) for every non-zero
 * of the row.
 */
template <size_t KN, bool Wide>
[[gnu::always_inline]] inline void
subtractRow(const size_t *col, const double *value, size_t begin,
            size_t end, const double *x, size_t lanes, size_t k0,
            LanePack<KN, Wide> &sums)
{
    using Pack = LanePack<KN, Wide>;
    for (size_t p = begin; p < end; ++p)
        sums = sums - Pack::splat(value[p]) *
                          Pack::load(x + col[p] * lanes + k0);
}

/** Substitute one chunk of KN lanes starting at lane offset k0. */
template <size_t KN, bool Wide>
[[gnu::always_inline]] inline void
solveChunk(const LuView &lu, const double *b, size_t lanes, size_t k0,
           double *x)
{
    using Pack = LanePack<KN, Wide>;
    const size_t *l_start = lu.lower->start.data();
    const size_t *l_col = lu.lower->col.data();
    const double *l_value = lu.lower->value.data();
    const size_t *u_start = lu.upper->start.data();
    const size_t *u_col = lu.upper->col.data();
    const double *u_value = lu.upper->value.data();

    // Apply permutation and forward-substitute L (unit diagonal).
    for (size_t i = 0; i < lu.n; ++i) {
        Pack sums = Pack::load(b + lu.perm[i] * lanes + k0);
        subtractRow(l_col, l_value, l_start[i], l_start[i + 1], x, lanes, k0,
                    sums);
        sums.store(x + i * lanes + k0);
    }
    // Back-substitute U.
    for (size_t ii = lu.n; ii-- > 0;) {
        double *xi = x + ii * lanes + k0;
        Pack sums = Pack::load(xi);
        subtractRow(u_col, u_value, u_start[ii], u_start[ii + 1], x, lanes,
                    k0, sums);
        sums = sums / Pack::splat(lu.diag[ii]);
        sums.store(xi);
    }
}

/** One constant-width chunk of `width` (1 to 8) lanes at offset k0. */
template <bool Wide>
[[gnu::always_inline]] inline void
solveChunkOf(size_t width, const LuView &lu, const double *b, size_t lanes,
             size_t k0, double *x)
{
    switch (width) {
    case 1: solveChunk<1, Wide>(lu, b, lanes, k0, x); break;
    case 2: solveChunk<2, Wide>(lu, b, lanes, k0, x); break;
    case 3: solveChunk<3, Wide>(lu, b, lanes, k0, x); break;
    case 4: solveChunk<4, Wide>(lu, b, lanes, k0, x); break;
    case 5: solveChunk<5, Wide>(lu, b, lanes, k0, x); break;
    case 6: solveChunk<6, Wide>(lu, b, lanes, k0, x); break;
    case 7: solveChunk<7, Wide>(lu, b, lanes, k0, x); break;
    case 8: solveChunk<8, Wide>(lu, b, lanes, k0, x); break;
    default: break;
    }
}

/**
 * Full-width chunks of 8 lanes, then one constant-width remainder, as a
 * LaneClones body for any lane count (W = 0). A batch that is one chunk
 * (one lane included) passes its width as the lane stride and 0 as the
 * offset, so once solveChunk is inlined both are constants too and
 * every x[j] address is a plain scaled index.
 */
struct SolveAll
{
    template <size_t W, bool Wide>
    [[gnu::always_inline]] static void
    run(const LuView &lu, const double *b, size_t lanes, double *x)
    {
        static_assert(W == 0, "the kernel chunks any lane count itself");
        switch (lanes) {
        case 1: solveChunk<1, Wide>(lu, b, 1, 0, x); return;
        case 2: solveChunk<2, Wide>(lu, b, 2, 0, x); return;
        case 3: solveChunk<3, Wide>(lu, b, 3, 0, x); return;
        case 4: solveChunk<4, Wide>(lu, b, 4, 0, x); return;
        case 5: solveChunk<5, Wide>(lu, b, 5, 0, x); return;
        case 6: solveChunk<6, Wide>(lu, b, 6, 0, x); return;
        case 7: solveChunk<7, Wide>(lu, b, 7, 0, x); return;
        case 8: solveChunk<8, Wide>(lu, b, 8, 0, x); return;
        default: break;
        }
        size_t k0 = 0;
        for (; k0 + 8 <= lanes; k0 += 8)
            solveChunk<8, Wide>(lu, b, lanes, k0, x);
        solveChunkOf<Wide>(lanes - k0, lu, b, lanes, k0, x);
    }
};

} // namespace

void
solveLanesDouble(const LuView &lu, const double *b, size_t lanes,
                 double *x)
{
    // Every lane count runs on the AVX2 clone where the CPU has it: the
    // kernel's own chunks give it fixed widths.
    using Clones = LaneClones<SolveAll, void(const LuView &, const double *,
                                             size_t, double *)>;
    Clones::forCpu<0>()(lu, b, lanes, x);
}

} // namespace vn::detail
