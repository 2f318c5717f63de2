/**
 * @file
 * Fixed-width lane packs: the vector type under every lane loop of the
 * substitution kernel (lanes.cc), the transient step (circuit/
 * transient.cc) and the chip's window statistics and meter
 * (chip/chip.cc).
 *
 * A LanePack<W, Wide> holds W doubles as whole values of the target's
 * vector types: W / 4 four-double vectors when `Wide` (the AVX2
 * clones), then one two-double vector if two or three lanes remain,
 * then one scalar if one does. A generic clone (`Wide` false) uses
 * two-double vectors only, since a 32-byte vector compiled without AVX
 * is split by the compiler and runs slower than plain code. So K = 3
 * is one 16-byte vector and one scalar, and K = 7 one 32-byte, one
 * 16-byte and one scalar, never three scalar lanes.
 *
 * Every operation is elementwise and IEEE-identical to its scalar
 * counterpart (vaddpd, vsubpd, vmulpd and vdivpd round each lane as
 * addsd, subsd, mulsd and divsd do), so a lane's result does not
 * depend on the pack it ran in. Nothing here fuses a multiply-add:
 * no clone enables the fma ISA bit, and the build compiles every
 * target with -ffp-contract=off. The helpers are always_inline and
 * take and return packs only inside the caller, which is what lets a
 * target("avx2") caller compile them to ymm instructions.
 *
 * LaneClones compiles a lane loop twice, for the build's target and
 * for avx2, and holds the one rule for which clone and which fixed
 * width a batch of K lanes runs; every lane loop above is dispatched
 * through it.
 */

#ifndef VN_UTIL_LANEPACK_HH
#define VN_UTIL_LANEPACK_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace vn::detail
{

/** Doubles in one 16-byte (SSE2, NEON) or 32-byte (AVX) vector. */
typedef double Vec2 __attribute__((vector_size(16)));
typedef double Vec4 __attribute__((vector_size(32)));

// The AVX2 clones: x86-64 with GCC or Clang, unless a build forces
// every lane loop onto its generic clone (the test-only target that
// checks those on machines with AVX2 does).
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(VN_LANES_GENERIC_ONLY)
#define VN_LANES_AVX2 1
/** avx2 only, never fma: see the file comment. */
#define VN_TARGET_AVX2 __attribute__((target("avx2")))

/** Whether this CPU runs the AVX2 clones. */
inline bool
haveAvx2()
{
    static const bool have = __builtin_cpu_supports("avx2");
    return have;
}
#endif

template <size_t W, bool Wide>
struct LanePack
{
    static constexpr size_t width = W;
    static constexpr size_t n4 = Wide ? W / 4 : 0;
    static constexpr size_t n2 = (W - 4 * n4) / 2;
    static constexpr size_t n1 = W - 4 * n4 - 2 * n2;

    std::array<Vec4, n4> q;
    std::array<Vec2, n2> d;
    std::array<double, n1> s;

    [[gnu::always_inline]] static LanePack
    load(const double *src)
    {
        LanePack p;
        for (size_t i = 0; i < n4; ++i)
            std::memcpy(&p.q[i], src + 4 * i, sizeof(Vec4));
        for (size_t i = 0; i < n2; ++i)
            std::memcpy(&p.d[i], src + 4 * n4 + 2 * i, sizeof(Vec2));
        for (size_t i = 0; i < n1; ++i)
            p.s[i] = src[4 * n4 + 2 * n2 + i];
        return p;
    }

    /** Lanes src[0], src[stride], ..., src[(W - 1) * stride]. */
    [[gnu::always_inline]] static LanePack
    gather(const double *src, size_t stride)
    {
        double lanes[W];
        for (size_t k = 0; k < W; ++k)
            lanes[k] = src[k * stride];
        return load(lanes);
    }

    [[gnu::always_inline]] static LanePack
    splat(double x)
    {
        LanePack p;
        for (size_t i = 0; i < n4; ++i)
            p.q[i] = Vec4{x, x, x, x};
        for (size_t i = 0; i < n2; ++i)
            p.d[i] = Vec2{x, x};
        for (size_t i = 0; i < n1; ++i)
            p.s[i] = x;
        return p;
    }

    [[gnu::always_inline]] void
    store(double *dst) const
    {
        for (size_t i = 0; i < n4; ++i)
            std::memcpy(dst + 4 * i, &q[i], sizeof(Vec4));
        for (size_t i = 0; i < n2; ++i)
            std::memcpy(dst + 4 * n4 + 2 * i, &d[i], sizeof(Vec2));
        for (size_t i = 0; i < n1; ++i)
            dst[4 * n4 + 2 * n2 + i] = s[i];
    }
};

// Elementwise arithmetic, one definition per operator over the three
// parts of a pack.
#define VN_LANEPACK_BINARY(op)                                             \
    template <size_t W, bool Wide>                                         \
    [[gnu::always_inline]] inline LanePack<W, Wide> operator op(           \
        const LanePack<W, Wide> &a, const LanePack<W, Wide> &b)            \
    {                                                                      \
        LanePack<W, Wide> r;                                               \
        for (size_t i = 0; i < r.n4; ++i)                                  \
            r.q[i] = a.q[i] op b.q[i];                                     \
        for (size_t i = 0; i < r.n2; ++i)                                  \
            r.d[i] = a.d[i] op b.d[i];                                     \
        for (size_t i = 0; i < r.n1; ++i)                                  \
            r.s[i] = a.s[i] op b.s[i];                                     \
        return r;                                                          \
    }
VN_LANEPACK_BINARY(+)
VN_LANEPACK_BINARY(-)
VN_LANEPACK_BINARY(*)
VN_LANEPACK_BINARY(/)
#undef VN_LANEPACK_BINARY

template <size_t W, bool Wide>
[[gnu::always_inline]] inline LanePack<W, Wide>
operator-(const LanePack<W, Wide> &a)
{
    LanePack<W, Wide> r;
    for (size_t i = 0; i < r.n4; ++i)
        r.q[i] = -a.q[i];
    for (size_t i = 0; i < r.n2; ++i)
        r.d[i] = -a.d[i];
    for (size_t i = 0; i < r.n1; ++i)
        r.s[i] = -a.s[i];
    return r;
}

/**
 * Lane by lane, std::min(m, x): (x < m) ? x : m, in that operand
 * order, so a signed zero or a NaN picks the lane std::min picks.
 */
template <size_t W, bool Wide>
[[gnu::always_inline]] inline LanePack<W, Wide>
lanesMin(const LanePack<W, Wide> &m, const LanePack<W, Wide> &x)
{
    LanePack<W, Wide> r;
    for (size_t i = 0; i < r.n4; ++i)
        r.q[i] = x.q[i] < m.q[i] ? x.q[i] : m.q[i];
    for (size_t i = 0; i < r.n2; ++i)
        r.d[i] = x.d[i] < m.d[i] ? x.d[i] : m.d[i];
    for (size_t i = 0; i < r.n1; ++i)
        r.s[i] = x.s[i] < m.s[i] ? x.s[i] : m.s[i];
    return r;
}

/** Lane by lane, std::max(m, x): (m < x) ? x : m. */
template <size_t W, bool Wide>
[[gnu::always_inline]] inline LanePack<W, Wide>
lanesMax(const LanePack<W, Wide> &m, const LanePack<W, Wide> &x)
{
    LanePack<W, Wide> r;
    for (size_t i = 0; i < r.n4; ++i)
        r.q[i] = m.q[i] < x.q[i] ? x.q[i] : m.q[i];
    for (size_t i = 0; i < r.n2; ++i)
        r.d[i] = m.d[i] < x.d[i] ? x.d[i] : m.d[i];
    for (size_t i = 0; i < r.n1; ++i)
        r.s[i] = m.s[i] < x.s[i] ? x.s[i] : m.s[i];
    return r;
}

/** Lane by lane, std::fabs: the sign bit cleared, nothing else. */
template <size_t W, bool Wide>
[[gnu::always_inline]] inline LanePack<W, Wide>
lanesAbs(const LanePack<W, Wide> &a)
{
    typedef int64_t Bits4 __attribute__((vector_size(32)));
    typedef int64_t Bits2 __attribute__((vector_size(16)));
    constexpr int64_t magnitude = INT64_MAX;
    LanePack<W, Wide> r;
    for (size_t i = 0; i < r.n4; ++i) {
        Bits4 bits;
        std::memcpy(&bits, &a.q[i], sizeof(bits));
        bits &= magnitude;
        std::memcpy(&r.q[i], &bits, sizeof(bits));
    }
    for (size_t i = 0; i < r.n2; ++i) {
        Bits2 bits;
        std::memcpy(&bits, &a.d[i], sizeof(bits));
        bits &= magnitude;
        std::memcpy(&r.d[i], &bits, sizeof(bits));
    }
    for (size_t i = 0; i < r.n1; ++i)
        r.s[i] = __builtin_fabs(a.s[i]);
    return r;
}

/**
 * The clones of one lane loop and the choice among them: the one place
 * that decides which code a batch of K lanes runs. `Body` is a class
 * with a public, always_inline static member template
 * `R run<W, Wide>(Args...)` whose lane loops take W lanes at a time as
 * one LanePack<W, Wide>; W = 0 means any lane count, which the body
 * walks itself. Sig is `R(Args...)`.
 *
 * generic<W> compiles the body for the build's target and avx2<W> for
 * avx2 (never fma); forCpu<W>() is the one this CPU runs.
 * forLanes(K) is the body for a batch of K lanes: the generic W = 1
 * body (plain scalar code) for one lane, forCpu<W>() for K = 2, 4 and
 * 8 (whole packs), and the generic W = 0 body for any other K.
 */
template <class Body, class Sig>
struct LaneClones;

template <class Body, class R, class... Args>
struct LaneClones<Body, R(Args...)>
{
    using Fn = R (*)(Args...);

    template <size_t W>
    static R
    generic(Args... args)
    {
        return Body::template run<W, false>(args...);
    }

#ifdef VN_LANES_AVX2
    template <size_t W>
    VN_TARGET_AVX2 static R
    avx2(Args... args)
    {
        return Body::template run<W, true>(args...);
    }
#endif

    template <size_t W>
    static Fn
    forCpu()
    {
#ifdef VN_LANES_AVX2
        if (haveAvx2())
            return &avx2<W>;
#endif
        return &generic<W>;
    }

    static Fn
    forLanes(size_t lanes)
    {
        switch (lanes) {
        case 1: return &generic<1>;
        case 2: return forCpu<2>();
        case 4: return forCpu<4>();
        case 8: return forCpu<8>();
        default: return &generic<0>;
        }
    }
};

/** Whether x < bound in any lane (a NaN lane never is). */
template <size_t W, bool Wide>
[[gnu::always_inline]] inline bool
anyBelow(const LanePack<W, Wide> &x, double bound)
{
    const LanePack<W, Wide> b = LanePack<W, Wide>::splat(bound);
    bool any = false;
    for (size_t i = 0; i < x.n4; ++i) {
        const auto below = x.q[i] < b.q[i];
        any |= (below[0] | below[1] | below[2] | below[3]) != 0;
    }
    for (size_t i = 0; i < x.n2; ++i) {
        const auto below = x.d[i] < b.d[i];
        any |= (below[0] | below[1]) != 0;
    }
    for (size_t i = 0; i < x.n1; ++i)
        any |= x.s[i] < bound;
    return any;
}

} // namespace vn::detail

#endif // VN_UTIL_LANEPACK_HH
