/**
 * @file
 * Shared, immutable per-(netlist, dt) solver state and the process-wide
 * cache that hands it out.
 *
 * The trapezoidal MNA system matrix depends only on the netlist content
 * and the time step. Before this layer existed every TransientSolver
 * construction re-stamped and re-factorized that matrix — once per
 * campaign *job*, thousands of times per campaign. A `Factorization`
 * computes it once and is then shared read-only: every field is set in
 * the constructor and never mutated (the DC operating-point system is
 * materialized lazily behind a std::once_flag, preserving the old
 * failure timing for netlists whose DC system is singular), so any
 * number of solver instances on any number of worker threads can hold
 * the same `shared_ptr<const Factorization>` without synchronization.
 *
 * `FactorizationCache` is the process-wide interning table keyed by the
 * FNV-1a hash of the netlist's *electrical content* (topology + element
 * values + port/source wiring; names excluded) and the exact dt bits.
 * Hash collisions are handled by full content comparison, never by
 * trusting the hash.
 */

#ifndef VN_CIRCUIT_FACTORIZATION_HH
#define VN_CIRCUIT_FACTORIZATION_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "circuit/netlist.hh"
#include "util/matrix.hh"

namespace vn
{

/**
 * FNV-1a hash of a netlist's electrical content: node count, element
 * endpoints and values, voltage sources and current ports, in
 * definition order. Node/element names do not participate — netlists
 * that stamp identical matrices share a hash (and may share a
 * Factorization).
 */
uint64_t netlistContentHash(const Netlist &netlist);

/**
 * True when the two netlists stamp identical MNA systems: same node
 * count and identical element/source/port lists (values compared by
 * bit pattern, names ignored).
 */
bool netlistContentEquals(const Netlist &a, const Netlist &b);

/**
 * Everything about a (netlist, dt) pair that is independent of the
 * stimulus: dimensions, companion-model conductances, the LU of the
 * trapezoidal system matrix, and (on demand) the LU of the DC
 * operating-point system. Immutable after construction; safe to share
 * across threads.
 */
class Factorization
{
  public:
    /**
     * Stamp and factorize the trapezoidal system for `netlist` at step
     * `dt`. The netlist is copied so the factorization owns its
     * lifetime (it outlives campaign jobs that share it).
     */
    Factorization(const Netlist &netlist, double dt);

    const Netlist &netlist() const { return netlist_; }
    double dt() const { return dt_; }

    /** Non-ground node count. */
    size_t numNodes() const { return num_nodes_; }
    size_t numVoltageSources() const { return num_vsrc_; }
    size_t numInductors() const { return num_ind_; }

    /** MNA system size: nodes + vsource branches + inductor branches. */
    size_t dim() const { return dim_; }

    /** LU of the trapezoidal system matrix. */
    const LuSolver<double> &transientLu() const { return lu_; }

    /**
     * LU of the DC operating-point system (capacitors open, inductors
     * as 0 V sources). Built on first use — netlists whose DC system
     * is singular only fail when a DC solve is actually requested,
     * exactly as before factorization sharing existed. Thread-safe.
     */
    const LuSolver<double> &dcLu() const;

    /**
     * The trapezoidal MNA system matrix transientLu() factorizes,
     * stamped afresh on each call.
     */
    Matrix<double> transientMatrix() const;

    /** The DC operating-point system matrix dcLu() factorizes. */
    Matrix<double> dcMatrix() const;

    /** Trapezoidal companion conductance 2C/dt per capacitor. */
    std::span<const double> capGeq() const { return cap_geq_; }

    /** Trapezoidal companion resistance 2L/dt per inductor. */
    std::span<const double> indReq() const { return ind_req_; }

  private:
    /** Stamp the transient system, or the DC one (`transient` off). */
    Matrix<double> systemMatrix(bool transient) const;

    Netlist netlist_;
    double dt_;

    size_t num_nodes_;
    size_t num_vsrc_;
    size_t num_ind_;
    size_t dim_;

    std::vector<double> cap_geq_;
    std::vector<double> ind_req_;

    LuSolver<double> lu_;

    mutable std::once_flag dc_once_;
    mutable LuSolver<double> dc_lu_;
};

/**
 * Process-wide interning cache of Factorizations keyed by (netlist
 * content hash, dt). A campaign of a thousand jobs over one chip
 * config performs one factorization; every job's solver construction
 * is a hash lookup returning the shared entry. All methods are
 * thread-safe.
 */
class FactorizationCache
{
  public:
    /** The process-wide instance every solver construction consults. */
    static FactorizationCache &global();

    /**
     * The shared factorization for (netlist, dt); builds and interns
     * it on first request. Entries whose hash collides are
     * distinguished by full content comparison.
     */
    std::shared_ptr<const Factorization> get(const Netlist &netlist,
                                             double dt);

    /** Lookups answered from the cache. */
    size_t hits() const;

    /** Lookups that had to factorize. */
    size_t misses() const;

    /** Distinct factorizations currently interned. */
    size_t size() const;

    /** Drop every entry (outstanding shared_ptrs stay valid). */
    void clear();

  private:
    struct Key
    {
        uint64_t content_hash;
        uint64_t dt_bits;
        bool operator==(const Key &o) const
        {
            return content_hash == o.content_hash && dt_bits == o.dt_bits;
        }
    };
    struct KeyHash
    {
        size_t operator()(const Key &k) const
        {
            return static_cast<size_t>(k.content_hash ^
                                       (k.dt_bits * 0x9e3779b97f4a7c15ull));
        }
    };

    mutable std::mutex mutex_;
    // Bucket lists absorb content-hash collisions.
    std::unordered_map<Key, std::vector<std::shared_ptr<const Factorization>>,
                       KeyHash>
        entries_;
    size_t hits_ = 0;
    size_t misses_ = 0;
};

} // namespace vn

#endif // VN_CIRCUIT_FACTORIZATION_HH
