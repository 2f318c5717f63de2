/**
 * @file
 * Time-domain simulation of a Netlist via modified nodal analysis with
 * trapezoidal companion models, for K same-topology stimuli (lanes) at
 * once.
 *
 * The system matrix depends only on the netlist and the time step, so
 * it is LU-factorized once — in a shared `Factorization` interned by
 * the process-wide `FactorizationCache`, so a campaign of thousands of
 * jobs over one chip config factorizes once, not once per job. Each
 * step rebuilds the right-hand sides from the reactive-element state
 * and the externally supplied port currents and performs a single
 * forward/back substitution of all K lanes. This makes million-step
 * noise co-simulations cheap, and K lanes amortize the substitution
 * itself: each non-zero factor entry is loaded once per step for all
 * of them, so a 1000-seed campaign becomes ~1000/K substitution
 * sweeps. One lane is the default and the common case.
 *
 * State vectors are stored structure-of-arrays — element (i, k) of
 * unknown/reactive-element i and lane k lives at index `i * lanes + k`
 * — so the innermost loop of every kernel (right-hand-side assembly,
 * forward/back substitution, companion-state update) runs over
 * contiguous lanes. The step body is one template over the lane
 * width: at 2, 4 and 8 lanes it runs as whole vectors (LanePack,
 * util/lanepack.hh) in a runtime-dispatched AVX2 clone, at one lane as
 * scalars, and at any other width as a loop over single lanes. Its
 * lane loops have no branches: ground reads a zero row of the
 * solution and writes a sink row of the right-hand side that no
 * substitution reads. A grounded terminal's voltage is therefore
 * `x - 0.0`, which keeps every lane's bits those of the one-lane
 * reference (tests/circuit/test_batched.cc).
 *
 * Determinism contract: lanes never mix arithmetically, and every lane
 * executes the same operation sequence whatever the lane count (the
 * same stamp order, the same factor entries in the same order), so
 * lane k of a K-lane solver is bit-identical to a one-lane solver fed
 * lane k's stimulus. The substitution skips exactly the factor's zero
 * entries, which leaves it bit-identical to dense substitution too
 * unless a running sum is exactly -0.0 or a solution entry is not
 * finite (see LuSolver). tests/circuit/test_batched.cc enforces this
 * byte-for-byte; it is what lets lane-batched campaigns share cache
 * entries and wire responses with one-lane runs.
 *
 * Unknown ordering: node voltages (ground excluded), then voltage-source
 * branch currents, then inductor branch currents.
 */

#ifndef VN_CIRCUIT_TRANSIENT_HH
#define VN_CIRCUIT_TRANSIENT_HH

#include <memory>
#include <span>
#include <vector>

#include "circuit/factorization.hh"
#include "circuit/netlist.hh"

namespace vn
{

/**
 * Trapezoidal-rule transient solver over a fixed time step, advancing
 * K independent stimulus lanes per step over one shared factorization.
 *
 * Port currents are passed lane-major: entry `lane * portCount() + p`
 * is lane `lane`'s current into port p, so each lane's producer fills
 * a contiguous slice (with one lane, simply one entry per PortId).
 * Voltage-source values are per-lane stimulus too, passed the same way
 * (entry `lane * S + s` for the netlist's S sources); the system
 * matrix holds no source value, so lanes at different supplies still
 * share one factorization. Omitting them gives every lane the
 * netlist's values.
 */
class TransientSolver
{
  public:
    /**
     * Build the solver on a shared factorization (from
     * FactorizationCache, or one the campaign engine fetched once and
     * handed to every job).
     *
     * @param fact  shared factorization
     * @param lanes number of stimulus lanes K (>= 1)
     */
    explicit TransientSolver(std::shared_ptr<const Factorization> fact,
                             size_t lanes = 1);

    /**
     * Build the solver for a netlist at the given step size. The
     * factorization is fetched from (or added to) the process-wide
     * FactorizationCache, so constructing many solvers for the same
     * (netlist, dt) is cheap and they share one read-only LU.
     *
     * @param netlist network to simulate
     * @param dt      integration step in seconds (> 0)
     * @param lanes   number of stimulus lanes K (>= 1)
     */
    TransientSolver(const Netlist &netlist, double dt, size_t lanes = 1);

    /** Number of stimulus lanes K. */
    size_t lanes() const { return lanes_; }

    /** Ports per lane. */
    size_t portCount() const { return fact_->netlist().ports().size(); }

    /** Current simulation time in seconds (shared by all lanes). */
    double time() const { return time_; }

    /** Integration step. */
    double dt() const { return fact_->dt(); }

    /** The shared factorization this solver runs on. */
    const std::shared_ptr<const Factorization> &
    factorization() const
    {
        return fact_;
    }

    /**
     * Initialize every lane from its DC operating point (capacitors
     * open, inductors shorted). `port_currents` is lane-major with
     * lanes() * portCount() entries; `source_volts`, when given, is
     * lane-major with lanes() * S entries. Resets time to zero. Call
     * before the first step(); starting from an exact operating point
     * avoids a spurious start-up transient.
     */
    void initDcOperatingPoint(std::span<const double> port_currents,
                              std::span<const double> source_volts = {});

    /**
     * Advance all lanes one time step. `port_currents` (amperes) is
     * lane-major with lanes() * portCount() entries and `source_volts`,
     * when given, with lanes() * S entries; both are treated as
     * constant across the step.
     */
    void step(std::span<const double> port_currents,
              std::span<const double> source_volts = {});

    /** Voltage of `node` in `lane` at the current time. */
    double nodeVoltage(size_t lane, NodeId node) const;

    /** Branch current of inductor index i (netlist order) in `lane`. */
    double inductorCurrent(size_t lane, size_t i) const;

    /** Branch current of voltage source index i (netlist order) in `lane`. */
    double sourceCurrent(size_t lane, size_t i) const;

    /** One-lane accessors: lane 0 of a one-lane solver (fatal on more). */
    double nodeVoltage(NodeId node) const;
    double inductorCurrent(size_t i) const;
    double sourceCurrent(size_t i) const;

    /**
     * The lanes() contiguous values of unknown `unknown` (see the
     * unknown ordering above: node n is unknown n - 1, voltage source i
     * is unknown numNodes() + i) at the current time, lane k at [k].
     * Unchecked: it serves loops that read a few unknowns of every lane
     * each step, which validate their indices once.
     */
    const double *
    solutionRow(size_t unknown) const
    {
        return solution_.data() + unknown * lanes_;
    }

  private:
    /** stepLanes() as a lane-width dispatch body (transient.cc). */
    struct StepBody;

    void checkLane(size_t lane, const char *context) const;
    void checkOneLane(const char *context) const;

    /**
     * Fatal unless `port_currents`, and `source_volts` when given, are
     * lane-major with lanes() entries per port or source. Returns the
     * source values to stamp: `source_volts`, or the netlist's.
     */
    const double *checkStimulus(std::span<const double> port_currents,
                                std::span<const double> source_volts) const;

    // The step body, one template over the lane width: W lanes at a
    // time as one LanePack<W, Wide> (util/lanepack.hh), or lanes()
    // lanes one at a time when W is 0. Defined in transient.cc.
    template <size_t W, bool Wide>
    void stampSources(const double *source_volts);
    template <size_t W, bool Wide>
    void stampPorts(const double *port_currents);
    template <size_t W, bool Wide>
    void stepLanes(const double *port_currents, const double *source_volts);

    std::shared_ptr<const Factorization> fact_;
    size_t lanes_;
    double time_ = 0.0;

    // The right-hand-side and solution row of each capacitor's,
    // inductor's and port's two terminals, (a, b) or (from, to): node
    // n is row n - 1, and ground is row dim(), the zero row of
    // `solution_` and the sink row of `rhs_`.
    std::vector<size_t> cap_rows_;
    std::vector<size_t> ind_rows_;
    std::vector<size_t> port_rows_;

    /** The netlist's source values, lane-major, for steps given none. */
    std::vector<double> netlist_volts_;

    // All SoA, [element * lanes_ + lane]. `solution_` holds the latest
    // step's node voltages, vsource branch currents and inductor
    // branch currents, then the zero row; the reactive-element state is
    // carried between steps; `rhs_` is scratch, then the sink row.
    std::vector<double> solution_;
    std::vector<double> cap_voltage_;
    std::vector<double> cap_current_;
    std::vector<double> ind_current_;
    std::vector<double> ind_voltage_;
    std::vector<double> rhs_;
};

/** Another name for TransientSolver, used by code that drives it with
 *  many lanes (bench/vnbench among it). */
using BatchedTransientSolver = TransientSolver;

} // namespace vn

#endif // VN_CIRCUIT_TRANSIENT_HH
