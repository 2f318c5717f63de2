/**
 * @file
 * Lane-batched trapezoidal transient solver: K same-topology stimuli
 * advance together through one shared LU factorization.
 *
 * State vectors are stored structure-of-arrays — element (i, k) of
 * unknown/reactive-element i and lane k lives at index `i * lanes + k`
 * — so the innermost loop of every kernel (right-hand-side assembly,
 * forward/back substitution, companion-state update) runs over
 * contiguous lanes and vectorizes. Each non-zero factor entry is loaded
 * once per step and amortized over all K lanes, which is where the
 * order-of-magnitude campaign speedup comes from: a 1000-seed campaign
 * becomes ~1000/K substitution sweeps.
 *
 * Determinism contract: lane k executes *exactly* the scalar
 * TransientSolver operation sequence (same stamp order, the same
 * factor entries in the same order, no cross-lane arithmetic), so its
 * voltages, currents and reactive states are bit-identical to a scalar
 * solver fed the same stimulus. Both paths skip exactly the factor's
 * zero entries, which leaves them bit-identical to dense substitution
 * too unless a running sum is exactly -0.0 or a solution entry is not
 * finite (see LuSolver). tests/circuit/test_batched.cc enforces this
 * byte-for-byte; it is what lets lane-batched campaigns share cache
 * entries and wire responses with scalar runs.
 */

#ifndef VN_CIRCUIT_BATCHED_HH
#define VN_CIRCUIT_BATCHED_HH

#include <memory>
#include <span>
#include <vector>

#include "circuit/factorization.hh"
#include "circuit/netlist.hh"

namespace vn
{

/**
 * Trapezoidal-rule transient solver advancing K independent stimulus
 * lanes per step over one shared factorization.
 *
 * Port currents are passed lane-major: entry `lane * portCount() + p`
 * is lane `lane`'s current into port p, so each lane's producer fills
 * a contiguous slice. Voltage-source values are per-lane stimulus too,
 * passed the same way (entry `lane * S + s` for the netlist's S
 * sources); the system matrix holds no source value, so lanes at
 * different supplies still share one factorization. Omitting them
 * gives every lane the netlist's values.
 */
class BatchedTransientSolver
{
  public:
    /**
     * @param fact  shared factorization (from FactorizationCache or a
     *              scalar solver's factorization())
     * @param lanes number of stimulus lanes K (>= 1)
     */
    BatchedTransientSolver(std::shared_ptr<const Factorization> fact,
                           size_t lanes);

    /** Convenience: fetch the factorization from the global cache. */
    BatchedTransientSolver(const Netlist &netlist, double dt,
                           size_t lanes);

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
     * lane-major with lanes() * S entries. Resets time to zero.
     */
    void initDcOperatingPoint(std::span<const double> port_currents,
                              std::span<const double> source_volts = {});

    /**
     * Advance all lanes one time step. `port_currents` is lane-major
     * with lanes() * portCount() entries and `source_volts`, when
     * given, with lanes() * S entries; both are treated as constant
     * across the step.
     */
    void step(std::span<const double> port_currents,
              std::span<const double> source_volts = {});

    /** Voltage of `node` in `lane` at the current time. */
    double nodeVoltage(size_t lane, NodeId node) const;

    /** Branch current of inductor index i in `lane`. */
    double inductorCurrent(size_t lane, size_t i) const;

    /** Branch current of voltage source index i in `lane`. */
    double sourceCurrent(size_t lane, size_t i) const;

  private:
    void fillSourceVolts(std::span<const double> source_volts,
                         std::vector<double> &rhs) const;
    void fillPortCurrents(std::span<const double> port_currents,
                          std::vector<double> &rhs) const;
    void checkLane(size_t lane, const char *context) const;

    std::shared_ptr<const Factorization> fact_;
    size_t lanes_;
    double time_ = 0.0;

    // All SoA, [element * lanes_ + lane].
    std::vector<double> solution_;
    std::vector<double> cap_voltage_;
    std::vector<double> cap_current_;
    std::vector<double> ind_current_;
    std::vector<double> ind_voltage_;
    std::vector<double> rhs_;
};

} // namespace vn

#endif // VN_CIRCUIT_BATCHED_HH
