#include "circuit/transient.hh"

#include <algorithm>

#include "util/logging.hh"

namespace vn
{

namespace
{

/** Index of a node in the unknown vector, or -1 for ground. */
inline int
nodeIndex(NodeId node)
{
    return node - 1;
}

/**
 * Write the lane-major `source_volts` (or, when empty, the netlist's
 * values) into the SoA voltage-source rows of `rhs`.
 */
[[gnu::always_inline]] inline void
fillSourceVolts(const Factorization &fact,
                std::span<const double> source_volts, size_t lanes,
                double *rhs)
{
    const auto &sources = fact.netlist().voltageSources();
    const size_t num_vsrc = sources.size();
    if (!source_volts.empty() && source_volts.size() != num_vsrc * lanes)
        fatal("TransientSolver: expected ", num_vsrc, " x ", lanes,
              " lane-major source values, got ", source_volts.size());
    for (size_t s = 0; s < num_vsrc; ++s) {
        double *row = rhs + (fact.numNodes() + s) * lanes;
        if (source_volts.empty()) {
            std::fill_n(row, lanes, sources[s].volts);
            continue;
        }
        for (size_t k = 0; k < lanes; ++k)
            row[k] = source_volts[k * num_vsrc + s];
    }
}

/** Add the lane-major `port_currents` into the SoA node rows of `rhs`. */
[[gnu::always_inline]] inline void
fillPortCurrents(const Factorization &fact,
                 std::span<const double> port_currents, size_t lanes,
                 double *rhs)
{
    const auto &ports = fact.netlist().ports();
    const size_t num_ports = ports.size();
    if (port_currents.size() != num_ports * lanes)
        fatal("TransientSolver: expected ", num_ports, " x ", lanes,
              " lane-major port currents, got ", port_currents.size());
    // Ports in netlist order, -= into `from`, += into `to`.
    for (size_t p = 0; p < num_ports; ++p) {
        int ifrom = nodeIndex(ports[p].from);
        int ito = nodeIndex(ports[p].to);
        double *rhs_from =
            ifrom >= 0 ? rhs + static_cast<size_t>(ifrom) * lanes : nullptr;
        double *rhs_to =
            ito >= 0 ? rhs + static_cast<size_t>(ito) * lanes : nullptr;
        for (size_t k = 0; k < lanes; ++k) {
            double current = port_currents[k * num_ports + p];
            if (rhs_from != nullptr)
                rhs_from[k] -= current;
            if (rhs_to != nullptr)
                rhs_to[k] += current;
        }
    }
}

} // namespace

TransientSolver::TransientSolver(std::shared_ptr<const Factorization> fact,
                                 size_t lanes)
    : fact_(std::move(fact)), lanes_(lanes)
{
    if (!fact_)
        fatal("TransientSolver: null factorization");
    if (lanes_ == 0)
        fatal("TransientSolver: lanes must be >= 1");

    const size_t caps = fact_->netlist().capacitors().size();
    cap_voltage_.assign(caps * lanes_, 0.0);
    cap_current_.assign(caps * lanes_, 0.0);
    ind_current_.assign(fact_->numInductors() * lanes_, 0.0);
    ind_voltage_.assign(fact_->numInductors() * lanes_, 0.0);
    solution_.assign(fact_->dim() * lanes_, 0.0);
    rhs_.assign(fact_->dim() * lanes_, 0.0);
}

TransientSolver::TransientSolver(const Netlist &netlist, double dt,
                                 size_t lanes)
    : TransientSolver(FactorizationCache::global().get(netlist, dt), lanes)
{
}

void
TransientSolver::checkLane(size_t lane, const char *context) const
{
    if (lane >= lanes_)
        fatal("TransientSolver::", context, "(): bad lane ", lane,
              " (have ", lanes_, ")");
}

void
TransientSolver::initDcOperatingPoint(
    std::span<const double> port_currents,
    std::span<const double> source_volts)
{
    const Netlist &netlist = fact_->netlist();
    const size_t num_nodes = fact_->numNodes();
    const size_t num_vsrc = fact_->numVoltageSources();
    const size_t num_ind = fact_->numInductors();

    std::vector<double> rhs(fact_->dim() * lanes_, 0.0);
    fillSourceVolts(*fact_, source_volts, lanes_, rhs.data());
    fillPortCurrents(*fact_, port_currents, lanes_, rhs.data());

    fact_->dcLu().solveLanesInto(rhs, lanes_, solution_);
    time_ = 0.0;

    auto node_row = [&](NodeId n) -> const double * {
        int idx = nodeIndex(n);
        return idx >= 0 ? &solution_[static_cast<size_t>(idx) * lanes_]
                        : nullptr;
    };

    for (size_t i = 0; i < netlist.capacitors().size(); ++i) {
        const auto &c = netlist.capacitors()[i];
        const double *va = node_row(c.a);
        const double *vb = node_row(c.b);
        double *cv = &cap_voltage_[i * lanes_];
        double *cc = &cap_current_[i * lanes_];
        for (size_t k = 0; k < lanes_; ++k) {
            cv[k] = (va != nullptr ? va[k] : 0.0) -
                    (vb != nullptr ? vb[k] : 0.0);
            cc[k] = 0.0;
        }
    }
    for (size_t m = 0; m < num_ind; ++m) {
        const double *branch = &solution_[(num_nodes + num_vsrc + m) *
                                          lanes_];
        double *ic = &ind_current_[m * lanes_];
        double *iv = &ind_voltage_[m * lanes_];
        for (size_t k = 0; k < lanes_; ++k) {
            ic[k] = branch[k];
            iv[k] = 0.0;
        }
    }
}

template <size_t FixedLanes>
void
TransientSolver::advance(std::span<const double> port_currents,
                         std::span<const double> source_volts)
{
    const size_t lanes = FixedLanes != 0 ? FixedLanes : lanes_;
    const Netlist &netlist = fact_->netlist();
    const size_t num_nodes = fact_->numNodes();
    const size_t num_vsrc = fact_->numVoltageSources();
    const size_t num_ind = fact_->numInductors();
    const std::span<const double> cap_geq = fact_->capGeq();
    const std::span<const double> ind_req = fact_->indReq();

    std::fill(rhs_.begin(), rhs_.end(), 0.0);

    // Capacitor companions: conductance Geq already in the matrix; the
    // history term injects Ieq = Geq*v_n + i_n from b into a.
    const auto &caps = netlist.capacitors();
    for (size_t i = 0; i < caps.size(); ++i) {
        const double geq = cap_geq[i];
        const double *cv = &cap_voltage_[i * lanes];
        const double *cc = &cap_current_[i * lanes];
        int ia = nodeIndex(caps[i].a);
        int ib = nodeIndex(caps[i].b);
        double *rhs_a =
            ia >= 0 ? &rhs_[static_cast<size_t>(ia) * lanes] : nullptr;
        double *rhs_b =
            ib >= 0 ? &rhs_[static_cast<size_t>(ib) * lanes] : nullptr;
        for (size_t k = 0; k < lanes; ++k) {
            double ieq = geq * cv[k] + cc[k];
            if (rhs_a != nullptr)
                rhs_a[k] += ieq;
            if (rhs_b != nullptr)
                rhs_b[k] -= ieq;
        }
    }

    fillSourceVolts(*fact_, source_volts, lanes, rhs_.data());

    // Inductor companions: v_a - v_b - Req*i_{n+1} = -(Req*i_n + v_n).
    for (size_t m = 0; m < num_ind; ++m) {
        const double req = ind_req[m];
        const double *ic = &ind_current_[m * lanes];
        const double *iv = &ind_voltage_[m * lanes];
        double *row = &rhs_[(num_nodes + num_vsrc + m) * lanes];
        for (size_t k = 0; k < lanes; ++k)
            row[k] = -(req * ic[k] + iv[k]);
    }

    fillPortCurrents(*fact_, port_currents, lanes, rhs_.data());

    fact_->transientLu().solveLanesInto(rhs_, lanes, solution_);
    time_ += fact_->dt();

    auto node_row = [&](NodeId n) -> const double * {
        int idx = nodeIndex(n);
        return idx >= 0 ? &solution_[static_cast<size_t>(idx) * lanes]
                        : nullptr;
    };

    for (size_t i = 0; i < caps.size(); ++i) {
        const double geq = cap_geq[i];
        const double *va = node_row(caps[i].a);
        const double *vb = node_row(caps[i].b);
        double *cv = &cap_voltage_[i * lanes];
        double *cc = &cap_current_[i * lanes];
        for (size_t k = 0; k < lanes; ++k) {
            double v_new = (va != nullptr ? va[k] : 0.0) -
                           (vb != nullptr ? vb[k] : 0.0);
            double ieq = geq * cv[k] + cc[k];
            cc[k] = geq * v_new - ieq;
            cv[k] = v_new;
        }
    }
    for (size_t m = 0; m < num_ind; ++m) {
        const auto &l = netlist.inductors()[m];
        const double *branch = &solution_[(num_nodes + num_vsrc + m) *
                                          lanes];
        const double *va = node_row(l.a);
        const double *vb = node_row(l.b);
        double *ic = &ind_current_[m * lanes];
        double *iv = &ind_voltage_[m * lanes];
        for (size_t k = 0; k < lanes; ++k) {
            ic[k] = branch[k];
            iv[k] = (va != nullptr ? va[k] : 0.0) -
                    (vb != nullptr ? vb[k] : 0.0);
        }
    }
}

void
TransientSolver::step(std::span<const double> port_currents,
                      std::span<const double> source_volts)
{
    // One step body for every lane count. A one-lane solver runs it
    // with the count as a compile-time constant, as the substitution
    // kernel does for a batch of one chunk, so each of advance()'s lane
    // loops is straight-line code instead of a loop of one trip.
    if (lanes_ == 1)
        advance<1>(port_currents, source_volts);
    else
        advance<0>(port_currents, source_volts);
}

void
TransientSolver::checkOneLane(const char *context) const
{
    if (lanes_ != 1)
        fatal("TransientSolver::", context, "(): one-lane accessor on ",
              lanes_, " lanes");
}

double
TransientSolver::nodeVoltage(size_t lane, NodeId node) const
{
    checkLane(lane, "nodeVoltage");
    if (node == Netlist::ground)
        return 0.0;
    int idx = nodeIndex(node);
    if (idx < 0 || static_cast<size_t>(idx) >= fact_->numNodes())
        fatal("TransientSolver::nodeVoltage(): bad node ", node);
    return solution_[static_cast<size_t>(idx) * lanes_ + lane];
}

double
TransientSolver::inductorCurrent(size_t lane, size_t i) const
{
    checkLane(lane, "inductorCurrent");
    if (i >= fact_->numInductors())
        fatal("TransientSolver::inductorCurrent(): bad index ", i);
    return ind_current_[i * lanes_ + lane];
}

double
TransientSolver::sourceCurrent(size_t lane, size_t i) const
{
    checkLane(lane, "sourceCurrent");
    if (i >= fact_->numVoltageSources())
        fatal("TransientSolver::sourceCurrent(): bad index ", i);
    return solution_[(fact_->numNodes() + i) * lanes_ + lane];
}

double
TransientSolver::nodeVoltage(NodeId node) const
{
    checkOneLane("nodeVoltage");
    return nodeVoltage(0, node);
}

double
TransientSolver::inductorCurrent(size_t i) const
{
    checkOneLane("inductorCurrent");
    return inductorCurrent(0, i);
}

double
TransientSolver::sourceCurrent(size_t i) const
{
    checkOneLane("sourceCurrent");
    return sourceCurrent(0, i);
}

} // namespace vn
