#include "circuit/batched.hh"

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

} // namespace

BatchedTransientSolver::BatchedTransientSolver(
    std::shared_ptr<const Factorization> fact, size_t lanes)
    : fact_(std::move(fact)), lanes_(lanes)
{
    if (!fact_)
        fatal("BatchedTransientSolver: null factorization");
    if (lanes_ == 0)
        fatal("BatchedTransientSolver: lanes must be >= 1");

    const size_t caps = fact_->netlist().capacitors().size();
    cap_voltage_.assign(caps * lanes_, 0.0);
    cap_current_.assign(caps * lanes_, 0.0);
    ind_current_.assign(fact_->numInductors() * lanes_, 0.0);
    ind_voltage_.assign(fact_->numInductors() * lanes_, 0.0);
    solution_.assign(fact_->dim() * lanes_, 0.0);
    rhs_.assign(fact_->dim() * lanes_, 0.0);
}

BatchedTransientSolver::BatchedTransientSolver(const Netlist &netlist,
                                               double dt, size_t lanes)
    : BatchedTransientSolver(FactorizationCache::global().get(netlist, dt),
                             lanes)
{
}

void
BatchedTransientSolver::checkLane(size_t lane, const char *context) const
{
    if (lane >= lanes_)
        fatal("BatchedTransientSolver::", context, "(): bad lane ", lane,
              " (have ", lanes_, ")");
}

void
BatchedTransientSolver::fillSourceVolts(
    std::span<const double> source_volts, std::vector<double> &rhs) const
{
    const auto &sources = fact_->netlist().voltageSources();
    const size_t num_nodes = fact_->numNodes();
    const size_t num_vsrc = sources.size();
    if (!source_volts.empty() && source_volts.size() != num_vsrc * lanes_)
        fatal("BatchedTransientSolver: expected ", num_vsrc, " x ", lanes_,
              " lane-major source values, got ", source_volts.size());
    for (size_t s = 0; s < num_vsrc; ++s) {
        double *row = &rhs[(num_nodes + s) * lanes_];
        if (source_volts.empty()) {
            std::fill_n(row, lanes_, sources[s].volts);
            continue;
        }
        for (size_t k = 0; k < lanes_; ++k)
            row[k] = source_volts[k * num_vsrc + s];
    }
}

void
BatchedTransientSolver::fillPortCurrents(
    std::span<const double> port_currents, std::vector<double> &rhs) const
{
    const Netlist &netlist = fact_->netlist();
    const size_t num_ports = netlist.ports().size();
    if (port_currents.size() != num_ports * lanes_)
        fatal("BatchedTransientSolver: expected ", num_ports, " x ",
              lanes_, " lane-major port currents, got ",
              port_currents.size());
    // Same per-lane operation order as the scalar solver: ports in
    // netlist order, -= into `from`, += into `to`.
    for (size_t p = 0; p < num_ports; ++p) {
        const auto &port = netlist.ports()[p];
        int ifrom = nodeIndex(port.from);
        int ito = nodeIndex(port.to);
        double *rhs_from =
            ifrom >= 0 ? &rhs[static_cast<size_t>(ifrom) * lanes_]
                       : nullptr;
        double *rhs_to =
            ito >= 0 ? &rhs[static_cast<size_t>(ito) * lanes_] : nullptr;
        for (size_t k = 0; k < lanes_; ++k) {
            double current = port_currents[k * num_ports + p];
            if (rhs_from != nullptr)
                rhs_from[k] -= current;
            if (rhs_to != nullptr)
                rhs_to[k] += current;
        }
    }
}

void
BatchedTransientSolver::initDcOperatingPoint(
    std::span<const double> port_currents,
    std::span<const double> source_volts)
{
    const Netlist &netlist = fact_->netlist();
    const size_t num_nodes = fact_->numNodes();
    const size_t num_vsrc = fact_->numVoltageSources();
    const size_t num_ind = fact_->numInductors();

    std::vector<double> rhs(fact_->dim() * lanes_, 0.0);
    fillSourceVolts(source_volts, rhs);
    fillPortCurrents(port_currents, rhs);

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

void
BatchedTransientSolver::step(std::span<const double> port_currents,
                             std::span<const double> source_volts)
{
    const Netlist &netlist = fact_->netlist();
    const size_t num_nodes = fact_->numNodes();
    const size_t num_vsrc = fact_->numVoltageSources();
    const size_t num_ind = fact_->numInductors();
    const std::span<const double> cap_geq = fact_->capGeq();
    const std::span<const double> ind_req = fact_->indReq();

    std::fill(rhs_.begin(), rhs_.end(), 0.0);

    // Capacitor companions, in capacitor order like the scalar solver:
    // Ieq = Geq*v_n + i_n injected from b into a.
    const auto &caps = netlist.capacitors();
    for (size_t i = 0; i < caps.size(); ++i) {
        const double geq = cap_geq[i];
        const double *cv = &cap_voltage_[i * lanes_];
        const double *cc = &cap_current_[i * lanes_];
        int ia = nodeIndex(caps[i].a);
        int ib = nodeIndex(caps[i].b);
        double *rhs_a =
            ia >= 0 ? &rhs_[static_cast<size_t>(ia) * lanes_] : nullptr;
        double *rhs_b =
            ib >= 0 ? &rhs_[static_cast<size_t>(ib) * lanes_] : nullptr;
        for (size_t k = 0; k < lanes_; ++k) {
            double ieq = geq * cv[k] + cc[k];
            if (rhs_a != nullptr)
                rhs_a[k] += ieq;
            if (rhs_b != nullptr)
                rhs_b[k] -= ieq;
        }
    }

    fillSourceVolts(source_volts, rhs_);

    // Inductor companions: v_a - v_b - Req*i_{n+1} = -(Req*i_n + v_n).
    for (size_t m = 0; m < num_ind; ++m) {
        const double req = ind_req[m];
        const double *ic = &ind_current_[m * lanes_];
        const double *iv = &ind_voltage_[m * lanes_];
        double *row = &rhs_[(num_nodes + num_vsrc + m) * lanes_];
        for (size_t k = 0; k < lanes_; ++k)
            row[k] = -(req * ic[k] + iv[k]);
    }

    fillPortCurrents(port_currents, rhs_);

    fact_->transientLu().solveLanesInto(rhs_, lanes_, solution_);
    time_ += fact_->dt();

    auto node_row = [&](NodeId n) -> const double * {
        int idx = nodeIndex(n);
        return idx >= 0 ? &solution_[static_cast<size_t>(idx) * lanes_]
                        : nullptr;
    };

    for (size_t i = 0; i < caps.size(); ++i) {
        const double geq = cap_geq[i];
        const double *va = node_row(caps[i].a);
        const double *vb = node_row(caps[i].b);
        double *cv = &cap_voltage_[i * lanes_];
        double *cc = &cap_current_[i * lanes_];
        for (size_t k = 0; k < lanes_; ++k) {
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
                                          lanes_];
        const double *va = node_row(l.a);
        const double *vb = node_row(l.b);
        double *ic = &ind_current_[m * lanes_];
        double *iv = &ind_voltage_[m * lanes_];
        for (size_t k = 0; k < lanes_; ++k) {
            ic[k] = branch[k];
            iv[k] = (va != nullptr ? va[k] : 0.0) -
                    (vb != nullptr ? vb[k] : 0.0);
        }
    }
}

double
BatchedTransientSolver::nodeVoltage(size_t lane, NodeId node) const
{
    checkLane(lane, "nodeVoltage");
    if (node == Netlist::ground)
        return 0.0;
    int idx = nodeIndex(node);
    if (idx < 0 || static_cast<size_t>(idx) >= fact_->numNodes())
        fatal("BatchedTransientSolver::nodeVoltage(): bad node ", node);
    return solution_[static_cast<size_t>(idx) * lanes_ + lane];
}

double
BatchedTransientSolver::inductorCurrent(size_t lane, size_t i) const
{
    checkLane(lane, "inductorCurrent");
    if (i >= fact_->numInductors())
        fatal("BatchedTransientSolver::inductorCurrent(): bad index ", i);
    return ind_current_[i * lanes_ + lane];
}

double
BatchedTransientSolver::sourceCurrent(size_t lane, size_t i) const
{
    checkLane(lane, "sourceCurrent");
    if (i >= fact_->numVoltageSources())
        fatal("BatchedTransientSolver::sourceCurrent(): bad index ", i);
    return solution_[(fact_->numNodes() + i) * lanes_ + lane];
}

} // namespace vn
