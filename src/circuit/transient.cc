#include "circuit/transient.hh"

#include <algorithm>

#include "util/lanepack.hh"
#include "util/logging.hh"

namespace vn
{

namespace
{

/** The row of a node's unknown, or `dim` (zero / sink row) for ground. */
size_t
terminalRow(NodeId node, size_t dim)
{
    return node == Netlist::ground ? dim : static_cast<size_t>(node - 1);
}

} // namespace

/** Write each source's lane-major value into its row of the rhs. */
template <size_t W, bool Wide>
[[gnu::always_inline]] inline void
TransientSolver::stampSources(const double *source_volts)
{
    using Pack = detail::LanePack<W == 0 ? 1 : W, Wide>;
    const size_t lanes = W != 0 ? W : lanes_;
    const size_t num_nodes = fact_->numNodes();
    const size_t num_vsrc = fact_->numVoltageSources();
    double *rhs = rhs_.data();
    for (size_t s = 0; s < num_vsrc; ++s) {
        double *row = rhs + (num_nodes + s) * lanes;
        for (size_t k = 0; k < lanes; k += Pack::width)
            Pack::gather(source_volts + k * num_vsrc + s, num_vsrc)
                .store(row + k);
    }
}

/** Ports in netlist order: -= into `from`, += into `to`. */
template <size_t W, bool Wide>
[[gnu::always_inline]] inline void
TransientSolver::stampPorts(const double *port_currents)
{
    using Pack = detail::LanePack<W == 0 ? 1 : W, Wide>;
    const size_t lanes = W != 0 ? W : lanes_;
    const size_t num_ports = port_rows_.size() / 2;
    const size_t *port_rows = port_rows_.data();
    double *rhs = rhs_.data();
    for (size_t p = 0; p < num_ports; ++p) {
        double *from = rhs + port_rows[2 * p] * lanes;
        double *to = rhs + port_rows[2 * p + 1] * lanes;
        for (size_t k = 0; k < lanes; k += Pack::width) {
            const Pack current = Pack::gather(
                port_currents + k * num_ports + p, num_ports);
            (Pack::load(from + k) - current).store(from + k);
            (Pack::load(to + k) + current).store(to + k);
        }
    }
}

/**
 * One trapezoidal step of every lane. Per lane this is the same
 * operation sequence at every W: the stamp order (capacitors, sources,
 * inductors, ports), the substitution, then the companion updates.
 */
template <size_t W, bool Wide>
[[gnu::always_inline]] inline void
TransientSolver::stepLanes(const double *port_currents,
                           const double *source_volts)
{
    using Pack = detail::LanePack<W == 0 ? 1 : W, Wide>;
    const size_t lanes = W != 0 ? W : lanes_;
    const Factorization &fact = *fact_;
    const size_t dim = fact.dim();
    const size_t num_nodes = fact.numNodes();
    const size_t num_vsrc = fact.numVoltageSources();
    const size_t num_caps = cap_rows_.size() / 2;
    const size_t num_ind = ind_rows_.size() / 2;
    const size_t *cap_rows = cap_rows_.data();
    const size_t *ind_rows = ind_rows_.data();
    const double *cap_geq = fact.capGeq().data();
    const double *ind_req = fact.indReq().data();
    double *rhs = rhs_.data();
    double *solution = solution_.data();
    double *cap_voltage = cap_voltage_.data();
    double *cap_current = cap_current_.data();
    double *ind_current = ind_current_.data();
    double *ind_voltage = ind_voltage_.data();

    // Node rows and the sink start from zero; source and inductor rows
    // are assigned whole below.
    std::fill_n(rhs, num_nodes * lanes, 0.0);
    std::fill_n(rhs + dim * lanes, lanes, 0.0);

    // Capacitor companions: conductance Geq already in the matrix; the
    // history term injects Ieq = Geq*v_n + i_n from b into a.
    for (size_t i = 0; i < num_caps; ++i) {
        const Pack geq = Pack::splat(cap_geq[i]);
        const double *cv = cap_voltage + i * lanes;
        const double *cc = cap_current + i * lanes;
        double *rhs_a = rhs + cap_rows[2 * i] * lanes;
        double *rhs_b = rhs + cap_rows[2 * i + 1] * lanes;
        for (size_t k = 0; k < lanes; k += Pack::width) {
            const Pack ieq = geq * Pack::load(cv + k) + Pack::load(cc + k);
            (Pack::load(rhs_a + k) + ieq).store(rhs_a + k);
            (Pack::load(rhs_b + k) - ieq).store(rhs_b + k);
        }
    }

    stampSources<W, Wide>(source_volts);

    // Inductor companions: v_a - v_b - Req*i_{n+1} = -(Req*i_n + v_n).
    for (size_t m = 0; m < num_ind; ++m) {
        const Pack req = Pack::splat(ind_req[m]);
        const double *ic = ind_current + m * lanes;
        const double *iv = ind_voltage + m * lanes;
        double *row = rhs + (num_nodes + num_vsrc + m) * lanes;
        for (size_t k = 0; k < lanes; k += Pack::width)
            (-(req * Pack::load(ic + k) + Pack::load(iv + k)))
                .store(row + k);
    }

    stampPorts<W, Wide>(port_currents);

    fact.transientLu().solveLanesInto({rhs, dim * lanes}, lanes,
                                      {solution, dim * lanes});

    for (size_t i = 0; i < num_caps; ++i) {
        const Pack geq = Pack::splat(cap_geq[i]);
        const double *va = solution + cap_rows[2 * i] * lanes;
        const double *vb = solution + cap_rows[2 * i + 1] * lanes;
        double *cv = cap_voltage + i * lanes;
        double *cc = cap_current + i * lanes;
        for (size_t k = 0; k < lanes; k += Pack::width) {
            const Pack v_new = Pack::load(va + k) - Pack::load(vb + k);
            const Pack ieq = geq * Pack::load(cv + k) + Pack::load(cc + k);
            (geq * v_new - ieq).store(cc + k);
            v_new.store(cv + k);
        }
    }
    for (size_t m = 0; m < num_ind; ++m) {
        const double *branch =
            solution + (num_nodes + num_vsrc + m) * lanes;
        const double *va = solution + ind_rows[2 * m] * lanes;
        const double *vb = solution + ind_rows[2 * m + 1] * lanes;
        double *ic = ind_current + m * lanes;
        double *iv = ind_voltage + m * lanes;
        for (size_t k = 0; k < lanes; k += Pack::width) {
            Pack::load(branch + k).store(ic + k);
            (Pack::load(va + k) - Pack::load(vb + k)).store(iv + k);
        }
    }
}

struct TransientSolver::StepBody
{
    template <size_t W, bool Wide>
    [[gnu::always_inline]] static void
    run(TransientSolver &solver, const double *port_currents,
        const double *source_volts)
    {
        solver.stepLanes<W, Wide>(port_currents, source_volts);
    }
};

TransientSolver::TransientSolver(std::shared_ptr<const Factorization> fact,
                                 size_t lanes)
    : fact_(std::move(fact)), lanes_(lanes)
{
    if (!fact_)
        fatal("TransientSolver: null factorization");
    if (lanes_ == 0)
        fatal("TransientSolver: lanes must be >= 1");

    const Netlist &netlist = fact_->netlist();
    const size_t dim = fact_->dim();
    for (const auto &c : netlist.capacitors()) {
        cap_rows_.push_back(terminalRow(c.a, dim));
        cap_rows_.push_back(terminalRow(c.b, dim));
    }
    for (const auto &l : netlist.inductors()) {
        ind_rows_.push_back(terminalRow(l.a, dim));
        ind_rows_.push_back(terminalRow(l.b, dim));
    }
    for (const auto &p : netlist.ports()) {
        port_rows_.push_back(terminalRow(p.from, dim));
        port_rows_.push_back(terminalRow(p.to, dim));
    }
    for (size_t k = 0; k < lanes_; ++k)
        for (const auto &source : netlist.voltageSources())
            netlist_volts_.push_back(source.volts);

    const size_t caps = netlist.capacitors().size();
    cap_voltage_.assign(caps * lanes_, 0.0);
    cap_current_.assign(caps * lanes_, 0.0);
    ind_current_.assign(fact_->numInductors() * lanes_, 0.0);
    ind_voltage_.assign(fact_->numInductors() * lanes_, 0.0);
    solution_.assign((dim + 1) * lanes_, 0.0);
    rhs_.assign((dim + 1) * lanes_, 0.0);
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

const double *
TransientSolver::checkStimulus(std::span<const double> port_currents,
                               std::span<const double> source_volts) const
{
    const size_t num_ports = portCount();
    const size_t num_vsrc = fact_->numVoltageSources();
    if (port_currents.size() != num_ports * lanes_)
        fatal("TransientSolver: expected ", num_ports, " x ", lanes_,
              " lane-major port currents, got ", port_currents.size());
    if (source_volts.empty())
        return netlist_volts_.data();
    if (source_volts.size() != num_vsrc * lanes_)
        fatal("TransientSolver: expected ", num_vsrc, " x ", lanes_,
              " lane-major source values, got ", source_volts.size());
    return source_volts.data();
}

void
TransientSolver::initDcOperatingPoint(
    std::span<const double> port_currents,
    std::span<const double> source_volts)
{
    const double *sources = checkStimulus(port_currents, source_volts);
    const size_t n = fact_->dim() * lanes_;

    std::fill_n(rhs_.data(), n, 0.0);
    stampSources<0, false>(sources);
    stampPorts<0, false>(port_currents.data());
    fact_->dcLu().solveLanesInto({rhs_.data(), n}, lanes_,
                                 {solution_.data(), n});
    time_ = 0.0;

    for (size_t i = 0; i < cap_rows_.size() / 2; ++i) {
        const double *va = &solution_[cap_rows_[2 * i] * lanes_];
        const double *vb = &solution_[cap_rows_[2 * i + 1] * lanes_];
        double *cv = &cap_voltage_[i * lanes_];
        double *cc = &cap_current_[i * lanes_];
        for (size_t k = 0; k < lanes_; ++k) {
            cv[k] = va[k] - vb[k];
            cc[k] = 0.0;
        }
    }
    const size_t first_branch =
        fact_->numNodes() + fact_->numVoltageSources();
    for (size_t m = 0; m < ind_rows_.size() / 2; ++m) {
        const double *branch = &solution_[(first_branch + m) * lanes_];
        std::copy_n(branch, lanes_, &ind_current_[m * lanes_]);
        std::fill_n(&ind_voltage_[m * lanes_], lanes_, 0.0);
    }
}

void
TransientSolver::step(std::span<const double> port_currents,
                      std::span<const double> source_volts)
{
    // One step body for every lane count; LaneClones picks the clone
    // and whether the count is a compile-time pack width.
    const double *sources = checkStimulus(port_currents, source_volts);
    using Clones = detail::LaneClones<
        StepBody, void(TransientSolver &, const double *, const double *)>;
    Clones::forLanes(lanes_)(*this, port_currents.data(), sources);
    time_ += fact_->dt();
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
    if (node < 0 || static_cast<size_t>(node) > fact_->numNodes())
        fatal("TransientSolver::nodeVoltage(): bad node ", node);
    return solution_[terminalRow(node, fact_->dim()) * lanes_ + lane];
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
