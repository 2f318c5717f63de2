#include "circuit/factorization.hh"

#include <bit>
#include <cmath>

#include "runtime/hash.hh"
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

inline uint64_t
doubleBits(double v)
{
    return std::bit_cast<uint64_t>(v);
}

} // namespace

uint64_t
netlistContentHash(const Netlist &netlist)
{
    using runtime::fnv1aAppend;
    using runtime::kFnvOffset;

    uint64_t h = fnv1aAppend(kFnvOffset, "netlist-v1");
    h = fnv1aAppend(h, static_cast<uint64_t>(netlist.nodeCount()));
    h = fnv1aAppend(h, "R");
    for (const auto &r : netlist.resistors()) {
        h = fnv1aAppend(h, static_cast<uint64_t>(r.a));
        h = fnv1aAppend(h, static_cast<uint64_t>(r.b));
        h = fnv1aAppend(h, doubleBits(r.ohms));
    }
    h = fnv1aAppend(h, "L");
    for (const auto &l : netlist.inductors()) {
        h = fnv1aAppend(h, static_cast<uint64_t>(l.a));
        h = fnv1aAppend(h, static_cast<uint64_t>(l.b));
        h = fnv1aAppend(h, doubleBits(l.henries));
    }
    h = fnv1aAppend(h, "C");
    for (const auto &c : netlist.capacitors()) {
        h = fnv1aAppend(h, static_cast<uint64_t>(c.a));
        h = fnv1aAppend(h, static_cast<uint64_t>(c.b));
        h = fnv1aAppend(h, doubleBits(c.farads));
    }
    h = fnv1aAppend(h, "V");
    for (const auto &v : netlist.voltageSources()) {
        h = fnv1aAppend(h, static_cast<uint64_t>(v.pos));
        h = fnv1aAppend(h, static_cast<uint64_t>(v.neg));
        h = fnv1aAppend(h, doubleBits(v.volts));
    }
    h = fnv1aAppend(h, "P");
    for (const auto &p : netlist.ports()) {
        h = fnv1aAppend(h, static_cast<uint64_t>(p.from));
        h = fnv1aAppend(h, static_cast<uint64_t>(p.to));
    }
    return h;
}

bool
netlistContentEquals(const Netlist &a, const Netlist &b)
{
    if (a.nodeCount() != b.nodeCount() ||
        a.resistors().size() != b.resistors().size() ||
        a.inductors().size() != b.inductors().size() ||
        a.capacitors().size() != b.capacitors().size() ||
        a.voltageSources().size() != b.voltageSources().size() ||
        a.ports().size() != b.ports().size()) {
        return false;
    }
    for (size_t i = 0; i < a.resistors().size(); ++i) {
        const auto &x = a.resistors()[i];
        const auto &y = b.resistors()[i];
        if (x.a != y.a || x.b != y.b ||
            doubleBits(x.ohms) != doubleBits(y.ohms))
            return false;
    }
    for (size_t i = 0; i < a.inductors().size(); ++i) {
        const auto &x = a.inductors()[i];
        const auto &y = b.inductors()[i];
        if (x.a != y.a || x.b != y.b ||
            doubleBits(x.henries) != doubleBits(y.henries))
            return false;
    }
    for (size_t i = 0; i < a.capacitors().size(); ++i) {
        const auto &x = a.capacitors()[i];
        const auto &y = b.capacitors()[i];
        if (x.a != y.a || x.b != y.b ||
            doubleBits(x.farads) != doubleBits(y.farads))
            return false;
    }
    for (size_t i = 0; i < a.voltageSources().size(); ++i) {
        const auto &x = a.voltageSources()[i];
        const auto &y = b.voltageSources()[i];
        if (x.pos != y.pos || x.neg != y.neg ||
            doubleBits(x.volts) != doubleBits(y.volts))
            return false;
    }
    for (size_t i = 0; i < a.ports().size(); ++i) {
        const auto &x = a.ports()[i];
        const auto &y = b.ports()[i];
        if (x.from != y.from || x.to != y.to)
            return false;
    }
    return true;
}

Factorization::Factorization(const Netlist &netlist, double dt)
    : netlist_(netlist), dt_(dt)
{
    if (!(dt > 0.0) || !std::isfinite(dt))
        fatal("Factorization: dt must be finite and > 0, got ", dt);

    num_nodes_ = netlist_.nodeCount() - 1;
    num_vsrc_ = netlist_.voltageSources().size();
    num_ind_ = netlist_.inductors().size();
    dim_ = num_nodes_ + num_vsrc_ + num_ind_;
    if (dim_ == 0)
        fatal("Factorization: empty netlist");

    cap_geq_.reserve(netlist_.capacitors().size());
    for (const auto &c : netlist_.capacitors())
        cap_geq_.push_back(2.0 * c.farads / dt_);
    ind_req_.reserve(num_ind_);
    for (const auto &l : netlist_.inductors())
        ind_req_.push_back(2.0 * l.henries / dt_);

    lu_.factorize(transientMatrix());
}

Matrix<double>
Factorization::systemMatrix(bool transient) const
{
    // Stamping order is fixed (resistors, capacitors, sources,
    // inductors), so each element sums its contributions in the same
    // order on every call.
    Matrix<double> a(dim_, dim_);

    auto stamp_conductance = [&](NodeId na, NodeId nb, double g) {
        int ia = nodeIndex(na);
        int ib = nodeIndex(nb);
        if (ia >= 0)
            a(ia, ia) += g;
        if (ib >= 0)
            a(ib, ib) += g;
        if (ia >= 0 && ib >= 0) {
            a(ia, ib) -= g;
            a(ib, ia) -= g;
        }
    };

    for (const auto &r : netlist_.resistors())
        stamp_conductance(r.a, r.b, 1.0 / r.ohms);

    // Capacitors are open at DC.
    for (size_t i = 0; transient && i < netlist_.capacitors().size(); ++i) {
        const auto &c = netlist_.capacitors()[i];
        stamp_conductance(c.a, c.b, cap_geq_[i]);
    }

    for (size_t s = 0; s < num_vsrc_; ++s) {
        const auto &v = netlist_.voltageSources()[s];
        size_t row = num_nodes_ + s;
        int ip = nodeIndex(v.pos);
        int in = nodeIndex(v.neg);
        if (ip >= 0) {
            a(row, ip) += 1.0;
            a(ip, row) += 1.0;
        }
        if (in >= 0) {
            a(row, in) -= 1.0;
            a(in, row) -= 1.0;
        }
    }

    // Inductor branches keep their current unknowns at DC too, where
    // they act as 0 V sources.
    for (size_t m = 0; m < num_ind_; ++m) {
        const auto &l = netlist_.inductors()[m];
        size_t row = num_nodes_ + num_vsrc_ + m;
        int ia = nodeIndex(l.a);
        int ib = nodeIndex(l.b);
        // Branch voltage relation: v_a - v_b - Req * i = -Veq.
        if (ia >= 0) {
            a(row, ia) += 1.0;
            a(ia, row) += 1.0; // branch current leaves node a
        }
        if (ib >= 0) {
            a(row, ib) -= 1.0;
            a(ib, row) -= 1.0;
        }
        if (transient)
            a(row, row) -= ind_req_[m];
    }
    return a;
}

Matrix<double>
Factorization::transientMatrix() const
{
    return systemMatrix(true);
}

Matrix<double>
Factorization::dcMatrix() const
{
    return systemMatrix(false);
}

const LuSolver<double> &
Factorization::dcLu() const
{
    std::call_once(dc_once_, [this] { dc_lu_.factorize(dcMatrix()); });
    return dc_lu_;
}

FactorizationCache &
FactorizationCache::global()
{
    static FactorizationCache cache;
    return cache;
}

std::shared_ptr<const Factorization>
FactorizationCache::get(const Netlist &netlist, double dt)
{
    if (!(dt > 0.0) || !std::isfinite(dt))
        fatal("FactorizationCache: dt must be finite and > 0, got ", dt);
    Key key{netlistContentHash(netlist), doubleBits(dt)};

    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            for (const auto &entry : it->second) {
                if (netlistContentEquals(entry->netlist(), netlist)) {
                    ++hits_;
                    return entry;
                }
            }
        }
    }

    // Factorize outside the lock; a racing duplicate build is benign
    // (first insert wins, the loser's work is discarded).
    auto built = std::make_shared<const Factorization>(netlist, dt);

    std::lock_guard<std::mutex> lock(mutex_);
    auto &bucket = entries_[key];
    for (const auto &entry : bucket) {
        if (netlistContentEquals(entry->netlist(), netlist)) {
            ++hits_;
            return entry;
        }
    }
    bucket.push_back(built);
    ++misses_;
    return built;
}

size_t
FactorizationCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

size_t
FactorizationCache::misses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

size_t
FactorizationCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t n = 0;
    for (const auto &[key, bucket] : entries_)
        n += bucket.size();
    return n;
}

void
FactorizationCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
}

} // namespace vn
