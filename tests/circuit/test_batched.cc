/**
 * @file
 * Lane-independence and sharing tests of the transient solver.
 *
 * The whole campaign-batching design rests on one claim: lanes never
 * mix, so lane k of a K-lane TransientSolver is byte-identical to a
 * one-lane solver fed lane k's stimulus, and results can share cache
 * entries whatever batch computed them. These tests enforce the claim
 * byte-for-byte (memcmp on doubles, never EXPECT_NEAR) over long
 * transients, on every netlist the chip model builds, with per-lane
 * source values, and at the ChipModel::runBatch and
 * ChipModel::scanFailures level.
 *
 * One lane and many share the solver, so what checks the arithmetic
 * itself is a test-local copy of dense substitution (every (i, j), no
 * skips) that LuSolver's sparse rows, one lane and many, must match:
 * SparseLuOracleTest. (tests/circuit/test_transient.cc checks the
 * solver against closed-form RC/RLC responses, and
 * test_crossvalidation.cc against the AC analysis.)
 *
 * FactorizationCacheTest.ConcurrentGetInternsOnePointer doubles as the
 * ThreadSanitizer target for the cache's locking (scripts/check.sh
 * runs it under the tsan preset).
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/scaling.hh"
#include "chip/chip.hh"
#include "circuit/factorization.hh"
#include "circuit/netlist.hh"
#include "circuit/transient.hh"
#include "measure/meter.hh"
#include "util/logging.hh"

namespace
{

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/** Deterministic per-lane stimulus, different for every (lane, port, step). */
double
stimulus(size_t lane, size_t port, uint64_t step)
{
    double base = 1.0 + 0.37 * static_cast<double>(lane) +
                  0.11 * static_cast<double>(port);
    // A square-ish wave with lane-dependent period keeps every lane on
    // a different trajectory.
    uint64_t period = 7 + 3 * lane + port;
    return (step / period) % 2 == 0 ? base : 0.25 * base;
}

/** RLC ladder with two ports, a vsource, and reactive state. */
vn::Netlist
makeLadder(double volts = 1.1)
{
    vn::Netlist net;
    vn::NodeId n1 = net.addNode("n1");
    vn::NodeId n2 = net.addNode("n2");
    vn::NodeId n3 = net.addNode("n3");
    net.addVoltageSource(n1, vn::Netlist::ground, volts);
    net.addResistor(n1, n2, 0.01);
    net.addInductor(n2, n3, 5e-9);
    net.addCapacitor(n2, vn::Netlist::ground, 1e-6);
    net.addCapacitor(n3, vn::Netlist::ground, 4e-6);
    net.addResistor(n3, vn::Netlist::ground, 50.0);
    net.addCurrentPort(n2, vn::Netlist::ground, "p2");
    net.addCurrentPort(n3, vn::Netlist::ground, "p3");
    return net;
}

/**
 * Drive `lanes` one-lane solvers and one `lanes`-lane solver with
 * identical per-lane stimuli for `steps` steps and require
 * byte-identical state at every observation point. With `lane_nets`
 * (one per lane, the same circuit as `net` up to voltage-source
 * values), one-lane solver k runs on lane_nets[k] and the batched
 * solver on `net` takes lane k's source values from it.
 */
void
expectLanesMatchScalar(const vn::Netlist &net, double dt, size_t lanes,
                       uint64_t steps,
                       const std::vector<vn::Netlist> &lane_nets = {})
{
    const size_t ports = net.ports().size();
    const bool own_sources = !lane_nets.empty();
    if (own_sources) {
        ASSERT_EQ(lane_nets.size(), lanes);
    }

    std::vector<vn::TransientSolver> scalar;
    scalar.reserve(lanes);
    for (size_t k = 0; k < lanes; ++k)
        scalar.emplace_back(own_sources ? lane_nets[k] : net, dt);
    vn::BatchedTransientSolver batched(net, dt, lanes);

    // Without per-lane sources all solvers share one interned
    // factorization.
    for (size_t k = 0; k < lanes && !own_sources; ++k)
        ASSERT_EQ(scalar[k].factorization().get(),
                  batched.factorization().get());

    std::vector<double> source_volts;
    for (size_t k = 0; k < lanes && own_sources; ++k)
        for (const auto &source : lane_nets[k].voltageSources())
            source_volts.push_back(source.volts);

    std::vector<double> lane_load(ports * lanes);
    std::vector<std::vector<double>> loads(lanes,
                                           std::vector<double>(ports));
    auto fill = [&](uint64_t step) {
        for (size_t k = 0; k < lanes; ++k) {
            for (size_t p = 0; p < ports; ++p) {
                loads[k][p] = stimulus(k, p, step);
                lane_load[k * ports + p] = loads[k][p];
            }
        }
    };

    fill(0);
    for (size_t k = 0; k < lanes; ++k)
        scalar[k].initDcOperatingPoint(loads[k]);
    batched.initDcOperatingPoint(lane_load, source_volts);

    auto check = [&](uint64_t step) {
        for (size_t k = 0; k < lanes; ++k) {
            for (vn::NodeId n = 1;
                 n < static_cast<vn::NodeId>(net.nodeCount()); ++n) {
                ASSERT_TRUE(sameBits(scalar[k].nodeVoltage(n),
                                     batched.nodeVoltage(k, n)))
                    << "lane " << k << " node " << n << " step " << step;
            }
            for (size_t i = 0; i < net.inductors().size(); ++i) {
                ASSERT_TRUE(sameBits(scalar[k].inductorCurrent(i),
                                     batched.inductorCurrent(k, i)))
                    << "lane " << k << " inductor " << i << " step "
                    << step;
            }
            for (size_t i = 0; i < net.voltageSources().size(); ++i) {
                ASSERT_TRUE(sameBits(scalar[k].sourceCurrent(i),
                                     batched.sourceCurrent(k, i)))
                    << "lane " << k << " vsource " << i << " step "
                    << step;
            }
        }
    };

    check(0);
    for (uint64_t s = 1; s <= steps; ++s) {
        fill(s);
        for (size_t k = 0; k < lanes; ++k)
            scalar[k].step(loads[k]);
        batched.step(lane_load, source_volts);
        if (s % 97 == 0 || s == steps)
            check(s);
    }
}

/**
 * Test-local copy of the dense LU the solver used before it kept only
 * the factor's non-zeros: the same pivoted elimination, then every
 * (i, j) entry in every substitution, no skips. The oracle the sparse
 * rows are checked against.
 */
class DenseLu
{
  public:
    explicit DenseLu(vn::Matrix<double> a)
        : n_(a.rows()), lu_(std::move(a)), perm_(n_)
    {
        for (size_t i = 0; i < n_; ++i)
            perm_[i] = i;
        for (size_t k = 0; k < n_; ++k) {
            size_t pivot = k;
            double best = std::fabs(lu_(k, k));
            for (size_t i = k + 1; i < n_; ++i) {
                double mag = std::fabs(lu_(i, k));
                if (mag > best) {
                    best = mag;
                    pivot = i;
                }
            }
            if (pivot != k) {
                for (size_t j = 0; j < n_; ++j)
                    std::swap(lu_(k, j), lu_(pivot, j));
                std::swap(perm_[k], perm_[pivot]);
            }
            for (size_t i = k + 1; i < n_; ++i) {
                double factor = lu_(i, k) / lu_(k, k);
                lu_(i, k) = factor;
                if (factor == 0.0)
                    continue;
                for (size_t j = k + 1; j < n_; ++j)
                    lu_(i, j) -= factor * lu_(k, j);
            }
        }
    }

    void
    solve(const std::vector<double> &b, std::vector<double> &x) const
    {
        x.resize(n_);
        for (size_t i = 0; i < n_; ++i) {
            double sum = b[perm_[i]];
            for (size_t j = 0; j < i; ++j)
                sum -= lu_(i, j) * x[j];
            x[i] = sum;
        }
        for (size_t ii = n_; ii-- > 0;) {
            double sum = x[ii];
            for (size_t j = ii + 1; j < n_; ++j)
                sum -= lu_(ii, j) * x[j];
            x[ii] = sum / lu_(ii, ii);
        }
    }

  private:
    size_t n_;
    vn::Matrix<double> lu_;
    std::vector<size_t> perm_;
};

/**
 * Stressmark-shaped port current: a high/low square wave near the
 * die resonance (lane- and port-dependent period and phase) with a
 * small ripple, so consecutive right-hand sides differ in every bit.
 */
double
stressCurrent(size_t lane, size_t port, uint64_t step, double dt)
{
    const double t = static_cast<double>(step) * dt;
    const double period = 400e-9 + 25e-9 * static_cast<double>(lane % 5);
    const double phase = 37e-9 * static_cast<double>(port + 3 * lane);
    const bool high = std::fmod(t + phase, period) < 0.5 * period;
    const double level = high ? 44.0 + 1.5 * static_cast<double>(port % 4)
                              : 17.0;
    return level + 0.25 * std::sin(0.37 * static_cast<double>(step) +
                                   static_cast<double>(lane + port));
}

/**
 * One lane of a test-local trapezoidal transient driven by the dense
 * oracle: it only has to produce realistic right-hand sides, step
 * after step.
 */
struct OracleLane
{
    std::vector<double> cap_v, cap_i, ind_i, ind_v, rhs, x;
};

/** Right-hand side of the DC system (sources and port currents). */
void
dcRhs(const vn::Factorization &f, std::span<const double> currents,
      std::vector<double> &rhs)
{
    const vn::Netlist &net = f.netlist();
    rhs.assign(f.dim(), 0.0);
    for (size_t s = 0; s < f.numVoltageSources(); ++s)
        rhs[f.numNodes() + s] = net.voltageSources()[s].volts;
    for (size_t p = 0; p < net.ports().size(); ++p) {
        const auto &port = net.ports()[p];
        if (port.from != vn::Netlist::ground)
            rhs[static_cast<size_t>(port.from - 1)] -= currents[p];
        if (port.to != vn::Netlist::ground)
            rhs[static_cast<size_t>(port.to - 1)] += currents[p];
    }
}

double
branchVolts(const std::vector<double> &x, vn::NodeId a, vn::NodeId b)
{
    auto v = [&](vn::NodeId n) {
        return n == vn::Netlist::ground ? 0.0
                                        : x[static_cast<size_t>(n - 1)];
    };
    return v(a) - v(b);
}

/** Trapezoidal right-hand side: DC terms plus companion histories. */
void
transientRhs(const vn::Factorization &f, std::span<const double> currents,
             OracleLane &lane)
{
    const vn::Netlist &net = f.netlist();
    dcRhs(f, currents, lane.rhs);
    for (size_t i = 0; i < net.capacitors().size(); ++i) {
        const auto &c = net.capacitors()[i];
        const double ieq = f.capGeq()[i] * lane.cap_v[i] + lane.cap_i[i];
        if (c.a != vn::Netlist::ground)
            lane.rhs[static_cast<size_t>(c.a - 1)] += ieq;
        if (c.b != vn::Netlist::ground)
            lane.rhs[static_cast<size_t>(c.b - 1)] -= ieq;
    }
    const size_t branch0 = f.numNodes() + f.numVoltageSources();
    for (size_t m = 0; m < f.numInductors(); ++m)
        lane.rhs[branch0 + m] =
            -(f.indReq()[m] * lane.ind_i[m] + lane.ind_v[m]);
}

/** Companion-state update from the step's solution. */
void
advanceState(const vn::Factorization &f, OracleLane &lane, bool from_dc)
{
    const vn::Netlist &net = f.netlist();
    lane.cap_v.resize(net.capacitors().size());
    lane.cap_i.resize(net.capacitors().size());
    lane.ind_i.resize(f.numInductors());
    lane.ind_v.resize(f.numInductors());
    for (size_t i = 0; i < net.capacitors().size(); ++i) {
        const auto &c = net.capacitors()[i];
        const double v_new = branchVolts(lane.x, c.a, c.b);
        const double ieq = f.capGeq()[i] * lane.cap_v[i] + lane.cap_i[i];
        lane.cap_i[i] = from_dc ? 0.0 : f.capGeq()[i] * v_new - ieq;
        lane.cap_v[i] = v_new;
    }
    const size_t branch0 = f.numNodes() + f.numVoltageSources();
    for (size_t m = 0; m < f.numInductors(); ++m) {
        const auto &l = net.inductors()[m];
        lane.ind_i[m] = lane.x[branch0 + m];
        lane.ind_v[m] = from_dc ? 0.0 : branchVolts(lane.x, l.a, l.b);
    }
}

/** Index of the first element whose bits differ, or -1. */
long
firstBitMismatch(const double *a, const double *b, size_t n,
                 size_t stride = 1)
{
    for (size_t i = 0; i < n; ++i)
        if (!sameBits(a[i], b[i * stride]))
            return static_cast<long>(i);
    return -1;
}

/**
 * Drive 17 stimulus lanes for `steps` steps through the transient (or
 * DC) system of `net` at `dt`. At every step, check byte-for-byte
 * that LuSolver's scalar solveInto() of each lane, and its
 * solveLanesInto() over the first K lanes, equal the dense oracle's
 * solution. The K cover every chunk shape of the lane kernel: one
 * lane, scalar lanes only (3), whole 4-lane vectors only (4, 8),
 * vectors plus scalar lanes (5, 7, 11), and several 8-lane chunks
 * with and without a remainder (12, 16, 17).
 */
void
expectSparseMatchesDense(const vn::Netlist &net, double dt, bool dc,
                         uint64_t steps)
{
    constexpr size_t kLanes = 17;
    const std::array<size_t, 10> lane_counts = {1, 3,  4,  5,  7,
                                                8, 11, 12, 16, 17};
    auto fact = vn::FactorizationCache::global().get(net, dt);
    const vn::Factorization &f = *fact;
    const vn::LuSolver<double> &lu = dc ? f.dcLu() : f.transientLu();
    const DenseLu dense(dc ? f.dcMatrix() : f.transientMatrix());
    const size_t n = f.dim();
    const size_t ports = net.ports().size();

    std::vector<OracleLane> lanes(kLanes);
    std::vector<double> currents(ports);
    auto fill_currents = [&](size_t k, uint64_t step) {
        for (size_t p = 0; p < ports; ++p)
            currents[p] = stressCurrent(k, p, step, dt);
    };
    // Start every lane at its DC operating point, as the solvers do.
    const DenseLu dense_dc(f.dcMatrix());
    for (size_t k = 0; k < kLanes; ++k) {
        fill_currents(k, 0);
        dcRhs(f, currents, lanes[k].rhs);
        dense_dc.solve(lanes[k].rhs, lanes[k].x);
        advanceState(f, lanes[k], true);
    }

    std::vector<double> sparse, soa_rhs, soa_x;
    for (uint64_t step = 1; step <= steps; ++step) {
        for (size_t k = 0; k < kLanes; ++k) {
            fill_currents(k, step);
            if (dc)
                dcRhs(f, currents, lanes[k].rhs);
            else
                transientRhs(f, currents, lanes[k]);
            dense.solve(lanes[k].rhs, lanes[k].x);
            lu.solveInto(lanes[k].rhs, sparse);
            ASSERT_EQ(firstBitMismatch(sparse.data(), lanes[k].x.data(), n),
                      -1)
                << "scalar, lane " << k << " step " << step;
        }
        for (size_t count : lane_counts) {
            soa_rhs.resize(n * count);
            soa_x.resize(n * count);
            for (size_t i = 0; i < n; ++i)
                for (size_t k = 0; k < count; ++k)
                    soa_rhs[i * count + k] = lanes[k].rhs[i];
            lu.solveLanesInto(soa_rhs, count, soa_x);
            for (size_t k = 0; k < count; ++k) {
                ASSERT_EQ(firstBitMismatch(lanes[k].x.data(), &soa_x[k], n,
                                           count),
                          -1)
                    << "K=" << count << ", lane " << k << " step " << step;
            }
        }
        if (!dc)
            for (auto &lane : lanes)
                advanceState(f, lane, false);
    }
}

TEST(SparseLuOracleTest, ChipPdnMatchesDenseSubstitution)
{
    for (double dt : {1e-9, 2e-9}) {
        SCOPED_TRACE("dt " + std::to_string(dt));
        vn::ChipConfig config;
        config.dt = dt;
        vn::ChipModel chip(config);
        const vn::LuSolver<double> &lu = chip.factorization()->transientLu();
        // The operation count the sparse rows buy: 507 of the 2450
        // off-diagonal factor slots are non-zero.
        ASSERT_EQ(lu.size(), 50u);
        EXPECT_EQ(lu.lowerNonZeros(), 252u);
        EXPECT_EQ(lu.upperNonZeros(), 255u);
        expectSparseMatchesDense(chip.pdn().netlist, dt, false, 20000);
    }
}

TEST(SparseLuOracleTest, ChipPdnDcSystemMatchesDenseSubstitution)
{
    for (double dt : {1e-9, 2e-9}) {
        SCOPED_TRACE("dt " + std::to_string(dt));
        vn::ChipConfig config;
        config.dt = dt;
        vn::ChipModel chip(config);
        expectSparseMatchesDense(chip.pdn().netlist, dt, true, 20000);
    }
}

TEST(SparseLuOracleTest, ScalingPdn18CoresMatchesDenseSubstitution)
{
    // The 18-core chip of ext_scaling, with its variation draw.
    vn::ScalablePdn pdn =
        vn::buildScalablePdn(18, vn::PdnConfig{}, 0.04, 0xC0DE + 18);
    expectSparseMatchesDense(pdn.netlist, 1e-9, false, 20000);
}

TEST(SparseLuOracleTest, LadderMatchesDenseSubstitution)
{
    expectSparseMatchesDense(makeLadder(), 1e-9, false, 20000);
    expectSparseMatchesDense(makeLadder(), 1e-9, true, 20000);
}

TEST(BatchedBitIdentityTest, LadderLanesMatchScalarLongTransient)
{
    expectLanesMatchScalar(makeLadder(), 1e-9, 5, 5000);
}

TEST(BatchedBitIdentityTest, EveryChipModelNetlistMatches)
{
    // Every netlist the chip model builds: default config, scaled PDN,
    // process variation, undervolt bias, and a coarser step.
    std::vector<vn::ChipConfig> configs(4);
    configs[1].pdn.rail_res_scale.fill(1.35);
    configs[1].pdn.decap_scale.fill(0.8);
    configs[2].variation =
        vn::VariationProfile::randomCorner(1234, 0.05);
    configs[2].bias = 0.04;
    configs[3].dt = 2e-9;

    for (size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE("config " + std::to_string(i));
        vn::ChipModel chip(configs[i]);
        expectLanesMatchScalar(chip.pdn().netlist, chip.config().dt, 4,
                               1200);
    }
}

TEST(BatchedBitIdentityTest, LadderLanesWithOwnSourceValuesMatchScalar)
{
    std::vector<vn::Netlist> lane_nets;
    for (double volts : {1.1, 1.05, 0.97, 1.2, 0.8})
        lane_nets.push_back(makeLadder(volts));
    expectLanesMatchScalar(makeLadder(), 1e-9, lane_nets.size(), 3000,
                           lane_nets);
}

TEST(BatchedBitIdentityTest, ChipLanesWithOwnSupplyMatchScalar)
{
    // Lane k's supply is the VRM value of the chip built at bias k, on
    // the nominal chip's netlist: one factorization, many supplies.
    std::vector<vn::ChipConfig> configs(2);
    configs[1].variation = vn::VariationProfile::randomCorner(99, 0.05);
    configs[1].dt = 2e-9;
    for (size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE("config " + std::to_string(i));
        vn::ChipModel nominal(configs[i]);
        std::vector<vn::Netlist> lane_nets;
        for (double bias : {0.0, 0.035, 0.1, 0.005, 0.3}) {
            vn::ChipConfig config = configs[i];
            config.bias = bias;
            lane_nets.push_back(vn::ChipModel(config).pdn().netlist);
        }
        expectLanesMatchScalar(nominal.pdn().netlist, configs[i].dt,
                               lane_nets.size(), 1200, lane_nets);
    }
}

std::array<vn::CoreActivity, vn::kNumCores>
waveWorkloads(const vn::ChipModel &chip, int variant)
{
    std::array<vn::CoreActivity, vn::kNumCores> w = {
        chip.idleActivity(), chip.idleActivity(), chip.idleActivity(),
        chip.idleActivity(), chip.idleActivity(), chip.idleActivity()};
    for (int c = 0; c < vn::kNumCores; ++c) {
        if ((c + variant) % 2 == 0) {
            double hi = 3.0 + 0.2 * variant + 0.1 * c;
            std::vector<vn::ActivityPhase> loop{
                {hi, 150e-9 + 10e-9 * static_cast<double>(variant)},
                {1.2, 250e-9}};
            w[c] = vn::CoreActivity(loop);
        }
    }
    return w;
}

void
expectSameChipResult(const vn::ChipRunResult &a,
                     const vn::ChipRunResult &b)
{
    auto same_core = [](const vn::CoreRunResult &x,
                        const vn::CoreRunResult &y) {
        return sameBits(x.p2p, y.p2p) && x.min_latch == y.min_latch &&
               x.max_latch == y.max_latch && sameBits(x.v_min, y.v_min) &&
               sameBits(x.v_max, y.v_max) && sameBits(x.v_mean, y.v_mean);
    };
    for (int c = 0; c < vn::kNumCores; ++c)
        ASSERT_TRUE(same_core(a.core[c], b.core[c])) << "core " << c;
    for (int u = 0; u < vn::kNumSharedUnits; ++u)
        ASSERT_TRUE(same_core(a.shared[u], b.shared[u])) << "unit " << u;
    ASSERT_EQ(a.failed, b.failed);
    ASSERT_TRUE(sameBits(a.failure_time, b.failure_time));
    ASSERT_EQ(a.failing_core, b.failing_core);
    ASSERT_TRUE(sameBits(a.avg_power_watts, b.avg_power_watts));
    ASSERT_TRUE(sameBits(a.duration, b.duration));
    ASSERT_EQ(a.traces.size(), b.traces.size());
    for (size_t t = 0; t < a.traces.size(); ++t) {
        ASSERT_EQ(a.traces[t].size(), b.traces[t].size()) << "trace " << t;
        for (size_t i = 0; i < a.traces[t].size(); ++i)
            ASSERT_TRUE(sameBits(a.traces[t][i], b.traces[t][i]))
                << "trace " << t << " sample " << i;
    }
}

/**
 * A `lanes`-lane runBatch() of distinct wave workloads, with traces,
 * must equal a one-lane run() of each lane's workloads bit for bit.
 */
void
expectRunBatchMatchesRuns(size_t lanes, double duration)
{
    vn::ChipModel chip;
    std::vector<std::array<vn::CoreActivity, vn::kNumCores>> workloads;
    for (size_t variant = 0; variant < lanes; ++variant)
        workloads.push_back(waveWorkloads(chip, static_cast<int>(variant)));

    vn::RunOptions options;
    options.capture_traces = true;
    options.trace_decimation = 3;

    auto batched = chip.runBatch(workloads, duration, options);
    ASSERT_EQ(batched.size(), workloads.size());
    for (size_t i = 0; i < workloads.size(); ++i) {
        SCOPED_TRACE("lane " + std::to_string(i));
        auto scalar = chip.run(workloads[i], duration, options);
        expectSameChipResult(scalar, batched[i]);
    }
}

TEST(BatchedBitIdentityTest, ChipRunBatchMatchesScalarRuns)
{
    expectRunBatchMatchesRuns(4, 2e-6);
}

TEST(BatchedBitIdentityTest, EightLaneChipRunBatchMatchesScalarRuns)
{
    // Two whole 4-lane vectors per substitution row: the width of the
    // Fig. 13 mapping batches.
    expectRunBatchMatchesRuns(8, 2e-6);
}

/**
 * Workload sets whose cores share schedules in each way the chip loop
 * groups them, and in each way it must not: one shared list, copies,
 * an equal list of its own, the same loop with a start delay, another
 * sync offset, or a mid-phase state. A 1 us TOD interval puts several
 * barriers in a few microseconds.
 */
std::vector<std::array<vn::CoreActivity, vn::kNumCores>>
sharedScheduleSets(const vn::ChipModel &chip)
{
    const std::vector<vn::ActivityPhase> phases{
        {3.6, 170e-9}, {1.3, 170e-9}, {3.6, 170e-9}, {1.3, 170e-9}};
    const auto list =
        std::make_shared<const std::vector<vn::ActivityPhase>>(phases);
    const vn::SyncSpec sync{16, 0, 1.3};
    const auto base = vn::CoreActivity::sharing(list, sync);
    const vn::CoreActivity own_list(phases, sync);
    const auto delayed =
        vn::CoreActivity::sharing(list, sync, {{1.3, 230e-9}});
    const auto offset = vn::CoreActivity::sharing(list, {{16, 5, 1.3}});
    vn::CoreActivity mid = base;
    mid.advance(0.6e-9);
    vn::CoreActivity mid_own(phases, sync);
    mid_own.advance(0.6e-9);
    const auto idle = chip.idleActivity();
    return {
        {base, base, own_list, base, own_list, base},
        {delayed, base, offset, mid, own_list, base},
        {mid, mid_own, base, delayed, offset, idle},
        {idle, idle, idle, idle, idle, idle},
        {own_list, own_list, own_list, own_list, own_list, own_list},
    };
}

TEST(BatchedBitIdentityTest, SharedSchedulesMatchScalarRuns)
{
    // However many lanes and cores share a schedule, every lane equals
    // a one-lane run of its own set, bit for bit, traces included; at
    // 2 lanes (one pack) and 5 (single lanes) alike.
    vn::ChipModel chip;
    const auto sets = sharedScheduleSets(chip);
    vn::RunOptions options;
    options.capture_traces = true;
    options.trace_decimation = 2;
    for (size_t lanes : {size_t{2}, sets.size()}) {
        SCOPED_TRACE(std::to_string(lanes) + " lanes");
        const std::span<const std::array<vn::CoreActivity, vn::kNumCores>>
            batch(sets.data(), lanes);
        auto batched = chip.runBatch(batch, 3e-6, options);
        ASSERT_EQ(batched.size(), lanes);
        for (size_t i = 0; i < lanes; ++i) {
            SCOPED_TRACE("lane " + std::to_string(i));
            expectSameChipResult(chip.run(sets[i], 3e-6, options),
                                 batched[i]);
        }
    }
}

TEST(BatchedBitIdentityTest, SharedSchedulesMatchScalarFailureScans)
{
    vn::ChipModel chip;
    const std::vector<double> biases = {0.0, 0.06, 0.1, 0.14, 0.2};
    size_t failed = 0;
    for (const auto &set : sharedScheduleSets(chip)) {
        auto outcomes = chip.scanFailures(set, biases, 3e-6);
        ASSERT_EQ(outcomes.size(), biases.size());
        for (size_t i = 0; i < biases.size(); ++i) {
            SCOPED_TRACE("bias " + std::to_string(biases[i]));
            vn::ChipConfig biased = chip.config();
            biased.bias = biases[i];
            auto scalar = vn::ChipModel(biased).run(set, 3e-6);
            ASSERT_EQ(outcomes[i].failed, scalar.failed);
            ASSERT_TRUE(sameBits(outcomes[i].failure_time,
                                 scalar.failure_time));
            ASSERT_EQ(outcomes[i].failing_core, scalar.failing_core);
            failed += scalar.failed ? 1 : 0;
        }
    }
    EXPECT_GT(failed, 0u);
}

TEST(BatchedBitIdentityTest, WindowShorterThanWarmupHasNoStatistics)
{
    // No step reaches the measurement window, so no unit has a voltage
    // sample and every readout stays zero, in every lane. The meter
    // averages every step regardless: check it against a PowerMeter
    // fed by a one-lane solver driven as the chip drives its ports.
    vn::ChipModel chip;
    const vn::ChipConfig &config = chip.config();
    const vn::RunOptions options;
    const double duration = 0.6 * options.warmup;
    std::vector<std::array<vn::CoreActivity, vn::kNumCores>> workloads = {
        waveWorkloads(chip, 1), waveWorkloads(chip, 2),
        waveWorkloads(chip, 3)};

    auto batched = chip.runBatch(workloads, duration, options);
    ASSERT_EQ(batched.size(), workloads.size());
    for (size_t i = 0; i < workloads.size(); ++i) {
        SCOPED_TRACE("lane " + std::to_string(i));
        const vn::ChipRunResult &r = batched[i];
        expectSameChipResult(chip.run(workloads[i], duration, options), r);
        auto expect_empty = [](const vn::CoreRunResult &unit) {
            EXPECT_TRUE(sameBits(unit.p2p, 0.0));
            EXPECT_TRUE(sameBits(unit.v_min, 0.0));
            EXPECT_TRUE(sameBits(unit.v_max, 0.0));
            EXPECT_TRUE(sameBits(unit.v_mean, 0.0));
        };
        for (const auto &core : r.core)
            expect_empty(core);
        for (const auto &unit : r.shared)
            expect_empty(unit);

        std::array<vn::CoreActivity, vn::kNumCores> activity =
            workloads[i];
        const vn::ChipPdn &pdn = chip.pdn();
        std::vector<double> currents(pdn.portCount(), 0.0);
        auto fill_currents = [&](bool advance) {
            for (int c = 0; c < vn::kNumCores; ++c) {
                const double power = advance
                                         ? activity[c].advance(config.dt)
                                         : activity[c].currentPower();
                currents[pdn.core_port[c]] =
                    power * config.power_unit_amps *
                    config.variation.core[c].power_scale;
            }
            currents[pdn.l3_port] = config.nest_amps;
            currents[pdn.mcu_port] = config.mcu_amps;
            currents[pdn.gx_port] = config.gx_amps;
        };
        vn::TransientSolver sim(chip.factorization());
        fill_currents(false);
        sim.initDcOperatingPoint(currents);
        vn::PowerMeter meter;
        const auto steps =
            static_cast<uint64_t>(std::ceil(duration / config.dt));
        for (uint64_t step = 0; step < steps; ++step) {
            fill_currents(true);
            sim.step(currents);
            meter.sample(chip.supplyVoltage(),
                         std::fabs(sim.sourceCurrent(0)));
        }
        ASSERT_GT(meter.count(), 0u);
        EXPECT_GT(r.avg_power_watts, 0.0);
        EXPECT_TRUE(sameBits(r.avg_power_watts, meter.averageWatts()))
            << r.avg_power_watts << " vs " << meter.averageWatts();
    }
}

TEST(BatchedBitIdentityTest, FailureScanMatchesScalarRuns)
{
    // Each lane of a failure scan must report the first violation a
    // scalar run at that lane's bias reports, bit for bit, whether the
    // lane fails early, late or never.
    const std::vector<double> biases = {0.0,  0.13, 0.02, 0.05, 0.08,
                                        0.11, 0.04, 0.2,  0.09};
    for (double dt : {1e-9, 2e-9}) {
        for (bool uniform : {false, true}) {
            SCOPED_TRACE("dt " + std::to_string(dt) +
                         (uniform ? " uniform" : " default"));
            vn::ChipConfig config;
            config.dt = dt;
            if (uniform)
                config.variation = vn::VariationProfile::uniform();
            vn::ChipModel chip(config);
            const auto workloads = waveWorkloads(chip, 1);

            auto outcomes = chip.scanFailures(workloads, biases, 3e-6);
            ASSERT_EQ(outcomes.size(), biases.size());
            size_t failed = 0;
            for (size_t i = 0; i < biases.size(); ++i) {
                SCOPED_TRACE("bias " + std::to_string(biases[i]));
                vn::ChipConfig biased = config;
                biased.bias = biases[i];
                auto scalar = vn::ChipModel(biased).run(workloads, 3e-6);
                ASSERT_EQ(outcomes[i].failed, scalar.failed);
                ASSERT_TRUE(sameBits(outcomes[i].failure_time,
                                     scalar.failure_time));
                ASSERT_EQ(outcomes[i].failing_core, scalar.failing_core);
                failed += scalar.failed ? 1 : 0;
            }
            EXPECT_GT(failed, 0u);
            EXPECT_LT(failed, biases.size());
        }
    }
}

TEST(BatchedBitIdentityTest, EmptyBatchReturnsNothing)
{
    vn::ChipModel chip;
    EXPECT_TRUE(chip.runBatch({}, 1e-6).empty());
}

TEST(FactorizationCacheTest, SolversShareOneFactorization)
{
    vn::Netlist net = makeLadder();
    vn::TransientSolver a(net, 1e-9);
    vn::TransientSolver b(net, 1e-9);
    EXPECT_EQ(a.factorization().get(), b.factorization().get());

    vn::TransientSolver c(net, 2e-9); // different dt, different LU
    EXPECT_NE(a.factorization().get(), c.factorization().get());
}

TEST(FactorizationCacheTest, ContentHashIgnoresNames)
{
    vn::Netlist a = makeLadder();

    vn::Netlist b;
    vn::NodeId n1 = b.addNode("renamed1");
    vn::NodeId n2 = b.addNode("renamed2");
    vn::NodeId n3 = b.addNode("renamed3");
    b.addVoltageSource(n1, vn::Netlist::ground, 1.1, "vrm");
    b.addResistor(n1, n2, 0.01, "rpkg");
    b.addInductor(n2, n3, 5e-9, "lpkg");
    b.addCapacitor(n2, vn::Netlist::ground, 1e-6, "cbulk");
    b.addCapacitor(n3, vn::Netlist::ground, 4e-6, "cdie");
    b.addResistor(n3, vn::Netlist::ground, 50.0, "rleak");
    b.addCurrentPort(n2, vn::Netlist::ground, "load_a");
    b.addCurrentPort(n3, vn::Netlist::ground, "load_b");

    EXPECT_EQ(vn::netlistContentHash(a), vn::netlistContentHash(b));
    EXPECT_TRUE(vn::netlistContentEquals(a, b));

    // Same electrical content interns to the same factorization.
    vn::TransientSolver sa(a, 1e-9);
    vn::TransientSolver sb(b, 1e-9);
    EXPECT_EQ(sa.factorization().get(), sb.factorization().get());
}

TEST(FactorizationCacheTest, ContentHashSeesValueChanges)
{
    vn::Netlist a = makeLadder();
    vn::Netlist b = makeLadder();
    b.addCapacitor(b.node("n2"), vn::Netlist::ground, 2e-6);
    EXPECT_NE(vn::netlistContentHash(a), vn::netlistContentHash(b));
    EXPECT_FALSE(vn::netlistContentEquals(a, b));
}

TEST(FactorizationCacheTest, HitAndMissCountersTrack)
{
    auto &cache = vn::FactorizationCache::global();

    // A netlist no other test uses, so the first get must miss.
    vn::Netlist net;
    vn::NodeId n1 = net.addNode("counter_probe");
    net.addVoltageSource(n1, vn::Netlist::ground, 0.77125);
    net.addResistor(n1, vn::Netlist::ground, 3.25);
    net.addCapacitor(n1, vn::Netlist::ground, 7.5e-7);
    net.addCurrentPort(n1, vn::Netlist::ground);

    size_t hits = cache.hits();
    size_t misses = cache.misses();
    auto f1 = cache.get(net, 1e-9);
    EXPECT_EQ(cache.misses(), misses + 1);
    auto f2 = cache.get(net, 1e-9);
    EXPECT_EQ(cache.hits(), hits + 1);
    EXPECT_EQ(f1.get(), f2.get());
}

TEST(FactorizationCacheTest, ConcurrentGetInternsOnePointer)
{
    // tsan target: many threads race the first get() of a fresh
    // netlist; everyone must end up with one shared factorization and
    // no data race inside the cache.
    vn::Netlist net = makeLadder();
    net.addResistor(net.node("n2"), vn::Netlist::ground, 123.456);

    constexpr int kThreads = 8;
    std::array<std::shared_ptr<const vn::Factorization>, kThreads> got;
    {
        std::vector<std::thread> threads;
        threads.reserve(kThreads);
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                auto f =
                    vn::FactorizationCache::global().get(net, 1e-9);
                // Exercise the shared read-only state from every
                // thread, including the lazily built DC LU.
                vn::TransientSolver sim(f);
                std::vector<double> load(net.ports().size(), 0.1 * t);
                sim.initDcOperatingPoint(load);
                for (int s = 0; s < 50; ++s)
                    sim.step(load);
                got[static_cast<size_t>(t)] = std::move(f);
            });
        }
        for (auto &th : threads)
            th.join();
    }
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(got[0].get(), got[static_cast<size_t>(t)].get());
}

TEST(FactorizationTest, DcSingularFailsOnFirstDcUseNotConstruction)
{
    // A node reachable only through a capacitor has a singular DC
    // matrix but a fine transient one. The factorization is usable for
    // stepping; only the (lazy) DC LU must fail — the same timing the
    // eager per-run solver had.
    vn::Netlist net;
    vn::NodeId n1 = net.addNode("driven");
    vn::NodeId n2 = net.addNode("floating");
    net.addVoltageSource(n1, vn::Netlist::ground, 1.0);
    net.addCapacitor(n1, n2, 1e-6);
    net.addCurrentPort(n2, vn::Netlist::ground);

    bool prev = vn::setThrowOnError(true);
    vn::TransientSolver sim(net, 1e-9); // must not throw
    std::vector<double> load(1, 0.0);
    EXPECT_THROW(sim.initDcOperatingPoint(load), vn::FatalError);
    vn::setThrowOnError(prev);
}

TEST(BatchedTransientSolverTest, RejectsBadArguments)
{
    bool prev = vn::setThrowOnError(true);
    vn::Netlist net = makeLadder();
    EXPECT_THROW(vn::BatchedTransientSolver(net, 1e-9, 0),
                 vn::FatalError);

    vn::BatchedTransientSolver sim(net, 1e-9, 2);
    std::vector<double> wrong(net.ports().size(), 0.0); // 1 lane only
    EXPECT_THROW(sim.step(wrong), vn::FatalError);
    std::vector<double> loads(2 * net.ports().size(), 0.0);
    std::vector<double> one_supply = {1.0}; // 2 lanes x 1 source needed
    EXPECT_THROW(sim.step(loads, one_supply), vn::FatalError);
    EXPECT_THROW(sim.nodeVoltage(2, 1), vn::FatalError);
    // The one-lane accessors refuse a wider solver.
    EXPECT_THROW(sim.nodeVoltage(1), vn::FatalError);
    EXPECT_THROW(sim.inductorCurrent(0), vn::FatalError);
    EXPECT_THROW(sim.sourceCurrent(0), vn::FatalError);
    vn::setThrowOnError(prev);
}

} // namespace
