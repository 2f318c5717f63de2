/**
 * @file
 * Tests for netlist construction and validation.
 */

#include <gtest/gtest.h>

#include <limits>

#include "circuit/netlist.hh"
#include "util/logging.hh"

namespace
{

TEST(NetlistTest, GroundExistsByDefault)
{
    vn::Netlist net;
    EXPECT_EQ(net.nodeCount(), 1u);
    EXPECT_EQ(net.nodeName(vn::Netlist::ground), "gnd");
}

TEST(NetlistTest, AddNodesAndLookup)
{
    vn::Netlist net;
    vn::NodeId a = net.addNode("rail");
    vn::NodeId b = net.addNode("core");
    EXPECT_EQ(net.nodeCount(), 3u);
    EXPECT_EQ(net.node("rail"), a);
    EXPECT_EQ(net.node("core"), b);
    EXPECT_EQ(net.nodeName(b), "core");
}

TEST(NetlistTest, UnknownNodeNameIsFatal)
{
    bool prev = vn::setThrowOnError(true);
    vn::Netlist net;
    EXPECT_THROW(net.node("nope"), vn::FatalError);
    vn::setThrowOnError(prev);
}

TEST(NetlistTest, ElementsRecorded)
{
    vn::Netlist net;
    vn::NodeId a = net.addNode("a");
    vn::NodeId b = net.addNode("b");
    net.addResistor(a, b, 5.0, "r1");
    net.addInductor(a, b, 1e-9, "l1");
    net.addCapacitor(b, vn::Netlist::ground, 1e-6, "c1");
    net.addVoltageSource(a, vn::Netlist::ground, 1.0, "v1");
    vn::PortId p = net.addCurrentPort(b, vn::Netlist::ground, "load");

    EXPECT_EQ(net.resistors().size(), 1u);
    EXPECT_EQ(net.inductors().size(), 1u);
    EXPECT_EQ(net.capacitors().size(), 1u);
    EXPECT_EQ(net.voltageSources().size(), 1u);
    ASSERT_EQ(net.ports().size(), 1u);
    EXPECT_EQ(net.port("load"), p);
    EXPECT_EQ(net.resistors()[0].ohms, 5.0);
}

TEST(NetlistTest, RejectsNonPositiveValues)
{
    bool prev = vn::setThrowOnError(true);
    vn::Netlist net;
    vn::NodeId a = net.addNode("a");
    EXPECT_THROW(net.addResistor(a, vn::Netlist::ground, 0.0),
                 vn::FatalError);
    EXPECT_THROW(net.addResistor(a, vn::Netlist::ground, -1.0),
                 vn::FatalError);
    EXPECT_THROW(net.addInductor(a, vn::Netlist::ground, 0.0),
                 vn::FatalError);
    EXPECT_THROW(net.addCapacitor(a, vn::Netlist::ground, -2.0),
                 vn::FatalError);
    vn::setThrowOnError(prev);
}

TEST(NetlistTest, RejectsNonFiniteValues)
{
    // A NaN fails no "<= 0" test; every element check must reject it
    // (and infinities) before it reaches the solver.
    bool prev = vn::setThrowOnError(true);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    vn::Netlist net;
    vn::NodeId a = net.addNode("a");
    EXPECT_THROW(net.addResistor(a, vn::Netlist::ground, nan),
                 vn::FatalError);
    EXPECT_THROW(net.addResistor(a, vn::Netlist::ground, inf),
                 vn::FatalError);
    EXPECT_THROW(net.addInductor(a, vn::Netlist::ground, nan),
                 vn::FatalError);
    EXPECT_THROW(net.addCapacitor(a, vn::Netlist::ground, inf),
                 vn::FatalError);
    EXPECT_THROW(net.addVoltageSource(a, vn::Netlist::ground, nan),
                 vn::FatalError);
    EXPECT_THROW(net.addVoltageSource(a, vn::Netlist::ground, -inf),
                 vn::FatalError);
    EXPECT_TRUE(net.resistors().empty());
    EXPECT_TRUE(net.voltageSources().empty());
    vn::setThrowOnError(prev);
}

TEST(NetlistTest, RejectsSelfLoops)
{
    bool prev = vn::setThrowOnError(true);
    vn::Netlist net;
    vn::NodeId a = net.addNode("a");
    EXPECT_THROW(net.addResistor(a, a, 1.0), vn::FatalError);
    EXPECT_THROW(net.addCurrentPort(a, a), vn::FatalError);
    vn::setThrowOnError(prev);
}

TEST(NetlistTest, RejectsUnknownNodeIds)
{
    bool prev = vn::setThrowOnError(true);
    vn::Netlist net;
    vn::NodeId a = net.addNode("a");
    EXPECT_THROW(net.addResistor(a, 99, 1.0), vn::FatalError);
    EXPECT_THROW(net.addResistor(-1, a, 1.0), vn::FatalError);
    vn::setThrowOnError(prev);
}

} // namespace
