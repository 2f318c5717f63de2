#include "circuit/netlist.hh"

#include <cmath>

#include "util/logging.hh"

namespace vn
{

Netlist::Netlist()
{
    node_names_.push_back("gnd");
}

NodeId
Netlist::addNode(const std::string &name)
{
    node_names_.push_back(name);
    return static_cast<NodeId>(node_names_.size() - 1);
}

void
Netlist::checkNode(NodeId node, const char *context) const
{
    if (node < 0 || static_cast<size_t>(node) >= node_names_.size())
        fatal("Netlist::", context, ": unknown node id ", node);
}

void
Netlist::addResistor(NodeId a, NodeId b, double ohms,
                     const std::string &name)
{
    checkNode(a, "addResistor");
    checkNode(b, "addResistor");
    if (!(ohms > 0.0) || !std::isfinite(ohms))
        fatal("Netlist::addResistor(", name,
              "): ohms must be finite and > 0, got ", ohms);
    if (a == b)
        fatal("Netlist::addResistor(", name, "): both terminals on node ",
              a);
    resistors_.push_back({a, b, ohms, name});
}

void
Netlist::addInductor(NodeId a, NodeId b, double henries,
                     const std::string &name)
{
    checkNode(a, "addInductor");
    checkNode(b, "addInductor");
    if (!(henries > 0.0) || !std::isfinite(henries))
        fatal("Netlist::addInductor(", name,
              "): henries must be finite and > 0, got ", henries);
    if (a == b)
        fatal("Netlist::addInductor(", name, "): both terminals on node ",
              a);
    inductors_.push_back({a, b, henries, name});
}

void
Netlist::addCapacitor(NodeId a, NodeId b, double farads,
                      const std::string &name)
{
    checkNode(a, "addCapacitor");
    checkNode(b, "addCapacitor");
    if (!(farads > 0.0) || !std::isfinite(farads))
        fatal("Netlist::addCapacitor(", name,
              "): farads must be finite and > 0, got ", farads);
    if (a == b)
        fatal("Netlist::addCapacitor(", name, "): both terminals on node ",
              a);
    capacitors_.push_back({a, b, farads, name});
}

void
Netlist::addVoltageSource(NodeId pos, NodeId neg, double volts,
                          const std::string &name)
{
    checkNode(pos, "addVoltageSource");
    checkNode(neg, "addVoltageSource");
    if (!std::isfinite(volts))
        fatal("Netlist::addVoltageSource(", name,
              "): volts must be finite, got ", volts);
    if (pos == neg)
        fatal("Netlist::addVoltageSource(", name,
              "): both terminals on node ", pos);
    vsources_.push_back({pos, neg, volts, name});
}

PortId
Netlist::addCurrentPort(NodeId from, NodeId to, const std::string &name)
{
    checkNode(from, "addCurrentPort");
    checkNode(to, "addCurrentPort");
    if (from == to)
        fatal("Netlist::addCurrentPort(", name,
              "): both terminals on node ", from);
    ports_.push_back({from, to, name});
    return static_cast<PortId>(ports_.size() - 1);
}

const std::string &
Netlist::nodeName(NodeId node) const
{
    checkNode(node, "nodeName");
    return node_names_[node];
}

NodeId
Netlist::node(const std::string &name) const
{
    for (size_t i = 0; i < node_names_.size(); ++i)
        if (node_names_[i] == name)
            return static_cast<NodeId>(i);
    fatal("Netlist::node(): no node named '", name, "'");
}

PortId
Netlist::port(const std::string &name) const
{
    for (size_t i = 0; i < ports_.size(); ++i)
        if (ports_[i].name == name)
            return static_cast<PortId>(i);
    fatal("Netlist::port(): no port named '", name, "'");
}

} // namespace vn
