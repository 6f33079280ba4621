#pragma once

#include <cstdint>
#include <iosfwd>

#include "hypergraph/hypergraph.hpp"

/// \file dot_io.hpp
/// Graphviz DOT exporter for visual inspection of netlists (render with
/// `dot -Tsvg` / `neato -Tsvg`).

namespace netpart::io {

/// Nets with more pins than this are omitted from the drawing; large rails
/// turn it into a hairball.
inline constexpr std::int32_t kDotMaxNetSize = 16;

/// Write the netlist as a bipartite DOT graph: box nodes for nets, circle
/// nodes for modules, one edge per pin.  The faithful rendering of a
/// hypergraph, minus the nets above kDotMaxNetSize pins.
void write_dot_netlist(std::ostream& out, const Hypergraph& h);

}  // namespace netpart::io
