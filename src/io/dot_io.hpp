#pragma once

#include <iosfwd>

#include "hypergraph/hypergraph.hpp"
#include "hypergraph/partition.hpp"

/// \file dot_io.hpp
/// Graphviz DOT exporter for visual inspection of netlists and partitions
/// (render with `dot -Tsvg` / `neato -Tsvg`).

namespace netpart::io {

/// Options controlling the DOT rendering.
struct DotOptions {
  /// Omit nets larger than this many pins (0 = keep everything); large
  /// rails turn the drawing into a hairball.
  std::int32_t max_net_size = 0;
  /// Color modules by this partition when its size matches (left =
  /// lightblue, right = lightsalmon).
  const Partition* partition = nullptr;
};

/// Write the netlist as a bipartite DOT graph: box nodes for nets, circle
/// nodes for modules, one edge per pin.  The faithful rendering of a
/// hypergraph.
void write_dot_netlist(std::ostream& out, const Hypergraph& h,
                       const DotOptions& options = {});

}  // namespace netpart::io
