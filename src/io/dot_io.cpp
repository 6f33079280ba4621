#include "io/dot_io.hpp"

#include <ostream>

namespace netpart::io {

void write_dot_netlist(std::ostream& out, const Hypergraph& h,
                       const DotOptions& options) {
  out << "graph netlist {\n"
      << "  layout=neato;\n  overlap=false;\n  splines=true;\n";
  const bool colored = options.partition != nullptr &&
                       options.partition->num_modules() == h.num_modules();
  for (ModuleId m = 0; m < h.num_modules(); ++m) {
    out << "  m" << m << " [shape=circle, label=\"" << m << "\"";
    if (colored)
      out << ", style=filled, fillcolor="
          << (options.partition->side(m) == Side::kLeft ? "lightblue"
                                                        : "lightsalmon");
    out << "];\n";
  }
  for (NetId n = 0; n < h.num_nets(); ++n) {
    if (options.max_net_size > 0 && h.net_size(n) > options.max_net_size)
      continue;
    out << "  n" << n << " [shape=box, label=\"n" << n << "\"";
    if (h.net_weight(n) != 1) out << ", penwidth=2";
    out << "];\n";
    for (const ModuleId m : h.pins(n))
      out << "  n" << n << " -- m" << m << ";\n";
  }
  out << "}\n";
}

}  // namespace netpart::io
