#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

/// \file hypergraph.hpp
/// Netlist hypergraph H = (V, E'): modules are vertices, signal nets are
/// hyperedges.  This is the primary input representation for every
/// partitioning algorithm in the library (Section 1.1 of Cong/Hagen/Kahng,
/// "Net Partitions Yield Better Module Partitions").

namespace netpart {

/// Index of a module (cell/gate) in a netlist.  Dense, 0-based.
using ModuleId = std::int32_t;
/// Index of a signal net (hyperedge) in a netlist.  Dense, 0-based.
using NetId = std::int32_t;

/// An immutable netlist hypergraph with CSR storage in both directions:
/// net -> pins (member modules) and module -> incident nets.
///
/// Invariants (established by HypergraphBuilder::build and checked by
/// HypergraphBuilder::from_canonical_nets):
///  - every pin is a valid module id;
///  - within one net, pins are sorted and duplicate-free;
///  - within one module, incident nets are sorted and duplicate-free;
///  - the two incidence structures are exact transposes of each other.
class Hypergraph {
 public:
  Hypergraph() = default;

  /// Number of modules |V|.
  [[nodiscard]] std::int32_t num_modules() const {
    return static_cast<std::int32_t>(module_offsets_.size()) - 1;
  }

  /// Number of nets |E'|.
  [[nodiscard]] std::int32_t num_nets() const {
    return static_cast<std::int32_t>(net_offsets_.size()) - 1;
  }

  /// Total number of pins, i.e. sum of net sizes.
  [[nodiscard]] std::int64_t num_pins() const {
    return static_cast<std::int64_t>(net_pins_.size());
  }

  /// Modules contained by net `n` ("the pins of the net"), sorted ascending.
  [[nodiscard]] std::span<const ModuleId> pins(NetId n) const {
    return {net_pins_.data() + net_offsets_[static_cast<std::size_t>(n)],
            net_pins_.data() + net_offsets_[static_cast<std::size_t>(n) + 1]};
  }

  /// Nets incident to module `m`, sorted ascending.
  [[nodiscard]] std::span<const NetId> nets_of(ModuleId m) const {
    return {module_nets_.data() + module_offsets_[static_cast<std::size_t>(m)],
            module_nets_.data() +
                module_offsets_[static_cast<std::size_t>(m) + 1]};
  }

  /// Number of pins of net `n` (the "k" of a k-pin net).
  [[nodiscard]] std::int32_t net_size(NetId n) const {
    return static_cast<std::int32_t>(
        net_offsets_[static_cast<std::size_t>(n) + 1] -
        net_offsets_[static_cast<std::size_t>(n)]);
  }

  /// Multiplicity weight of net `n` (Section 1.1: "the multiplicity or
  /// importance of a wiring connection").  1 for ordinary nets; a net of
  /// weight w behaves like w parallel copies in the weighted cut metrics
  /// and the net-model expansions.
  [[nodiscard]] std::int32_t net_weight(NetId n) const {
    return net_weights_[static_cast<std::size_t>(n)];
  }

  /// Sum of all net weights (= num_nets() when unweighted).
  [[nodiscard]] std::int64_t total_net_weight() const;

  /// True when every net has weight 1.
  [[nodiscard]] bool is_unweighted() const;

  /// Number of nets incident to module `m` (the module degree d(m) used in
  /// the intersection-graph edge weighting).
  [[nodiscard]] std::int32_t module_degree(ModuleId m) const {
    return static_cast<std::int32_t>(
        module_offsets_[static_cast<std::size_t>(m) + 1] -
        module_offsets_[static_cast<std::size_t>(m)]);
  }

  /// True when net `n` contains module `m` (binary search over sorted pins).
  [[nodiscard]] bool contains(NetId n, ModuleId m) const;

  /// Optional human-readable name of the design (empty if unset).
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Largest net size, 0 for an empty hypergraph.
  [[nodiscard]] std::int32_t max_net_size() const;

  /// Largest module degree, 0 for an empty hypergraph.
  [[nodiscard]] std::int32_t max_module_degree() const;

  /// True if every module is reachable from module 0 through shared nets.
  /// An empty hypergraph is considered connected.
  [[nodiscard]] bool is_connected() const;

 private:
  friend class HypergraphBuilder;

  std::string name_;
  // CSR for nets -> pins.
  std::vector<std::int64_t> net_offsets_{0};
  std::vector<ModuleId> net_pins_;
  std::vector<std::int32_t> net_weights_;
  // CSR for modules -> nets (transpose of the above).
  std::vector<std::int64_t> module_offsets_{0};
  std::vector<NetId> module_nets_;
};

/// Sub-hypergraph induced by a module subset: module ids are renumbered to
/// 0..|modules|-1 in the order given; each net keeps only surviving pins
/// and is dropped when fewer than `min_net_size` remain (default 2 — a
/// smaller net cannot influence a bipartition).  `modules` must be
/// duplicate-free and valid.
[[nodiscard]] Hypergraph induce_subhypergraph(
    const Hypergraph& h, std::span<const ModuleId> modules,
    std::int32_t min_net_size = 2);

/// Incremental builder for a Hypergraph.  Collects nets as pin lists and
/// finalizes to CSR form, deduplicating pins within each net.
class HypergraphBuilder {
 public:
  /// Start a builder for a design with `num_modules` modules.
  explicit HypergraphBuilder(std::int32_t num_modules);

  /// Add a net containing the given pins with multiplicity `weight` >= 1.
  /// Pins may arrive unsorted and may contain duplicates (duplicates are
  /// merged).  Returns the new net's id.  Throws std::out_of_range on an
  /// invalid module id, std::invalid_argument on weight < 1.
  NetId add_net(std::span<const ModuleId> pins, std::int32_t weight = 1);

  /// Convenience overload.
  NetId add_net(std::initializer_list<ModuleId> pins,
                std::int32_t weight = 1);

  /// Set the design name carried by the built hypergraph.
  HypergraphBuilder& set_name(std::string name);

  /// Number of nets added so far.
  [[nodiscard]] std::int32_t num_nets_added() const {
    return static_cast<std::int32_t>(net_sizes_.size());
  }

  /// Finalize into an immutable Hypergraph.  The builder is left empty and
  /// can be reused for a new design of the same module count.
  [[nodiscard]] Hypergraph build();

  /// Build straight from nets already in canonical form, without add_net's
  /// per-net copy, sort and dedup: net i has pins
  /// `net_pins[net_offsets[i], net_offsets[i + 1])`, strictly increasing,
  /// and weight `net_weights[i]`; `net_offsets` starts at 0 and ends at
  /// `net_pins.size()`.  The result equals adding the same nets one by one.
  /// Throws std::out_of_range on an invalid module id and
  /// std::invalid_argument on a weight < 1 or arrays not in that form.
  [[nodiscard]] static Hypergraph from_canonical_nets(
      std::int32_t num_modules, std::string name,
      std::vector<std::int64_t> net_offsets, std::vector<ModuleId> net_pins,
      std::vector<std::int32_t> net_weights);

 private:
  /// Fill `h`'s module -> nets CSR from its net -> pins CSR.
  static void build_transpose(Hypergraph& h, std::int32_t num_modules);

  std::int32_t num_modules_;
  std::string name_;
  std::vector<std::int32_t> net_sizes_;
  std::vector<std::int32_t> net_weights_;
  std::vector<ModuleId> all_pins_;  // concatenated, deduped per net
};

}  // namespace netpart
