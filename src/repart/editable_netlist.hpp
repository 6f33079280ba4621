#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "hypergraph/hypergraph.hpp"

/// \file editable_netlist.hpp
/// Mutable netlist overlay for incremental repartitioning.
///
/// `Hypergraph` is an immutable CSR snapshot; real workloads are sequences
/// of small ECO-style edits against one evolving design.  EditableNetlist
/// holds the pin lists in mutable form, applies the edit vocabulary
/// (add/remove net, add/remove module, move pin), and journals what a warm
/// repartition needs: whether the batch edited anything (so the session
/// knows to re-materialize) and where each module went (so the previous
/// partition can be carried forward).
///
/// Id discipline mirrors a from-scratch build: ids are dense, and removing
/// a net (or module) shifts every higher id down by one — so a
/// `materialize()` snapshot is bit-identical to a `HypergraphBuilder` fed
/// the same pin lists in order, and all derived structures can be compared
/// against a cold rebuild exactly.

namespace netpart::repart {

/// What changed since the previous `drain_changes()` baseline.
struct ChangeSet {
  /// Baseline module id -> current id, -1 when the module was removed.
  /// Strictly increasing over survivors (id shifts are downward-only).
  std::vector<std::int32_t> module_remap;
  /// Some edit changed the netlist.  Every mutating edit sets it, including
  /// one that leaves all net pin sets alone (adding or removing an isolated
  /// module, removing an empty net).
  bool edited = false;
};

/// Mutable netlist with change journaling.  Not thread-safe; one editor
/// per repartitioning session.
class EditableNetlist {
 public:
  /// Start from an existing hypergraph (the journal baseline).
  explicit EditableNetlist(const Hypergraph& h);

  [[nodiscard]] std::int32_t num_modules() const { return num_modules_; }
  [[nodiscard]] std::int32_t num_nets() const {
    return static_cast<std::int32_t>(pins_.size());
  }
  /// Pins of net `n`, sorted ascending, duplicate-free.
  [[nodiscard]] std::span<const ModuleId> pins(NetId n) const;
  [[nodiscard]] std::int32_t net_weight(NetId n) const;

  /// Add a net; pins may be unsorted/duplicated (merged).  Returns its id
  /// (always the current net count).  Throws std::out_of_range on a bad
  /// module id, std::invalid_argument on weight < 1.
  NetId add_net(std::span<const ModuleId> new_pins, std::int32_t weight = 1);

  /// Remove net `n`; every higher net id shifts down by one.
  void remove_net(NetId n);

  /// Append a fresh module with no incident nets; returns its id.
  ModuleId add_module();

  /// Remove module `m`: it is stripped from every net containing it (those
  /// nets shrink but survive, even below 2 pins) and every higher module id
  /// shifts down by one.
  void remove_module(ModuleId m);

  /// Move one pin of net `n` from module `from` to module `to`.  When `to`
  /// is already a pin of `n` the pins merge and the net shrinks (same rule
  /// as HypergraphBuilder's dedup).  `from` must be a pin of `n`
  /// (std::invalid_argument otherwise); the move is then a no-op when
  /// from == to.
  void move_pin(NetId n, ModuleId from, ModuleId to);

  /// Snapshot the current netlist as an immutable Hypergraph —
  /// bit-identical to a HypergraphBuilder build of the same pin lists.
  [[nodiscard]] Hypergraph materialize() const;

  /// Return the journal since the previous drain and reset the baseline to
  /// the current state.
  ChangeSet drain_changes();

 private:
  void check_net(NetId n) const;
  void check_module(ModuleId m) const;

  std::string name_;
  std::int32_t num_modules_ = 0;
  std::vector<std::vector<ModuleId>> pins_;  // sorted unique, per net
  std::vector<std::int32_t> weights_;

  // Journal state (baseline = last drain).
  std::vector<std::int32_t> module_remap_;  // baseline id -> current
  bool edited_ = false;
};

}  // namespace netpart::repart
