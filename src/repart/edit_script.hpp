#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "repart/editable_netlist.hpp"

/// \file edit_script.hpp
/// Textual ECO edit-script format consumed by `netpart partition
/// --repartition <file>`.
///
/// Line-oriented; '#' starts a comment, blank lines are ignored:
///
///     add-net <name> <module>...     # new net over 0-based module ids
///     remove-net <name>
///     add-module                     # appends module (next dense id)
///     remove-module <module>         # higher module ids shift down by one
///     move-pin <name> <from> <to>
///     commit                         # repartition the design here
///
/// A script is a sequence of batches separated by `commit`; trailing edits
/// after the last `commit` form one final implicit batch.  Nets of the
/// original design are addressed as n0..n{m-1}; `add-net` registers a fresh
/// name (colliding with a live name is a semantic error at apply time).
///
/// Syntax errors raise io::ParseError with the offending line number;
/// semantic errors (unknown net name, module id out of range, duplicate
/// name) surface as std::invalid_argument / std::out_of_range from the
/// applier, after parsing succeeded.

namespace netpart::repart {

enum class EditOpKind : std::uint8_t {
  kAddNet,
  kRemoveNet,
  kAddModule,
  kRemoveModule,
  kMovePin,
};

struct EditOp {
  EditOpKind kind = EditOpKind::kAddModule;
  std::string net_name;          // kAddNet / kRemoveNet / kMovePin
  std::vector<ModuleId> pins;    // kAddNet
  ModuleId module_a = -1;        // kRemoveModule target / kMovePin from
  ModuleId module_b = -1;        // kMovePin to
};

/// One commit's worth of edits.
using EditBatch = std::vector<EditOp>;

struct EditScript {
  std::vector<EditBatch> batches;
};

/// Parse an edit script; throws io::ParseError on malformed input.
[[nodiscard]] EditScript read_edit_script(std::istream& in);

/// Read a script file from disk; throws std::runtime_error if unopenable.
[[nodiscard]] EditScript read_edit_script_file(const std::string& path);

/// Applies parsed edit ops to an EditableNetlist, resolving net names to
/// the netlist's shifting dense ids.  Construct over a netlist whose nets
/// carry the default names n0..n{m-1}; every later edit of that netlist must
/// go through this applier.
///
/// Names resolve through stable handles: the nets of the original design
/// are handles 0..m-1 (their names are parsed, not stored), and each
/// add-net takes the next handle and a map entry.  The netlist appends
/// added nets and keeps the order of survivors, so live handles sorted
/// ascending are the nets in current-id order: `handle_of_[id]` is the
/// handle of net `id`, and a handle's current id is its position there.  A
/// remove-net shifts that one int array; nothing else is rewritten.  The
/// array is built on the first apply(), so appliers that never edit cost
/// nothing beyond their construction.
class EditScriptApplier {
 public:
  explicit EditScriptApplier(EditableNetlist& netlist);

  /// Apply every op of one batch in order.  Throws std::invalid_argument on
  /// unknown/duplicate net names and propagates the netlist's own range
  /// errors; the netlist is left with all ops before the faulty one applied.
  void apply(const EditBatch& batch);

 private:
  /// Current id of the live net called `name`, or -1.
  [[nodiscard]] NetId live_id(const std::string& name) const;
  /// live_id, throwing std::invalid_argument for an unknown name.
  [[nodiscard]] NetId resolve(const std::string& name) const;

  EditableNetlist& netlist_;
  std::int32_t initial_nets_;  // handles of the default names n0..n{m-1}
  std::int32_t next_handle_;   // handle of the next add-net
  bool table_built_ = false;
  std::vector<std::int32_t> handle_of_;  // by current net id, ascending
  std::unordered_map<std::string, std::int32_t> added_;  // add-net name -> handle
};

}  // namespace netpart::repart
