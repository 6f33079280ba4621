#pragma once

#include <cstdint>
#include <optional>

#include "cluster/multilevel.hpp"
#include "graph/intersection_graph.hpp"
#include "hypergraph/hypergraph.hpp"
#include "hypergraph/partition.hpp"
#include "igmatch/igmatch.hpp"
#include "linalg/lanczos.hpp"
#include "repart/editable_netlist.hpp"

/// \file session.hpp
/// The incremental repartitioning session: edits in, partitions out.
///
/// A session owns one evolving netlist and the previous answer.  Each
/// `repartition()` materializes the pending edits, solves the edited
/// netlist, and carries the previous partition forward across the batch's
/// module remap (new modules join the left side) as a competing answer:
///  - below `vcycle_threshold` modules the solve is exactly
///    `igmatch_partition(hypergraph(), {weighting, lanczos})`, which builds
///    its own intersection graph; the carried-forward partition replaces
///    its answer only with a strictly lower ratio cut, so a flat answer is
///    either bit-identical to a cold IG-Match run on the same netlist or
///    the remapped previous partition;
///  - at or above the threshold the carried-forward partition seeds
///    partition-constrained V-cycles (improvement-guarded, so never worse
///    than the partition they start from), and a session with no previous
///    answer runs a cold `multilevel_partition`.
///
/// The previous partition is the whole warm state, so `export_warm_state()`
/// and `import_warm_state()` move it between sessions over bit-identical
/// netlists: an importer takes exactly the exporter's next step, on either
/// path.

namespace netpart::repart {

struct RepartitionOptions {
  IgWeighting weighting = IgWeighting::kPaper;
  /// Lanczos settings of the flat path's spectral ordering.
  linalg::LanczosOptions lanczos;
  /// Netlists with at least this many modules take the multilevel V-cycle
  /// path: cold runs replace the flat spectral pipeline with
  /// multilevel_partition, and warm runs refine the remapped previous
  /// partition through partition-constrained V-cycles (guarded, so never
  /// worse than carrying the old answer forward).  0 disables the path;
  /// below the threshold behaviour is bit-identical to the flat session.
  std::int32_t vcycle_threshold = 100000;
  /// Multilevel engine settings for that path; weighting and lanczos are
  /// overridden from the fields above so the two paths stay consistent.
  MultilevelOptions vcycle;
};

/// Portable snapshot of a session's warm state: the previous partition.
/// The server's result cache stores one of these per cold run so that a
/// *different* session over a bit-identical netlist can adopt it and
/// behave — bit for bit — as if it had performed the cold run itself.  The
/// partition is indexed by the dense module ids of the netlist the state
/// was exported from; callers must guarantee content identity (the server
/// keys by `netlist_content_hash`).
struct SessionWarmState {
  bool valid = false;
  Partition partition;
};

struct RepartitionResult {
  Partition partition;
  std::int32_t nets_cut = 0;
  double ratio = 0.0;
  double lambda2 = 0.0;
  bool eigen_converged = false;
  std::int32_t lanczos_iterations = 0;
  /// The remapped previous partition took part in this run: as the flat
  /// path's competing answer, or as the V-cycle path's seed.  False runs
  /// are pure functions of the netlist (the server memoizes only those).
  bool warm_started = false;
  /// The remapped previous partition was kept: on the flat path it cut a
  /// strictly lower ratio than IG-Match; on the V-cycle path no cycle
  /// improved on it.
  bool used_previous_partition = false;
  /// This run went through the multilevel V-cycle path.
  bool used_vcycle = false;
  /// V-cycle path: constrained cycles that strictly improved the ratio.
  std::int32_t vcycles_run = 0;
  /// Split ranks the flat sweep evaluated, of the m - 1 it could.  The
  /// sweep is always full, so the two are equal on every flat run; both
  /// stay 0 when no sweep ran: on the V-cycle path and on a netlist with
  /// fewer than two nets or modules.
  std::int32_t sweep_ranks_evaluated = 0;
  std::int32_t sweep_ranks_total = 0;
};

class RepartitionSession {
 public:
  explicit RepartitionSession(const Hypergraph& initial,
                              RepartitionOptions options = {});

  /// The mutable netlist; apply edits here, then call repartition().
  [[nodiscard]] EditableNetlist& netlist() { return editor_; }

  /// Fold pending edits into the netlist and produce a partition of it.
  /// The first call (and any call after the previous answer was lost) is a
  /// cold run; later calls also weigh the carried-forward partition.
  RepartitionResult repartition();

  /// Current materialized hypergraph (as of the last repartition()).
  [[nodiscard]] const Hypergraph& hypergraph() const { return h_; }

  [[nodiscard]] const RepartitionOptions& options() const { return options_; }

  /// Snapshot the warm state for reuse by another session over a
  /// bit-identical netlist.  `valid` is false until the first successful
  /// repartition().
  [[nodiscard]] SessionWarmState export_warm_state() const;

  /// Adopt a warm state exported after a repartition() of a netlist whose
  /// content is bit-identical to this session's *current* netlist.  The next
  /// repartition() then takes the exact step the exporting session would
  /// have taken.  Call only on a session with no pending edits; a dimension
  /// mismatch degrades to an (exact) cold run instead of producing wrong
  /// answers.
  void import_warm_state(SessionWarmState state);

 private:
  /// The previous answer carried across the batch's module remap, new
  /// modules on the left; nullopt when there is no valid previous answer
  /// of the remap's baseline, or when carrying it forward leaves a side
  /// empty.
  [[nodiscard]] std::optional<Partition> carried_forward(
      const ChangeSet& changes) const;

  /// The multilevel path: V-cycle cold solve, or partition-constrained
  /// V-cycle refinement seeded with the carried-forward partition.
  RepartitionResult repartition_vcycle(std::optional<Partition> carried,
                                       RepartitionResult out);

  RepartitionOptions options_;
  EditableNetlist editor_;
  Hypergraph h_;

  // Warm state: the previous answer, in the module space of the netlist as
  // of the last drain.  valid_ is false until the first successful run.
  bool valid_ = false;
  Partition prev_partition_;
};

}  // namespace netpart::repart
