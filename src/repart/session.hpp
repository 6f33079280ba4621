#pragma once

#include <cstdint>
#include <vector>

#include "cluster/multilevel.hpp"
#include "graph/intersection_graph.hpp"
#include "graph/weighted_graph.hpp"
#include "hypergraph/hypergraph.hpp"
#include "hypergraph/partition.hpp"
#include "igmatch/igmatch.hpp"
#include "linalg/lanczos.hpp"
#include "repart/editable_netlist.hpp"
#include "repart/incremental_ig.hpp"

/// \file session.hpp
/// The incremental repartitioning session: edits in, partitions out.
///
/// A session owns one evolving netlist plus three caches that make the
/// next `repartition()` cheap:
///  - the incrementally maintained intersection graph (delta row rebuilds);
///  - the previous run's Fiedler vector, fed back as the Lanczos warm
///    start.  It trims iterations rather than skipping them: bench/
///    repartition on a 4-CPU host measured a median of 224 warm
///    iterations against 304 cold at 12k modules, and 110 against 144 at
///    1 200 modules;
///  - the previous net ordering and winning split rank, used to restrict
///    the IG-Match sweep to the *perturbed region* — ranks where the
///    ordering actually moved, ranks of nets whose IG rows changed, and a
///    window around the previous winner.
///
/// Quality guard: the remapped previous partition is always evaluated as a
/// candidate, so a warm repartition is never worse than carrying the old
/// answer forward; when the masked region covers most of the sweep anyway
/// the session falls back to the full sweep.  With `warm_start` disabled
/// every repartition is an exact cold run — bit-identical to
/// `igmatch_partition` on the materialized hypergraph — which is the
/// equivalence oracle the property tests lean on.

namespace netpart::repart {

struct RepartitionOptions {
  IgWeighting weighting = IgWeighting::kPaper;
  /// Lanczos settings for cold runs (warm runs override check_interval).
  linalg::LanczosOptions lanczos;
  /// Ritz check cadence for warm-started runs; 1 stops a warm run at the
  /// first iteration that converges.
  std::int32_t warm_check_interval = 1;
  /// Dilation radius (in ranks) of the perturbed-region sweep mask.
  std::int32_t sweep_window = 48;
  /// Masked fraction of ranks above which the session runs the full sweep
  /// (the mask would not save anything and the full sweep is strictly
  /// more thorough).
  double full_sweep_fraction = 0.6;
  /// Disable to make every repartition an exact cold run (no warm vector,
  /// no mask, no previous-partition candidate) while still exercising the
  /// incremental IG maintenance.
  bool warm_start = true;
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

/// Portable snapshot of a session's warm-start cache (Fiedler vector, net
/// ordering, winning split, previous partition).  The server's result cache
/// stores one of these per cold run so that a *different* session over a
/// bit-identical netlist can adopt it and behave — bit for bit — as if it
/// had performed the cold run itself.  Vectors are indexed by the dense
/// net/module ids of the netlist the state was exported from; callers must
/// guarantee content identity (the server keys by `netlist_content_hash`).
struct SessionWarmState {
  bool valid = false;
  std::vector<double> fiedler;           // per net id
  std::vector<std::int32_t> order;       // net ids by Fiedler rank
  std::int32_t best_rank = 0;
  Partition partition;                   // module space
  std::int32_t cold_iterations = 0;
};

struct RepartitionResult {
  Partition partition;
  std::int32_t nets_cut = 0;
  double ratio = 0.0;
  double lambda2 = 0.0;
  bool eigen_converged = false;
  std::int32_t lanczos_iterations = 0;
  bool warm_started = false;
  /// The remapped previous partition beat the masked sweep and was kept
  /// (V-cycle path: no cycle improved on the remapped previous partition).
  bool used_previous_partition = false;
  /// This run went through the multilevel V-cycle path.
  bool used_vcycle = false;
  /// V-cycle path: constrained cycles that strictly improved the ratio.
  std::int32_t vcycles_run = 0;
  std::int32_t sweep_ranks_evaluated = 0;
  std::int32_t sweep_ranks_total = 0;
  std::int32_t ig_rows_rebuilt = 0;
  std::int32_t ig_rows_reused = 0;
};

class RepartitionSession {
 public:
  explicit RepartitionSession(const Hypergraph& initial,
                              RepartitionOptions options = {});

  /// The mutable netlist; apply edits here, then call repartition().
  [[nodiscard]] EditableNetlist& netlist() { return editor_; }

  /// Fold pending edits into the caches and produce a partition of the
  /// current netlist.  The first call (and any call after cache
  /// invalidation) is a cold full run that primes the caches.
  RepartitionResult repartition();

  /// Current materialized hypergraph (as of the last repartition()).
  [[nodiscard]] const Hypergraph& hypergraph() const { return h_; }

  /// Current intersection graph (incrementally maintained snapshot).
  [[nodiscard]] const WeightedGraph& intersection_graph() const { return ig_; }

  [[nodiscard]] const RepartitionOptions& options() const { return options_; }

  /// Snapshot the warm-start cache for reuse by another session over a
  /// bit-identical netlist.  `valid` mirrors the internal cache validity
  /// (false until the first successful repartition()).
  [[nodiscard]] SessionWarmState export_warm_state() const;

  /// Adopt a warm state exported after a repartition() of a netlist whose
  /// content is bit-identical to this session's *current* netlist.  The next
  /// repartition() then takes the exact warm path the exporting session
  /// would have taken.  Call only on a session with no pending edits; a
  /// dimension mismatch degrades to an (exact) cold run instead of
  /// producing wrong answers.
  void import_warm_state(SessionWarmState state);

 private:
  std::vector<char> build_rank_mask(const ChangeSet& changes,
                                    const std::vector<std::int32_t>& order);

  /// The multilevel path: V-cycle cold solve, or partition-constrained
  /// V-cycle refinement warm-started from the remapped previous partition.
  RepartitionResult repartition_vcycle(const ChangeSet& changes,
                                       RepartitionResult out);

  RepartitionOptions options_;
  EditableNetlist editor_;
  Hypergraph h_;
  IncrementalIntersectionGraph inc_ig_;
  WeightedGraph ig_;

  // Warm-start cache (valid_ false until the first successful run).  The
  // V-cycle path needs only the previous partition, so it keys off
  // partition_cache_valid_; cache_valid_ additionally vouches for the
  // Fiedler vector and ordering the flat path warm-starts from.
  bool cache_valid_ = false;
  bool partition_cache_valid_ = false;
  std::vector<double> prev_fiedler_;        // per net id of the cached epoch
  std::vector<std::int32_t> prev_order_;    // net ids, cached epoch
  std::int32_t prev_best_rank_ = 0;
  Partition prev_partition_;                // module space of cached epoch
  std::int32_t cold_iterations_ = 0;        // Lanczos cost of last cold run
};

}  // namespace netpart::repart
