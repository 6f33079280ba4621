#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fm/gain_buckets.hpp"
#include "hypergraph/hypergraph.hpp"
#include "hypergraph/partition.hpp"

/// \file fm_engine.hpp
/// The Fiduccia-Mattheyses pass engine: per-net side counts, cut gains with
/// constant-time delta updates, bucket selection, and best-prefix rollback.
/// Two pass flavours sit on top of the same machinery:
///  - min-cut passes with a hard balance window (classic r-bipartition);
///  - ratio-cut passes with no balance window, where the best prefix is
///    chosen by the ratio-cut metric (the Wei-Cheng RCut style).

namespace netpart {

/// Result of a single FM pass.
struct FmPassResult {
  std::int32_t moves_tried = 0;    ///< modules tentatively moved
  std::int32_t prefix_kept = 0;    ///< moves kept after rollback
  bool improved = false;           ///< objective strictly improved
};

/// Mutable FM state over one hypergraph.  Construct once, then reset() with
/// an initial partition and run passes until none improves.
class FmEngine {
 public:
  explicit FmEngine(const Hypergraph& h);

  /// Load an initial partition (any balance).  Clears any fixed set;
  /// module weights (if any) are kept.
  void reset(const Partition& p);

  /// Optional positive per-module weights for the ratio objective: ratio()
  /// becomes weighted_cut / (left_weight * right_weight).  The multilevel
  /// engine sets each coarse module's weight to the number of fine modules
  /// it represents, which makes a coarse-level ratio pass optimize the
  /// projected fine-level ratio exactly.  An empty span restores unit
  /// weights.  Min-cut balance windows stay count-based.
  void set_module_weights(std::span<const std::int64_t> weights);

  /// Pin `m` to its current side: no pass will ever move it.  Fixed
  /// modules ("terminals", Dunlop-Kernighan style) let callers refine a
  /// region while honouring commitments made outside it.
  void fix_module(ModuleId m);

  /// True when `m` is pinned.
  [[nodiscard]] bool is_fixed(ModuleId m) const {
    return fixed_[static_cast<std::size_t>(m)] != 0;
  }

  /// One balance-constrained min-cut pass: the left side size is kept in
  /// [min_left, max_left] after every kept move.  Best prefix = minimum cut.
  FmPassResult pass_min_cut(std::int32_t min_left, std::int32_t max_left);

  /// One ratio-cut pass: no balance window (sides only need to stay
  /// non-empty); best prefix = minimum ratio cut.
  FmPassResult pass_ratio_cut();

  /// Abort a pass after this many consecutive moves without a new best
  /// prefix (0 = walk the full move sequence, the classic FM behaviour).
  /// Refinement passes over near-converged partitions find their best
  /// prefix within the first few moves; the rest of the sequence is pure
  /// apply/rollback cost.
  void set_stall_limit(std::int32_t limit) { stall_limit_ = limit; }

  /// Current partition (valid after reset / passes).
  [[nodiscard]] const Partition& partition() const { return partition_; }

  /// Current net cut (cardinality).
  [[nodiscard]] std::int32_t cut() const { return cut_; }

  /// Current weighted net cut (= cut() on unweighted netlists).  This is
  /// the quantity the passes optimize: gains are scaled by net weight.
  [[nodiscard]] std::int64_t weighted_cut() const { return weighted_cut_; }

  /// Current (weighted) ratio-cut value.
  [[nodiscard]] double ratio() const;

 private:
  /// Move `m` across, updating side counts, the cut, and the gains of free
  /// (still-bucketed) modules per the classic FM delta rules.
  void apply_move(ModuleId m, GainBuckets& left_bucket,
                  GainBuckets& right_bucket);

  /// Flip `m` back during rollback (counts and cut only; buckets are dead).
  void undo_move(ModuleId m);

  /// FM gain of moving `m` to the other side.
  [[nodiscard]] std::int32_t gain_of(ModuleId m) const;

  [[nodiscard]] std::int32_t pins_on_side(NetId n, Side s) const {
    const NetState& net = nets_[static_cast<std::size_t>(n)];
    return s == Side::kLeft ? net.left : net.size - net.left;
  }

  /// Shared pass skeleton; `use_ratio` selects the objective.
  FmPassResult run_pass(bool use_ratio, std::int32_t min_left,
                        std::int32_t max_left);

  /// What a move reads and writes per incident net, in one record: at
  /// dense coarse levels a move touches thousands of nets scattered over
  /// the net range, and one cache line per net beats three arrays.
  struct NetState {
    std::int32_t left;    ///< pins on the left side
    std::int32_t size;    ///< h_.net_size(n)
    std::int32_t weight;  ///< h_.net_weight(n)
  };

  const Hypergraph& h_;
  Partition partition_;
  std::vector<NetState> nets_;
  std::int32_t cut_ = 0;
  std::int64_t weighted_cut_ = 0;
  std::int32_t max_gain_bound_ = 0;  ///< max weighted module degree
  std::int32_t stall_limit_ = 0;     ///< 0 = no early pass abort
  std::vector<char> locked_;
  std::vector<char> fixed_;  ///< terminals excluded from every pass
  // Module weights for the ratio objective (empty = unit weights); the
  // left-side total is maintained incrementally across moves.
  std::vector<std::int64_t> module_weight_;
  std::int64_t left_weight_ = 0;
  std::int64_t total_weight_ = 0;
};

}  // namespace netpart
