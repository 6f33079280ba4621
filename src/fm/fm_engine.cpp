#include "fm/fm_engine.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "hypergraph/cut_metrics.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"

namespace netpart {

namespace {

/// apply_move prefetches the pin list and state of the net this many
/// positions further down the moved module's net list, so the misses of
/// consecutive scattered nets overlap.
constexpr std::size_t kPrefetchAhead = 8;

/// Largest weighted module degree: the FM gain bound.  Summed net by net,
/// which reads the net arrays in order instead of once per scattered
/// incident net.
std::int32_t weighted_gain_bound(const Hypergraph& h) {
  std::vector<std::int64_t> degree(static_cast<std::size_t>(h.num_modules()),
                                   0);
  for (NetId n = 0; n < h.num_nets(); ++n)
    for (const ModuleId m : h.pins(n))
      degree[static_cast<std::size_t>(m)] += h.net_weight(n);
  std::int64_t best = 0;
  for (const std::int64_t d : degree) best = std::max(best, d);
  if (best > std::numeric_limits<std::int32_t>::max() / 2)
    throw std::invalid_argument("FmEngine: net weights too large");
  return static_cast<std::int32_t>(best);
}

}  // namespace

FmEngine::FmEngine(const Hypergraph& h)
    : h_(h),
      partition_(h.num_modules(), Side::kLeft),
      nets_(static_cast<std::size_t>(h.num_nets())),
      max_gain_bound_(weighted_gain_bound(h)),
      locked_(static_cast<std::size_t>(h.num_modules()), 0),
      fixed_(static_cast<std::size_t>(h.num_modules()), 0) {
  for (NetId n = 0; n < h.num_nets(); ++n)
    nets_[static_cast<std::size_t>(n)] = {0, h.net_size(n), h.net_weight(n)};
}

void FmEngine::fix_module(ModuleId m) {
  fixed_[static_cast<std::size_t>(m)] = 1;
}

void FmEngine::reset(const Partition& p) {
  if (p.num_modules() != h_.num_modules())
    throw std::invalid_argument("FmEngine::reset: partition size mismatch");
  partition_ = p;
  std::fill(fixed_.begin(), fixed_.end(), 0);
  cut_ = 0;
  weighted_cut_ = 0;
  for (NetId n = 0; n < h_.num_nets(); ++n) {
    std::int32_t left = 0;
    for (const ModuleId m : h_.pins(n))
      if (p.side(m) == Side::kLeft) ++left;
    nets_[static_cast<std::size_t>(n)].left = left;
    if (left > 0 && left < h_.net_size(n)) {
      ++cut_;
      weighted_cut_ += h_.net_weight(n);
    }
  }
  if (!module_weight_.empty()) {
    left_weight_ = 0;
    for (ModuleId m = 0; m < h_.num_modules(); ++m)
      if (partition_.side(m) == Side::kLeft)
        left_weight_ += module_weight_[static_cast<std::size_t>(m)];
  }
}

void FmEngine::set_module_weights(std::span<const std::int64_t> weights) {
  if (weights.empty()) {
    module_weight_.clear();
    left_weight_ = 0;
    total_weight_ = 0;
    return;
  }
  if (weights.size() != static_cast<std::size_t>(h_.num_modules()))
    throw std::invalid_argument(
        "FmEngine::set_module_weights: size mismatch");
  total_weight_ = 0;
  for (const std::int64_t w : weights) {
    if (w <= 0)
      throw std::invalid_argument(
          "FmEngine::set_module_weights: weights must be positive");
    total_weight_ += w;
  }
  module_weight_.assign(weights.begin(), weights.end());
  left_weight_ = 0;
  for (ModuleId m = 0; m < h_.num_modules(); ++m)
    if (partition_.side(m) == Side::kLeft)
      left_weight_ += module_weight_[static_cast<std::size_t>(m)];
}

double FmEngine::ratio() const {
  if (!partition_.is_proper())
    return std::numeric_limits<double>::infinity();
  if (module_weight_.empty())
    return static_cast<double>(weighted_cut_) /
           static_cast<double>(partition_.size_product());
  // Positive weights make left_weight_ > 0 and right > 0 exactly when the
  // partition is proper, so the product below is never zero here.
  return static_cast<double>(weighted_cut_) /
         (static_cast<double>(left_weight_) *
          static_cast<double>(total_weight_ - left_weight_));
}

std::int32_t FmEngine::gain_of(ModuleId m) const {
  const Side from = partition_.side(m);
  const Side to = opposite(from);
  std::int32_t gain = 0;
  for (const NetId n : h_.nets_of(m)) {
    const std::int32_t w = nets_[static_cast<std::size_t>(n)].weight;
    if (pins_on_side(n, from) == 1) gain += w;  // move uncuts
    if (pins_on_side(n, to) == 0) gain -= w;    // move newly cuts
  }
  return gain;
}

void FmEngine::apply_move(ModuleId m, GainBuckets& left_bucket,
                          GainBuckets& right_bucket) {
  const Side from = partition_.side(m);
  const Side to = opposite(from);
  const auto adjust = [&](ModuleId c, std::int32_t delta) {
    // A free module sits in the bucket of its current side (only `m`
    // changes side during a pass, and it is locked); locked and fixed
    // modules sit in neither, where adjust is a no-op.
    (partition_.side(c) == Side::kLeft ? left_bucket : right_bucket)
        .adjust(c, delta);
  };

  const auto nets = h_.nets_of(m);
  for (std::size_t i = 0; i < nets.size(); ++i) {
    const NetId n = nets[i];
    if (i + kPrefetchAhead < nets.size()) {
      const NetId ahead = nets[i + kPrefetchAhead];
      __builtin_prefetch(h_.pins(ahead).data());
      __builtin_prefetch(&nets_[static_cast<std::size_t>(ahead)]);
    }
    NetState& net = nets_[static_cast<std::size_t>(n)];
    const std::int32_t size = net.size;
    const std::int32_t weight = net.weight;
    // Pre-move rules (classic FM): counts still exclude m from `to`.
    const std::int32_t to_before = pins_on_side(n, to);
    if (to_before == 0) {
      for (const ModuleId c : h_.pins(n))
        if (c != m) adjust(c, +weight);
    } else if (to_before == 1) {
      for (const ModuleId c : h_.pins(n))
        if (c != m && partition_.side(c) == to) {
          adjust(c, -weight);
          break;
        }
    }

    // The move itself on this net's counts and the cut.
    std::int32_t& left = net.left;
    const bool was_cut = left > 0 && left < size;
    left += (to == Side::kLeft) ? 1 : -1;
    const bool now_cut = left > 0 && left < size;
    if (now_cut != was_cut) {
      const std::int32_t sign = now_cut ? 1 : -1;
      cut_ += sign;
      weighted_cut_ += sign * static_cast<std::int64_t>(weight);
    }

    // Post-move rules: counts now exclude m from `from`.
    const std::int32_t from_after = pins_on_side(n, from);
    if (from_after == 0) {
      for (const ModuleId c : h_.pins(n))
        if (c != m) adjust(c, -weight);
    } else if (from_after == 1) {
      for (const ModuleId c : h_.pins(n))
        if (c != m && partition_.side(c) == from) {
          adjust(c, +weight);
          break;
        }
    }
  }
  if (!module_weight_.empty())
    left_weight_ += (to == Side::kLeft ? 1 : -1) *
                    module_weight_[static_cast<std::size_t>(m)];
  partition_.assign(m, to);
}

void FmEngine::undo_move(ModuleId m) {
  const Side to = opposite(partition_.side(m));
  for (const NetId n : h_.nets_of(m)) {
    NetState& net = nets_[static_cast<std::size_t>(n)];
    const bool was_cut = net.left > 0 && net.left < net.size;
    net.left += (to == Side::kLeft) ? 1 : -1;
    const bool now_cut = net.left > 0 && net.left < net.size;
    if (now_cut != was_cut) {
      const std::int32_t sign = now_cut ? 1 : -1;
      cut_ += sign;
      weighted_cut_ += sign * static_cast<std::int64_t>(net.weight);
    }
  }
  if (!module_weight_.empty())
    left_weight_ += (to == Side::kLeft ? 1 : -1) *
                    module_weight_[static_cast<std::size_t>(m)];
  partition_.assign(m, to);
}

FmPassResult FmEngine::run_pass(bool use_ratio, std::int32_t min_left,
                                std::int32_t max_left) {
  const std::int32_t n = h_.num_modules();
  std::fill(locked_.begin(), locked_.end(), 0);
  GainBuckets left_bucket(n, max_gain_bound_);
  GainBuckets right_bucket(n, max_gain_bound_);
  for (ModuleId m = 0; m < n; ++m) {
    if (fixed_[static_cast<std::size_t>(m)]) continue;  // terminal: pinned
    const std::int32_t g = gain_of(m);
    (partition_.side(m) == Side::kLeft ? left_bucket : right_bucket)
        .insert(m, g);
  }

  std::vector<ModuleId> moves;
  moves.reserve(static_cast<std::size_t>(n));
  const std::int64_t start_cut = weighted_cut_;
  std::int64_t best_cut = weighted_cut_;
  double best_ratio = ratio();
  std::size_t best_prefix = 0;

  const auto violation = [&](std::int32_t left_size) {
    if (left_size < min_left) return min_left - left_size;
    if (left_size > max_left) return left_size - max_left;
    return 0;
  };

  for (std::int32_t step = 0; step < n; ++step) {
    const std::int32_t left_size = partition_.size(Side::kLeft);
    const std::int32_t current_violation = violation(left_size);
    // A move is feasible when it keeps both sides non-empty and either
    // stays within the classic single-cell wobble around the window
    // (FM's "r|V| +- smax" slack) or strictly reduces an existing
    // violation.  Only zero-violation prefixes can be kept as results.
    const bool from_left_ok =
        !left_bucket.empty() && left_size > 1 &&
        violation(left_size - 1) <= std::max(current_violation - 1, 1);
    const bool from_right_ok =
        !right_bucket.empty() && left_size < n - 1 &&
        violation(left_size + 1) <= std::max(current_violation - 1, 1);
    if (!from_left_ok && !from_right_ok) break;

    GainBuckets* bucket = nullptr;
    if (from_left_ok && from_right_ok) {
      if (left_bucket.max_gain() != right_bucket.max_gain())
        bucket = left_bucket.max_gain() > right_bucket.max_gain()
                     ? &left_bucket
                     : &right_bucket;
      else  // tie: move from the larger side to improve balance
        bucket = left_size * 2 >= n ? &left_bucket : &right_bucket;
    } else {
      bucket = from_left_ok ? &left_bucket : &right_bucket;
    }

    const ModuleId m = bucket->max_item();
    bucket->remove(m);
    locked_[static_cast<std::size_t>(m)] = 1;
    apply_move(m, left_bucket, right_bucket);
    moves.push_back(m);

    if (use_ratio) {
      const double r = ratio();
      if (r < best_ratio) {
        best_ratio = r;
        best_prefix = moves.size();
      }
    } else if (weighted_cut_ < best_cut &&
               violation(partition_.size(Side::kLeft)) == 0) {
      best_cut = weighted_cut_;
      best_prefix = moves.size();
    }
    if (stall_limit_ > 0 &&
        moves.size() - best_prefix >= static_cast<std::size_t>(stall_limit_))
      break;
  }

  // Roll back to the best prefix.
  for (std::size_t i = moves.size(); i > best_prefix; --i)
    undo_move(moves[i - 1]);

  FmPassResult result;
  result.moves_tried = static_cast<std::int32_t>(moves.size());
  result.prefix_kept = static_cast<std::int32_t>(best_prefix);
  result.improved = best_prefix > 0;
  // Counters only (no spans): passes may run on FM worker threads, and the
  // span tree belongs to the orchestrating thread.
  NETPART_COUNTER_ADD("fm.passes", 1);
  NETPART_COUNTER_ADD("fm.moves_tried", result.moves_tried);
  NETPART_COUNTER_ADD("fm.moves_rejected",
                      result.moves_tried - result.prefix_kept);
  // Per-pass convergence record: total weighted gain kept by this pass.
  // Wait-free, so it is safe from FM worker threads.
  NETPART_EVENT("fm.pass", {"start_cut", static_cast<double>(start_cut)},
                {"end_cut", static_cast<double>(weighted_cut_)},
                {"gain", static_cast<double>(start_cut - weighted_cut_)},
                {"moves_tried", static_cast<double>(result.moves_tried)});
  return result;
}

FmPassResult FmEngine::pass_min_cut(std::int32_t min_left,
                                    std::int32_t max_left) {
  if (min_left < 0 || max_left > h_.num_modules() || min_left > max_left)
    throw std::invalid_argument("pass_min_cut: bad balance window");
  return run_pass(/*use_ratio=*/false, min_left, max_left);
}

FmPassResult FmEngine::pass_ratio_cut() {
  return run_pass(/*use_ratio=*/true, 0, h_.num_modules());
}

}  // namespace netpart
