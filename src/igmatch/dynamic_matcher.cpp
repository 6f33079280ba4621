#include "igmatch/dynamic_matcher.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "obs/events.hpp"
#include "obs/metrics.hpp"

namespace netpart {

namespace {

#if defined(__GNUC__) || defined(__clang__)
inline void prefetch_read(const void* p) { __builtin_prefetch(p, 0, 1); }
#else
inline void prefetch_read(const void*) {}
#endif

}  // namespace

DynamicBipartiteMatcher::DynamicBipartiteMatcher(
    const WeightedGraph& conflict_graph)
    : graph_(conflict_graph),
      n_(conflict_graph.num_vertices()),
      left_count_(conflict_graph.num_vertices()),
      side_(static_cast<std::size_t>(conflict_graph.num_vertices()),
            NetSide::kLeft),
      label_(static_cast<std::size_t>(conflict_graph.num_vertices()),
             NetLabel::kWinnerLeft),
      in_loser_(static_cast<std::size_t>(conflict_graph.num_vertices()), 0) {
  const std::int64_t nnz64 = conflict_graph.adjacency_nonzeros();
  if (nnz64 > std::numeric_limits<std::int32_t>::max())
    throw std::invalid_argument(
        "DynamicBipartiteMatcher: adjacency too large for int32 slots");
  const auto nnz = static_cast<std::int32_t>(nnz64);
  const auto n = static_cast<std::size_t>(n_);

  // One arena for every int32 lane: ten per-vertex lanes plus the mutable
  // sectioned adjacency and its reverse-slot (mate) lane.
  const std::size_t arena_size = 10 * n + 2 * static_cast<std::size_t>(nnz);
  arena_ = std::make_unique<std::int32_t[]>(arena_size);
  std::int32_t* base = arena_.get();
  auto carve = [&base](std::size_t count) {
    std::span<std::int32_t> s{base, count};
    base += count;
    return s;
  };
  match_ = carve(n);
  visit_stamp_ = carve(n);
  from_right_ = carve(n);
  l_end_ = carve(n);
  row_begin_ = carve(n);
  row_end_ = carve(n);
  free_pos_ = carve(n);
  seed_count_ = carve(n);
  seed_pos_ = carve(n);
  cand_stamp_ = carve(n);
  adj_ = carve(static_cast<std::size_t>(nnz));
  mate_ = carve(static_cast<std::size_t>(nnz));

  std::int32_t offset = 0;
  for (std::int32_t v = 0; v < n_; ++v) {
    const auto row = conflict_graph.neighbors(v);
    row_begin_[static_cast<std::size_t>(v)] = offset;
    std::copy(row.begin(), row.end(),
              adj_.begin() + static_cast<std::size_t>(offset));
    offset += static_cast<std::int32_t>(row.size());
    row_end_[static_cast<std::size_t>(v)] = offset;
    // Everything starts on the Left, so each row is one big L-section.
    l_end_[static_cast<std::size_t>(v)] = offset;
    match_[static_cast<std::size_t>(v)] = -1;
    visit_stamp_[static_cast<std::size_t>(v)] = 0;
    from_right_[static_cast<std::size_t>(v)] = -1;
    seed_count_[static_cast<std::size_t>(v)] = 0;
    seed_pos_[static_cast<std::size_t>(v)] = -1;
    cand_stamp_[static_cast<std::size_t>(v)] = 0;
  }
  // Reverse slots: rows are sorted ascending at build time, so the slot of
  // v inside w's row is found by binary search once.
  for (std::int32_t v = 0; v < n_; ++v) {
    const std::int32_t begin = row_begin_[static_cast<std::size_t>(v)];
    const std::int32_t end = row_end_[static_cast<std::size_t>(v)];
    for (std::int32_t s = begin; s < end; ++s) {
      const std::int32_t w = adj_[static_cast<std::size_t>(s)];
      const auto w_begin =
          adj_.begin() + static_cast<std::size_t>(
                             row_begin_[static_cast<std::size_t>(w)]);
      const auto w_end = adj_.begin() + static_cast<std::size_t>(
                                            row_end_[static_cast<std::size_t>(w)]);
      const auto it = std::lower_bound(w_begin, w_end, v);
      mate_[static_cast<std::size_t>(s)] =
          static_cast<std::int32_t>(it - adj_.begin());
    }
  }
  // Every vertex starts free on the Left.
  free_left_.reserve(n);
  for (std::int32_t v = 0; v < n_; ++v) {
    free_pos_[static_cast<std::size_t>(v)] = v;
    free_left_.push_back(v);
  }
}

void DynamicBipartiteMatcher::seed_adjust(std::int32_t v, std::int32_t delta) {
  const auto idx = static_cast<std::size_t>(v);
  seed_count_[idx] += delta;
  std::vector<std::int32_t>& seeds =
      side_[idx] == NetSide::kLeft ? seeds_left_ : seeds_right_;
  if (delta > 0) {
    if (seed_count_[idx] > 0 && seed_pos_[idx] == -1) {
      seed_pos_[idx] = static_cast<std::int32_t>(seeds.size());
      seeds.push_back(v);
    }
  } else if (seed_count_[idx] <= 0 && seed_pos_[idx] != -1) {
    const std::int32_t pos = seed_pos_[idx];
    const std::int32_t last = seeds.back();
    seeds[static_cast<std::size_t>(pos)] = last;
    seed_pos_[static_cast<std::size_t>(last)] = pos;
    seeds.pop_back();
    seed_pos_[idx] = -1;
  }
}

void DynamicBipartiteMatcher::add_free(std::int32_t v) {
  const auto idx = static_cast<std::size_t>(v);
  std::vector<std::int32_t>& list =
      side_[idx] == NetSide::kLeft ? free_left_ : free_right_;
  free_pos_[idx] = static_cast<std::int32_t>(list.size());
  list.push_back(v);
  dirty_.push_back(v);
  // Opposite-side neighbors gain one free neighbor: they become (or stay)
  // BFS seeds for the loser-set rebuild.
  if (side_[idx] == NetSide::kLeft) {
    for (std::int32_t s = l_end_[idx]; s < row_end_[idx]; ++s)
      seed_adjust(adj_[static_cast<std::size_t>(s)], 1);
  } else {
    for (std::int32_t s = row_begin_[idx]; s < l_end_[idx]; ++s)
      seed_adjust(adj_[static_cast<std::size_t>(s)], 1);
  }
}

void DynamicBipartiteMatcher::remove_free(std::int32_t v) {
  const auto idx = static_cast<std::size_t>(v);
  std::vector<std::int32_t>& list =
      side_[idx] == NetSide::kLeft ? free_left_ : free_right_;
  const std::int32_t pos = free_pos_[idx];
  const std::int32_t last = list.back();
  list[static_cast<std::size_t>(pos)] = last;
  free_pos_[static_cast<std::size_t>(last)] = pos;
  list.pop_back();
  free_pos_[idx] = -1;
  dirty_.push_back(v);
  if (side_[idx] == NetSide::kLeft) {
    for (std::int32_t s = l_end_[idx]; s < row_end_[idx]; ++s)
      seed_adjust(adj_[static_cast<std::size_t>(s)], -1);
  } else {
    for (std::int32_t s = row_begin_[idx]; s < l_end_[idx]; ++s)
      seed_adjust(adj_[static_cast<std::size_t>(s)], -1);
  }
}

void DynamicBipartiteMatcher::set_match(std::int32_t a, std::int32_t b) {
  match_[static_cast<std::size_t>(a)] = b;
  match_[static_cast<std::size_t>(b)] = a;
  dirty_.push_back(a);
  dirty_.push_back(b);
}

bool DynamicBipartiteMatcher::augment_from_right(std::int32_t root) {
  ++augmenting_searches_;
  ++stamp_;
  queue_.clear();
  queue_.push_back(root);
  visit_stamp_[static_cast<std::size_t>(root)] = stamp_;

  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const std::int32_t y = queue_[head];
    // The L-section of y's row is exactly its active (cross-side)
    // adjacency: no per-edge side test, and the suspended mid-move vertex
    // is already re-sectioned out.
    const std::int32_t begin = row_begin_[static_cast<std::size_t>(y)];
    const std::int32_t lend = l_end_[static_cast<std::size_t>(y)];
    edges_scanned_ += lend - begin;
    for (std::int32_t s = begin; s < lend; ++s) {
      const std::int32_t x = adj_[static_cast<std::size_t>(s)];
      if (s + 1 < lend)
        prefetch_read(&match_[static_cast<std::size_t>(
            adj_[static_cast<std::size_t>(s + 1)])]);
      if (visit_stamp_[static_cast<std::size_t>(x)] == stamp_) continue;
      visit_stamp_[static_cast<std::size_t>(x)] = stamp_;
      from_right_[static_cast<std::size_t>(x)] = y;
      const std::int32_t next = match_[static_cast<std::size_t>(x)];
      if (next == -1) {
        // Free L-vertex found: flip the alternating path back to the root.
        std::int32_t cur = x;
        std::int32_t flipped = 0;  // matched pairs along the path
        for (;;) {
          const std::int32_t via = from_right_[static_cast<std::size_t>(cur)];
          const std::int32_t prev = match_[static_cast<std::size_t>(via)];
          set_match(cur, via);
          ++flipped;
          if (prev == -1) break;  // reached the (previously free) root
          cur = prev;
        }
        ++matching_size_;
        ++augmenting_paths_found_;
        // Both path endpoints left the free lists.
        remove_free(x);
        remove_free(root);
        // An alternating path flipping `flipped` pairs has 2*flipped - 1
        // edges; the length distribution shows how local matching repairs
        // stay as the sweep progresses.
        NETPART_EVENT("igmatch.augmenting_path",
                      {"length", static_cast<double>(2 * flipped - 1)});
        static_cast<void>(flipped);  // consumed only by the macro above
        return true;
      }
      if (visit_stamp_[static_cast<std::size_t>(next)] != stamp_) {
        visit_stamp_[static_cast<std::size_t>(next)] = stamp_;
        queue_.push_back(next);
      }
    }
  }
  return false;
}

void DynamicBipartiteMatcher::move_to_right(std::int32_t v) {
  if (v < 0 || v >= num_vertices())
    throw std::out_of_range("move_to_right: vertex out of range");
  const auto idx = static_cast<std::size_t>(v);
  if (side_[idx] != NetSide::kLeft)
    throw std::logic_error("move_to_right: vertex already on the right");

  const std::int64_t paths_before = augmenting_paths_found_;
  const std::int64_t scanned_before = edges_scanned_;

  // Step 1: remove v from L.  Retire its free status first (the seed
  // counters of its R-neighbors reference it), then pull it out of every
  // neighbor's L-section — after that v's edges are invisible to the
  // augmenting BFS, which is the old "suspended mid-move" state.
  if (free_pos_[idx] != -1) remove_free(v);
  for (std::int32_t s = row_begin_[idx]; s < row_end_[idx]; ++s) {
    const std::int32_t u = adj_[static_cast<std::size_t>(s)];
    const std::int32_t s1 = mate_[static_cast<std::size_t>(s)];  // v in u's row
    const std::int32_t s2 = l_end_[static_cast<std::size_t>(u)] - 1;
    // Swap v's slot with the last L slot of u's row, then shrink the
    // L-section; the mate lane keeps both reverse slots exact.
    const std::int32_t w2 = adj_[static_cast<std::size_t>(s2)];
    const std::int32_t m1 = mate_[static_cast<std::size_t>(s1)];
    const std::int32_t m2 = mate_[static_cast<std::size_t>(s2)];
    adj_[static_cast<std::size_t>(s1)] = w2;
    mate_[static_cast<std::size_t>(s1)] = m2;
    mate_[static_cast<std::size_t>(m2)] = s1;
    adj_[static_cast<std::size_t>(s2)] = v;
    mate_[static_cast<std::size_t>(s2)] = m1;
    mate_[static_cast<std::size_t>(m1)] = s2;
    l_end_[static_cast<std::size_t>(u)] = s2;
  }

  // If v was matched, the partner u in R loses its match and we try to
  // re-match it (v's edges are suspended, so the search cannot reuse v).
  const std::int32_t u = match_[idx];
  if (u != -1) {
    match_[idx] = -1;
    match_[static_cast<std::size_t>(u)] = -1;
    dirty_.push_back(v);
    dirty_.push_back(u);
    --matching_size_;
    add_free(u);
    augment_from_right(u);
  }

  // Step 2: insert v into R.  Its seed counter changes meaning (free
  // L-neighbors instead of free R-neighbors), so recompute it; then v's
  // edges to the remaining L side become B-edges and a single
  // augmenting-path search restores maximality.
  side_[idx] = NetSide::kRight;
  --left_count_;
  dirty_.push_back(v);
  if (seed_pos_[idx] != -1) {
    const std::int32_t pos = seed_pos_[idx];
    const std::int32_t last = seeds_left_.back();
    seeds_left_[static_cast<std::size_t>(pos)] = last;
    seed_pos_[static_cast<std::size_t>(last)] = pos;
    seeds_left_.pop_back();
    seed_pos_[idx] = -1;
  }
  std::int32_t free_l_neighbors = 0;
  for (std::int32_t s = row_begin_[idx]; s < l_end_[idx]; ++s)
    if (free_pos_[static_cast<std::size_t>(
            adj_[static_cast<std::size_t>(s)])] != -1)
      ++free_l_neighbors;
  seed_count_[idx] = free_l_neighbors;
  if (free_l_neighbors > 0) {
    seed_pos_[idx] = static_cast<std::int32_t>(seeds_right_.size());
    seeds_right_.push_back(v);
  }
  add_free(v);
  augment_from_right(v);

  NETPART_COUNTER_ADD("igmatch.matching_repairs", 1);
  NETPART_COUNTER_ADD("igmatch.augmenting_paths",
                      augmenting_paths_found_ - paths_before);
  NETPART_COUNTER_ADD("igmatch.bfs_edges_scanned",
                      edges_scanned_ - scanned_before);
  NETPART_HISTOGRAM_RECORD(
      "igmatch.repair_edges_scanned",
      static_cast<double>(edges_scanned_ - scanned_before));
}

NetLabel DynamicBipartiteMatcher::current_label(std::int32_t v) const {
  const auto idx = static_cast<std::size_t>(v);
  const std::int32_t m = match_[idx];
  if (side_[idx] == NetSide::kLeft) {
    if (in_loser_[idx]) return NetLabel::kLoserLeft;
    if (free_pos_[idx] != -1) return NetLabel::kWinnerLeft;
    if (m != -1 && in_loser_[static_cast<std::size_t>(m)])
      return NetLabel::kWinnerLeft;
    return NetLabel::kCoreLeft;
  }
  if (in_loser_[idx]) return NetLabel::kLoserRight;
  if (free_pos_[idx] != -1) return NetLabel::kWinnerRight;
  if (m != -1 && in_loser_[static_cast<std::size_t>(m)])
    return NetLabel::kWinnerRight;
  return NetLabel::kCoreRight;
}

void DynamicBipartiteMatcher::classify_incremental(
    std::vector<NetLabelChange>& changes) {
  changes.clear();

  // Rebuild the (small) loser sets.  The previous round's sets are kept:
  // their members are diff candidates below.
  prev_loser_left_.swap(loser_left_);
  prev_loser_right_.swap(loser_right_);
  loser_left_.clear();
  loser_right_.clear();
  for (const std::int32_t v : prev_loser_left_)
    in_loser_[static_cast<std::size_t>(v)] = 0;
  for (const std::int32_t v : prev_loser_right_)
    in_loser_[static_cast<std::size_t>(v)] = 0;

  // Odd(L) = LoserRight: R-vertices adjacent to Even(L).  Seeds are the
  // R-vertices with a free L-neighbor (maintained incrementally); the BFS
  // expands through each loser's match — an implicit winner — scanning
  // only its R-section.  Every enqueued vertex is matched: a free seed
  // would complete an augmenting path, contradicting maximality.
  queue_.clear();
  for (const std::int32_t y : seeds_right_) {
    in_loser_[static_cast<std::size_t>(y)] = 1;
    loser_right_.push_back(y);
    queue_.push_back(y);
  }
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const std::int32_t x2 = match_[static_cast<std::size_t>(queue_[head])];
    if (x2 == -1) continue;
    const auto xi = static_cast<std::size_t>(x2);
    for (std::int32_t s = l_end_[xi]; s < row_end_[xi]; ++s) {
      const std::int32_t z = adj_[static_cast<std::size_t>(s)];
      if (in_loser_[static_cast<std::size_t>(z)]) continue;
      in_loser_[static_cast<std::size_t>(z)] = 1;
      loser_right_.push_back(z);
      queue_.push_back(z);
    }
  }

  // Odd(R) = LoserLeft, symmetric.
  queue_.clear();
  for (const std::int32_t x : seeds_left_) {
    in_loser_[static_cast<std::size_t>(x)] = 1;
    loser_left_.push_back(x);
    queue_.push_back(x);
  }
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const std::int32_t y2 = match_[static_cast<std::size_t>(queue_[head])];
    if (y2 == -1) continue;
    const auto yi = static_cast<std::size_t>(y2);
    for (std::int32_t s = row_begin_[yi]; s < l_end_[yi]; ++s) {
      const std::int32_t z = adj_[static_cast<std::size_t>(s)];
      if (in_loser_[static_cast<std::size_t>(z)]) continue;
      in_loser_[static_cast<std::size_t>(z)] = 1;
      loser_left_.push_back(z);
      queue_.push_back(z);
    }
  }

  // Diff.  A label can only change where free/match/side status moved
  // (dirty_), or where loser-set membership moved (old and new lists), or
  // at the match of such a loser (winner status is "matched to a loser").
  ++cand_round_;
  auto consider = [this, &changes](std::int32_t v) {
    if (v < 0) return;
    const auto idx = static_cast<std::size_t>(v);
    if (cand_stamp_[idx] == cand_round_) return;
    cand_stamp_[idx] = cand_round_;
    const NetLabel now = current_label(v);
    if (now != label_[idx]) {
      changes.push_back({v, label_[idx], now});
      label_[idx] = now;
    }
  };
  for (const std::int32_t v : dirty_) consider(v);
  for (const std::int32_t v : prev_loser_left_) {
    consider(v);
    consider(match_[static_cast<std::size_t>(v)]);
  }
  for (const std::int32_t v : prev_loser_right_) {
    consider(v);
    consider(match_[static_cast<std::size_t>(v)]);
  }
  for (const std::int32_t v : loser_left_) {
    consider(v);
    consider(match_[static_cast<std::size_t>(v)]);
  }
  for (const std::int32_t v : loser_right_) {
    consider(v);
    consider(match_[static_cast<std::size_t>(v)]);
  }
  dirty_.clear();
}

std::vector<NetLabel> DynamicBipartiteMatcher::classify() const {
  const std::int32_t n = num_vertices();
  // Default: residual core, refined below.
  std::vector<NetLabel> label(static_cast<std::size_t>(n));
  for (std::int32_t v = 0; v < n; ++v)
    label[static_cast<std::size_t>(v)] =
        side_[static_cast<std::size_t>(v)] == NetSide::kLeft
            ? NetLabel::kCoreLeft
            : NetLabel::kCoreRight;

  std::vector<std::int32_t> queue;

  // Alternating BFS from the unmatched L-vertices: L-vertices reached are
  // Even(L) winners, R-vertices touched are Odd(L) losers.
  for (std::int32_t v = 0; v < n; ++v)
    if (side_[static_cast<std::size_t>(v)] == NetSide::kLeft &&
        match_[static_cast<std::size_t>(v)] == -1) {
      label[static_cast<std::size_t>(v)] = NetLabel::kWinnerLeft;
      queue.push_back(v);
    }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::int32_t x = queue[head];
    for (const std::int32_t y : graph_.neighbors(x)) {
      if (side_[static_cast<std::size_t>(y)] != NetSide::kRight) continue;
      if (label[static_cast<std::size_t>(y)] == NetLabel::kLoserRight)
        continue;
      label[static_cast<std::size_t>(y)] = NetLabel::kLoserRight;
      const std::int32_t x2 = match_[static_cast<std::size_t>(y)];
      // y must be matched: an unmatched neighbor of an Even(L) vertex would
      // terminate an augmenting path, contradicting maximality.
      if (x2 != -1 &&
          label[static_cast<std::size_t>(x2)] != NetLabel::kWinnerLeft) {
        label[static_cast<std::size_t>(x2)] = NetLabel::kWinnerLeft;
        queue.push_back(x2);
      }
    }
  }

  // Symmetric BFS from the unmatched R-vertices.
  queue.clear();
  for (std::int32_t v = 0; v < n; ++v)
    if (side_[static_cast<std::size_t>(v)] == NetSide::kRight &&
        match_[static_cast<std::size_t>(v)] == -1) {
      label[static_cast<std::size_t>(v)] = NetLabel::kWinnerRight;
      queue.push_back(v);
    }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::int32_t y = queue[head];
    for (const std::int32_t x : graph_.neighbors(y)) {
      if (side_[static_cast<std::size_t>(x)] != NetSide::kLeft) continue;
      if (label[static_cast<std::size_t>(x)] == NetLabel::kLoserLeft) continue;
      label[static_cast<std::size_t>(x)] = NetLabel::kLoserLeft;
      const std::int32_t y2 = match_[static_cast<std::size_t>(x)];
      if (y2 != -1 &&
          label[static_cast<std::size_t>(y2)] != NetLabel::kWinnerRight) {
        label[static_cast<std::size_t>(y2)] = NetLabel::kWinnerRight;
        queue.push_back(y2);
      }
    }
  }

  return label;
}

}  // namespace netpart
