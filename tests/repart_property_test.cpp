/// Property tests for the incremental repartitioning subsystem.
///
/// Oracle 1 (exact): after ANY edit script, the materialized hypergraph
/// must equal an independently maintained shadow netlist.
///
/// Oracle 2 (exact): every flat repartition answers exactly
/// `igmatch_partition()` on the materialized hypergraph (cut, ratio,
/// lambda2, every module's side), except when the previous answer, carried
/// through the batch's module edits by the shadow model, cuts a strictly
/// lower ratio: then it answers that partition.
///
/// Oracle 3 (tolerance): the V-cycle path's warm runs hold their own
/// against a cold V-cycle re-solve over a long ECO trace.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "circuits/generator.hpp"
#include "circuits/rng.hpp"
#include "cluster/multilevel.hpp"
#include "graph/intersection_graph.hpp"
#include "hypergraph/cut_metrics.hpp"
#include "igmatch/igmatch.hpp"
#include "obs/metrics.hpp"
#include "repart/edit_script.hpp"
#include "repart/session.hpp"

namespace netpart::repart {
namespace {

Hypergraph small_circuit(std::uint64_t seed) {
  GeneratorConfig config;
  config.name = "repart-prop-" + std::to_string(seed);
  config.num_modules = 80 + static_cast<std::int32_t>(seed % 7) * 25;
  config.num_nets = config.num_modules + config.num_modules / 5 + 10;
  return generate_circuit(config).hypergraph;
}

/// Independent mutable netlist model: plain vector ops, no journaling, no
/// sharing of code with EditableNetlist beyond the Hypergraph builder.
/// `carried` is the last answer carried through the module edits since,
/// new modules on the left: the partition a warm session weighs.
struct ShadowNetlist {
  std::int32_t modules = 0;
  std::vector<std::vector<ModuleId>> pins;
  std::vector<std::int32_t> weights;
  std::vector<Side> carried;

  explicit ShadowNetlist(const Hypergraph& h)
      : modules(h.num_modules()),
        carried(static_cast<std::size_t>(h.num_modules()), Side::kLeft) {
    for (NetId n = 0; n < h.num_nets(); ++n) {
      const auto p = h.pins(n);
      pins.emplace_back(p.begin(), p.end());
      weights.push_back(h.net_weight(n));
    }
  }

  void add_net(std::vector<ModuleId> p, std::int32_t w) {
    std::sort(p.begin(), p.end());
    p.erase(std::unique(p.begin(), p.end()), p.end());
    pins.push_back(std::move(p));
    weights.push_back(w);
  }
  void remove_net(std::int32_t n) {
    pins.erase(pins.begin() + n);
    weights.erase(weights.begin() + n);
  }
  void add_module() {
    ++modules;
    carried.push_back(Side::kLeft);
  }
  void remove_module(ModuleId m) {
    for (auto& p : pins) {
      std::erase(p, m);
      for (ModuleId& k : p)
        if (k > m) --k;
    }
    carried.erase(carried.begin() + m);
    --modules;
  }
  void move_pin(std::int32_t n, ModuleId from, ModuleId to) {
    auto& p = pins[static_cast<std::size_t>(n)];
    std::erase(p, from);
    if (std::find(p.begin(), p.end(), to) == p.end()) {
      p.push_back(to);
      std::sort(p.begin(), p.end());
    }
  }

  [[nodiscard]] Hypergraph build() const {
    HypergraphBuilder builder(modules);
    for (std::size_t n = 0; n < pins.size(); ++n)
      builder.add_net(pins[n], weights[n]);
    return builder.build();
  }
};

/// One random edit applied identically to the session's netlist and the
/// shadow model.
void random_edit(Xoshiro256& rng, EditableNetlist& editor,
                 ShadowNetlist& shadow) {
  const std::int32_t m = editor.num_nets();
  const std::int32_t n = editor.num_modules();
  switch (rng.below(8)) {
    case 0: {  // add a net (with duplicate pins, exercising the dedup)
      std::vector<ModuleId> p;
      const auto size = static_cast<std::int32_t>(rng.range(2, 6));
      for (std::int32_t i = 0; i < size; ++i)
        p.push_back(
            static_cast<ModuleId>(rng.below(static_cast<std::uint64_t>(n))));
      const auto w = static_cast<std::int32_t>(rng.range(1, 3));
      editor.add_net(p, w);
      shadow.add_net(p, w);
      break;
    }
    case 1: {  // remove a net
      if (m <= 4) break;
      const auto net =
          static_cast<NetId>(rng.below(static_cast<std::uint64_t>(m)));
      editor.remove_net(net);
      shadow.remove_net(net);
      break;
    }
    case 2: {  // add a module and wire it in so it is not an isolated row
      const ModuleId fresh = editor.add_module();
      shadow.add_module();
      std::vector<ModuleId> p{fresh,
                              static_cast<ModuleId>(rng.below(
                                  static_cast<std::uint64_t>(n)))};
      editor.add_net(p, 1);
      shadow.add_net(p, 1);
      break;
    }
    case 3: {  // remove a module
      if (n <= 16) break;
      const auto mod =
          static_cast<ModuleId>(rng.below(static_cast<std::uint64_t>(n)));
      editor.remove_module(mod);
      shadow.remove_module(mod);
      break;
    }
    default: {  // move a pin (the common ECO)
      for (std::int32_t attempt = 0; attempt < 20; ++attempt) {
        const auto net =
            static_cast<NetId>(rng.below(static_cast<std::uint64_t>(m)));
        const auto p = editor.pins(net);
        if (p.size() < 2) continue;
        const ModuleId from =
            p[static_cast<std::size_t>(rng.below(p.size()))];
        const auto to =
            static_cast<ModuleId>(rng.below(static_cast<std::uint64_t>(n)));
        if (to != from) {
          editor.move_pin(net, from, to);
          shadow.move_pin(net, from, to);
        }
        break;
      }
      break;
    }
  }
}

void expect_hypergraphs_equal(const Hypergraph& got, const Hypergraph& want) {
  ASSERT_EQ(got.num_modules(), want.num_modules());
  ASSERT_EQ(got.num_nets(), want.num_nets());
  for (NetId n = 0; n < got.num_nets(); ++n) {
    ASSERT_EQ(got.net_weight(n), want.net_weight(n)) << "net " << n;
    const auto gp = got.pins(n);
    const auto wp = want.pins(n);
    ASSERT_EQ(gp.size(), wp.size()) << "net " << n;
    for (std::size_t i = 0; i < gp.size(); ++i)
      ASSERT_EQ(gp[i], wp[i]) << "net " << n << " pin " << i;
  }
}

void expect_partitions_equal(const Partition& got, const Partition& want) {
  ASSERT_EQ(got.num_modules(), want.num_modules());
  for (ModuleId m = 0; m < got.num_modules(); ++m)
    ASSERT_EQ(got.side(m), want.side(m)) << "module " << m;
}

/// Oracle 2 for one flat run `got` over the edited netlist `h`.  `carried`
/// is the session's previous answer carried through the batch, or empty
/// when the session had none.  The answer is igmatch_partition's, unless
/// it is the carried partition with a strictly lower ratio; lambda2 and the
/// Lanczos count always come from the cold run, and the sweep is full.
void expect_flat_contract(const RepartitionResult& got, const Hypergraph& h,
                          IgWeighting weighting,
                          const std::vector<Side>& carried) {
  ASSERT_FALSE(got.used_vcycle);
  IgMatchOptions options;
  options.weighting = weighting;
  const IgMatchResult cold = igmatch_partition(h, options);
  ASSERT_EQ(got.lambda2, cold.lambda2);
  ASSERT_EQ(got.lanczos_iterations, cold.lanczos_iterations);
  ASSERT_EQ(got.sweep_ranks_total, h.num_nets() - 1);
  ASSERT_EQ(got.sweep_ranks_evaluated, got.sweep_ranks_total);
  ASSERT_EQ(got.nets_cut, net_cut(h, got.partition));

  const Partition previous(carried);
  const bool weighed = !carried.empty() && previous.is_proper();
  ASSERT_EQ(got.warm_started, weighed);
  if (got.used_previous_partition) {
    ASSERT_TRUE(weighed);
    ASSERT_LT(got.ratio, cold.ratio);
    expect_partitions_equal(got.partition, previous);
    return;
  }
  ASSERT_EQ(got.nets_cut, cold.nets_cut);
  ASSERT_EQ(got.ratio, cold.ratio);
  expect_partitions_equal(got.partition, cold.partition);
  if (weighed)
    ASSERT_GE(ratio_cut_value(net_cut(h, previous),
                              previous.size(Side::kLeft),
                              previous.size(Side::kRight)),
              cold.ratio)
        << "the carried partition cut a lower ratio but was not kept";
}

constexpr IgWeighting kWeightings[] = {IgWeighting::kPaper,
                                       IgWeighting::kUniform,
                                       IgWeighting::kOverlap,
                                       IgWeighting::kJaccard};

// ~200 random edit scripts: 52 scripts x 4 weightings, 3 batches each.
// Every batch checks both exact oracles.
TEST(RepartPropertyTest, MaterializeMatchesShadowNetlistOnRandomEditScripts) {
  std::int32_t scripts = 0;
  for (std::uint64_t seed = 0; seed < 52; ++seed) {
    const Hypergraph h = small_circuit(seed);
    RepartitionOptions options;
    options.weighting = kWeightings[seed % 4];
    RepartitionSession session(h, options);
    ShadowNetlist shadow(h);
    Xoshiro256 rng(seed * 7919 + 17);
    shadow.carried = session.repartition().partition.sides();
    for (std::int32_t batch = 0; batch < 3; ++batch) {
      const auto edits = static_cast<std::int32_t>(rng.range(1, 8));
      for (std::int32_t e = 0; e < edits; ++e)
        random_edit(rng, session.netlist(), shadow);
      const RepartitionResult got = session.repartition();
      expect_hypergraphs_equal(session.hypergraph(), shadow.build());
      if (!::testing::Test::HasFatalFailure())
        expect_flat_contract(got, session.hypergraph(), options.weighting,
                             shadow.carried);
      if (::testing::Test::HasFatalFailure()) {
        ADD_FAILURE() << "script seed " << seed << " batch " << batch;
        return;
      }
      shadow.carried = got.partition.sides();
    }
    ++scripts;
  }
  EXPECT_EQ(scripts, 52);
}

// A session's first run is cold: whatever edits precede it, the answer is
// bit-identical to igmatch_partition on the materialized netlist, and it
// weighs no previous partition.  Each batch edits a fresh session over the
// previous batch's netlist.
TEST(RepartPropertyTest, ColdSessionBitIdenticalToScratchPipeline) {
  for (std::uint64_t seed = 100; seed < 112; ++seed) {
    Hypergraph h = small_circuit(seed);
    ShadowNetlist shadow(h);
    Xoshiro256 rng(seed * 104729 + 5);
    for (std::int32_t batch = 0; batch < 3; ++batch) {
      RepartitionSession session(h);
      const auto edits = static_cast<std::int32_t>(rng.range(1, 6));
      for (std::int32_t e = 0; e < edits; ++e)
        random_edit(rng, session.netlist(), shadow);
      const RepartitionResult got = session.repartition();
      ASSERT_FALSE(got.warm_started) << "seed " << seed;
      expect_flat_contract(got, session.hypergraph(), IgWeighting::kPaper,
                           {});
      if (::testing::Test::HasFatalFailure()) {
        ADD_FAILURE() << "seed " << seed << " batch " << batch;
        return;
      }
      h = session.hypergraph();
    }
  }
}

// Warm sessions answer exactly as the cold pipeline does, or with the
// carried-forward partition when it cuts a strictly lower ratio: never
// worse than cold, on every batch of 30 seeded scripts.
TEST(RepartPropertyTest, WarmSessionWithinToleranceOfCold) {
  std::int32_t warm = 0, kept = 0;
  for (std::uint64_t seed = 200; seed < 230; ++seed) {
    const Hypergraph h = small_circuit(seed);
    RepartitionSession session(h);
    ShadowNetlist shadow(h);
    Xoshiro256 rng(seed * 65537 + 3);
    shadow.carried = session.repartition().partition.sides();
    for (std::int32_t batch = 0; batch < 3; ++batch) {
      const auto edits = static_cast<std::int32_t>(rng.range(1, 5));
      for (std::int32_t e = 0; e < edits; ++e)
        random_edit(rng, session.netlist(), shadow);
      const RepartitionResult got = session.repartition();
      ASSERT_TRUE(got.partition.is_proper()) << "seed " << seed;
      expect_flat_contract(got, session.hypergraph(), IgWeighting::kPaper,
                           shadow.carried);
      if (::testing::Test::HasFatalFailure()) {
        ADD_FAILURE() << "seed " << seed << " batch " << batch;
        return;
      }
      warm += got.warm_started ? 1 : 0;
      kept += got.used_previous_partition ? 1 : 0;
      shadow.carried = got.partition.sides();
    }
  }
  // Every batch weighs the carried partition, and both of the contract's
  // branches occur.
  EXPECT_EQ(warm, 90);
  EXPECT_GT(kept, 0);
  EXPECT_LT(kept, warm);
}

// Multilevel warm start: with the V-cycle threshold forced down to 1
// module, every repartition takes the multilevel path — the cold run
// through multilevel_partition, warm runs through partition-constrained
// V-cycle refinement of the remapped previous answer.  Over a long ECO
// trace the warm path must hold its own against a cold V-cycle re-solve
// of each epoch: at least as many wins as losses, and a final answer
// within 2% of cold.
TEST(RepartPropertyTest, MultilevelWarmStartTracksColdVcycleOverEcoTrace) {
  GeneratorConfig config;
  config.name = "repart-vcycle-trace";
  // Dense enough that the optimum cut is nonzero — at generator default
  // density the best split cuts nothing and every comparison ties.
  config.num_modules = 400;
  config.num_nets = 1000;
  const Hypergraph h = generate_circuit(config).hypergraph;

  RepartitionOptions options;
  options.vcycle_threshold = 1;         // every run takes the V-cycle path
  options.vcycle.direct_pair_budget = 0;  // force real hierarchies
  options.vcycle.coarsen_to = 64;
  options.vcycle.vcycles = 1;
  RepartitionSession session(h, options);
  ShadowNetlist shadow(h);
  Xoshiro256 rng(424243);

  const RepartitionResult first = session.repartition();
  ASSERT_TRUE(first.used_vcycle);
  ASSERT_FALSE(first.warm_started);
  ASSERT_TRUE(first.partition.is_proper());

  std::int32_t warm_wins = 0, cold_wins = 0, warm_batches = 0;
  double final_warm = 0.0, final_cold = 0.0;
  for (std::int32_t batch = 0; batch < 20; ++batch) {
    const auto edits = static_cast<std::int32_t>(rng.range(1, 5));
    for (std::int32_t e = 0; e < edits; ++e)
      random_edit(rng, session.netlist(), shadow);
    const RepartitionResult warm = session.repartition();
    ASSERT_TRUE(warm.used_vcycle) << "batch " << batch;
    ASSERT_TRUE(warm.partition.is_proper()) << "batch " << batch;
    warm_batches += warm.warm_started ? 1 : 0;
    // Reported metrics must describe the returned partition.
    ASSERT_EQ(net_cut(session.hypergraph(), warm.partition), warm.nets_cut)
        << "batch " << batch;
    const MultilevelResult cold =
        multilevel_partition(session.hypergraph(), options.vcycle);
    if (warm.ratio < cold.ratio) ++warm_wins;
    if (warm.ratio > cold.ratio) ++cold_wins;
    final_warm = warm.ratio;
    final_cold = cold.ratio;
  }
  // The trace must genuinely exercise the warm path, the warm path must
  // not lose to cold overall, and it must land within 2% at the end.
  EXPECT_GE(warm_batches, 15);
  EXPECT_GE(warm_wins, cold_wins);
  EXPECT_LE(final_warm, final_cold * 1.02 + 1e-12)
      << "warm drifted beyond 2% of a cold V-cycle re-solve";
}

/// Counts `repart.ig_builds` over the scope: resets and enables the
/// process-wide registry, and disables it again on exit.
class IgBuildCounter {
 public:
  IgBuildCounter() {
    registry_.reset();
    registry_.set_enabled(true);
  }
  ~IgBuildCounter() {
    registry_.set_enabled(false);
    registry_.reset();
  }
  [[nodiscard]] std::int64_t builds() const {
    return registry_.counter("repart.ig_builds");
  }

 private:
  obs::MetricsRegistry& registry_ = obs::MetricsRegistry::instance();
};

/// Default net names n0..n{m-1}, the names an applier starts from.
std::vector<std::string> default_names(const Hypergraph& h) {
  std::vector<std::string> names;
  for (NetId n = 0; n < h.num_nets(); ++n)
    names.push_back("n" + std::to_string(n));
  return names;
}

/// Applies `edits` seeded ECO ops (add-net, remove-net, move-pin) through
/// `applier`, one at a time so each op is drawn against the netlist the
/// previous one left.  `names` tracks the net names by current id; added
/// nets are named `<tag>_<e>`.  Returns the ops, to replay elsewhere.
EditBatch apply_eco_edits(EditScriptApplier& applier,
                          const EditableNetlist& netlist,
                          std::vector<std::string>& names,
                          const std::string& tag, std::int32_t edits,
                          Xoshiro256& rng) {
  EditBatch applied;
  for (std::int32_t e = 0; e < edits; ++e) {
    const auto modules = static_cast<std::uint64_t>(netlist.num_modules());
    const auto id = static_cast<NetId>(
        rng.below(static_cast<std::uint64_t>(netlist.num_nets())));
    EditOp op;
    if (e % 3 == 0) {
      op.kind = EditOpKind::kAddNet;
      op.net_name = tag + "_" + std::to_string(e);
      for (std::int32_t p = 0; p < 3; ++p)
        op.pins.push_back(static_cast<ModuleId>(rng.below(modules)));
    } else if (e % 3 == 1) {
      op.kind = EditOpKind::kRemoveNet;
      op.net_name = names[static_cast<std::size_t>(id)];
    } else {
      const auto pins = netlist.pins(id);
      if (pins.empty()) continue;
      op.kind = EditOpKind::kMovePin;
      op.net_name = names[static_cast<std::size_t>(id)];
      op.module_a = pins[static_cast<std::size_t>(
          rng.below(static_cast<std::uint64_t>(pins.size())))];
      op.module_b = static_cast<ModuleId>(rng.below(modules));
    }
    applier.apply({op});
    if (op.kind == EditOpKind::kAddNet) names.push_back(op.net_name);
    if (op.kind == EditOpKind::kRemoveNet) names.erase(names.begin() + id);
    applied.push_back(std::move(op));
  }
  return applied;
}

// The V-cycle path never reads the intersection graph, so a session that
// stays on it must never build one: not in the constructor, not for the
// cold solve, not for any warm ECO batch.  The flat path builds one per run.
TEST(RepartPropertyTest, VcycleSessionNeverBuildsTheIntersectionGraph) {
  GeneratorConfig config;
  config.name = "repart-vcycle-no-ig";
  config.num_modules = 400;
  config.num_nets = 1000;
  const Hypergraph h = generate_circuit(config).hypergraph;
  RepartitionOptions options;
  options.vcycle_threshold = 1;
  options.vcycle.direct_pair_budget = 0;  // force real hierarchies
  options.vcycle.coarsen_to = 64;

  IgBuildCounter counter;
  RepartitionSession session(h, options);
  EditScriptApplier applier(session.netlist());
  std::vector<std::string> names = default_names(h);
  const RepartitionResult cold = session.repartition();
  ASSERT_TRUE(cold.used_vcycle);
  Xoshiro256 rng(5150);
  for (std::int32_t batch = 0; batch < 4; ++batch) {
    (void)apply_eco_edits(applier, session.netlist(), names,
                          "v" + std::to_string(batch), 12, rng);
    const RepartitionResult warm = session.repartition();
    ASSERT_TRUE(warm.used_vcycle) << "batch " << batch;
    ASSERT_TRUE(warm.warm_started) << "batch " << batch;
  }
  EXPECT_EQ(counter.builds(), 0);

  // Control: the flat path counts one build per repartition.
  RepartitionSession flat(h);
  EditScriptApplier flat_applier(flat.netlist());
  std::vector<std::string> flat_names = default_names(h);
  (void)flat.repartition();
  for (std::int32_t batch = 0; batch < 3; ++batch) {
    (void)apply_eco_edits(flat_applier, flat.netlist(), flat_names,
                          "f" + std::to_string(batch), 6, rng);
    const RepartitionResult warm = flat.repartition();
    ASSERT_FALSE(warm.used_vcycle);
    EXPECT_EQ(counter.builds(), batch + 2) << "batch " << batch;
  }
}

// A session that drops below the V-cycle threshold builds its IG from the
// edited netlist, so its flat answer must be igmatch_partition's (or the
// carried V-cycle answer, when that cuts a strictly lower ratio); crossing
// back and forth builds one IG per flat run and none per V-cycle run.
TEST(RepartPropertyTest, CrossingFromVcycleToFlatBuildsAnExactIg) {
  GeneratorConfig config;
  config.name = "repart-threshold-crossing";
  config.num_modules = 300;
  config.num_nets = 420;
  const Hypergraph h = generate_circuit(config).hypergraph;
  RepartitionOptions options;
  options.vcycle_threshold = h.num_modules();

  IgBuildCounter counter;
  RepartitionSession session(h, options);
  EditScriptApplier applier(session.netlist());
  std::vector<std::string> names = default_names(h);
  ASSERT_TRUE(session.repartition().used_vcycle);
  Xoshiro256 rng(77);
  (void)apply_eco_edits(applier, session.netlist(), names, "a", 6, rng);
  RepartitionResult last = session.repartition();
  ASSERT_TRUE(last.used_vcycle);
  EXPECT_EQ(counter.builds(), 0);

  for (std::int32_t crossing = 0; crossing < 2; ++crossing) {
    // Down: a few net edits, then one module fewer than the threshold.
    (void)apply_eco_edits(applier, session.netlist(), names,
                          "down" + std::to_string(crossing), 6, rng);
    EditOp remove;
    remove.kind = EditOpKind::kRemoveModule;
    remove.module_a = 17 + crossing;
    applier.apply({remove});
    std::vector<Side> carried = last.partition.sides();
    carried.erase(carried.begin() + remove.module_a);
    const RepartitionResult flat = session.repartition();
    ASSERT_FALSE(flat.used_vcycle) << "crossing " << crossing;
    ASSERT_TRUE(flat.warm_started) << "crossing " << crossing;
    EXPECT_EQ(counter.builds(), crossing + 1);
    expect_flat_contract(flat, session.hypergraph(), IgWeighting::kPaper,
                         carried);
    if (::testing::Test::HasFatalFailure()) return;

    // Up again: the V-cycle epoch builds none.
    (void)apply_eco_edits(applier, session.netlist(), names,
                          "up" + std::to_string(crossing), 3, rng);
    applier.apply({EditOp{}});  // add-module
    last = session.repartition();
    ASSERT_TRUE(last.used_vcycle) << "crossing " << crossing;
    ASSERT_TRUE(last.warm_started) << "crossing " << crossing;
    EXPECT_EQ(counter.builds(), crossing + 1);
  }
  EXPECT_EQ(counter.builds(), 2);
}

// A session that imports another's exported warm state (the server's cache
// hit path) must take exactly the exporter's own warm step, on the flat
// path and on the V-cycle path.
TEST(RepartPropertyTest, ImportedWarmStateReplaysTheExportersWarmStep) {
  struct Input {
    std::int32_t modules;
    std::int32_t nets;
    std::int32_t vcycle_threshold;
  };
  for (const Input input : {Input{1000, 1200, 100000}, Input{400, 1000, 1}}) {
    GeneratorConfig config;
    config.name = "repart-import-warm";
    config.num_modules = input.modules;
    config.num_nets = input.nets;
    const Hypergraph h = generate_circuit(config).hypergraph;
    RepartitionOptions options;
    options.vcycle_threshold = input.vcycle_threshold;
    options.vcycle.direct_pair_budget = 0;  // force real hierarchies
    options.vcycle.coarsen_to = 64;
    const bool vcycle = input.vcycle_threshold <= input.modules;

    RepartitionSession exporter(h, options);
    EditScriptApplier exporter_applier(exporter.netlist());
    ASSERT_EQ(exporter.repartition().used_vcycle, vcycle);
    RepartitionSession importer(exporter.hypergraph(), options);
    EditScriptApplier importer_applier(importer.netlist());
    importer.import_warm_state(exporter.export_warm_state());

    Xoshiro256 rng(9001);
    std::vector<std::string> names = default_names(h);
    importer_applier.apply(apply_eco_edits(
        exporter_applier, exporter.netlist(), names, "eco", 6, rng));
    const RepartitionResult want = exporter.repartition();
    const RepartitionResult got = importer.repartition();
    ASSERT_EQ(want.used_vcycle, vcycle);
    ASSERT_TRUE(want.warm_started) << "vcycle " << vcycle;
    EXPECT_EQ(got.used_vcycle, want.used_vcycle);
    EXPECT_EQ(got.warm_started, want.warm_started) << "vcycle " << vcycle;
    EXPECT_EQ(got.vcycles_run, want.vcycles_run) << "vcycle " << vcycle;
    EXPECT_EQ(got.lanczos_iterations, want.lanczos_iterations);
    EXPECT_EQ(got.nets_cut, want.nets_cut);
    EXPECT_EQ(got.ratio, want.ratio) << "vcycle " << vcycle;
    EXPECT_EQ(got.used_previous_partition, want.used_previous_partition);
    expect_partitions_equal(got.partition, want.partition);
  }
}

// A warm step is a function of the warm state, the netlist and the pending
// batch, nothing else: after an edited warm step, a no-op batch must answer
// the same in the session that made that step as in a fresh session that
// imported its state.
TEST(RepartPropertyTest, NoOpBatchSweepsAsIfFromImportedState) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    GeneratorConfig config;
    config.name = "repart-noop-" + std::to_string(seed);
    config.num_modules = 1000;
    config.num_nets = 1200;
    const Hypergraph h = generate_circuit(config).hypergraph;

    RepartitionSession a(h);
    EditScriptApplier applier(a.netlist());
    (void)a.repartition();
    Xoshiro256 rng(seed * 7727 + 11);
    std::vector<std::string> names = default_names(h);
    (void)apply_eco_edits(applier, a.netlist(), names, "eco", 6, rng);
    ASSERT_TRUE(a.repartition().warm_started) << "seed " << seed;

    RepartitionSession b(a.hypergraph());
    b.import_warm_state(a.export_warm_state());
    ASSERT_FALSE(a.netlist().pins(0).empty());
    const ModuleId pin = a.netlist().pins(0)[0];
    a.netlist().move_pin(0, pin, pin);
    b.netlist().move_pin(0, pin, pin);
    const RepartitionResult got = a.repartition();
    const RepartitionResult want = b.repartition();
    ASSERT_TRUE(got.warm_started) << "seed " << seed;
    ASSERT_TRUE(want.warm_started) << "seed " << seed;
    EXPECT_EQ(got.sweep_ranks_evaluated, want.sweep_ranks_evaluated)
        << "seed " << seed;
    EXPECT_EQ(got.ratio, want.ratio) << "seed " << seed;
    expect_partitions_equal(got.partition, want.partition);
  }
}

/// The name resolution EditScriptApplier used before handles: one name per
/// current net id, found by linear search and erased on removal.  Kept as
/// the oracle for the handle table.
class NaiveNameApplier {
 public:
  explicit NaiveNameApplier(EditableNetlist& netlist) : netlist_(netlist) {
    for (std::int32_t n = 0; n < netlist.num_nets(); ++n)
      names_.push_back("n" + std::to_string(n));
  }

  void apply(const EditOp& op) {
    switch (op.kind) {
      case EditOpKind::kAddNet:
        if (find(op.net_name) >= 0)
          throw std::invalid_argument("duplicate net name");
        (void)netlist_.add_net(op.pins);
        names_.push_back(op.net_name);
        break;
      case EditOpKind::kRemoveNet: {
        const NetId id = resolve(op.net_name);
        netlist_.remove_net(id);
        names_.erase(names_.begin() + id);
        break;
      }
      case EditOpKind::kAddModule:
        netlist_.add_module();
        break;
      case EditOpKind::kRemoveModule:
        netlist_.remove_module(op.module_a);
        break;
      case EditOpKind::kMovePin:
        netlist_.move_pin(resolve(op.net_name), op.module_a, op.module_b);
        break;
    }
  }

  [[nodiscard]] NetId find(const std::string& name) const {
    const auto it = std::find(names_.begin(), names_.end(), name);
    return it == names_.end() ? -1 : static_cast<NetId>(it - names_.begin());
  }

 private:
  NetId resolve(const std::string& name) const {
    const NetId id = find(name);
    if (id < 0) throw std::invalid_argument("unknown net name");
    return id;
  }

  EditableNetlist& netlist_;
  std::vector<std::string> names_;
};

void expect_netlists_equal(const EditableNetlist& got,
                           const EditableNetlist& want) {
  ASSERT_EQ(got.num_modules(), want.num_modules());
  ASSERT_EQ(got.num_nets(), want.num_nets());
  for (NetId n = 0; n < got.num_nets(); ++n) {
    const auto gp = got.pins(n);
    const auto wp = want.pins(n);
    ASSERT_TRUE(std::equal(gp.begin(), gp.end(), wp.begin(), wp.end()))
        << "net " << n;
  }
}

/// Which exception an op threw: 0 none, 1 invalid_argument, 2 out_of_range.
template <typename Fn>
int outcome_of(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument&) {
    return 1;
  } catch (const std::out_of_range&) {
    return 2;
  }
  return 0;
}

// The handle table must resolve every name exactly as the naive oracle
// does, through removals, re-added names, duplicate names and names that
// only look like default ones.
TEST(RepartPropertyTest, HandleApplierMatchesNaiveNameOracle) {
  std::int32_t removals = 0, readds = 0, duplicates = 0;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    const Hypergraph h = small_circuit(seed);
    EditableNetlist got(h);
    EditableNetlist want(h);
    EditScriptApplier applier(got);
    NaiveNameApplier oracle(want);
    const std::int32_t m0 = h.num_nets();
    std::vector<std::string> pool;
    for (std::int32_t n = 0; n < m0 + 3; ++n)
      pool.push_back("n" + std::to_string(n));
    for (const char* odd : {"x0", "x1", "x2", "n", "n07", "n-1", "n+1",
                            "n99999999999", "N3"})
      pool.emplace_back(odd);

    Xoshiro256 rng(seed * 31337 + 1);
    std::vector<std::string> removed;
    for (std::int32_t step = 0; step < 400; ++step) {
      EditOp op;
      const auto pick = [&] {
        return pool[static_cast<std::size_t>(
            rng.below(static_cast<std::uint64_t>(pool.size())))];
      };
      const std::int32_t n = want.num_modules();
      switch (rng.below(10)) {
        case 0:
        case 1:
        case 2: {  // add-net: a pool name, often a removed one
          op.kind = EditOpKind::kAddNet;
          op.net_name = !removed.empty() && rng.below(2) == 0
                            ? removed[static_cast<std::size_t>(rng.below(
                                  static_cast<std::uint64_t>(removed.size())))]
                            : pick();
          for (std::int32_t p = 0; p < 3; ++p)
            op.pins.push_back(static_cast<ModuleId>(
                rng.below(static_cast<std::uint64_t>(n))));
          break;
        }
        case 3:
        case 4:
        case 5:
          op.kind = EditOpKind::kRemoveNet;
          op.net_name = pick();
          break;
        case 6:
          op.kind = rng.below(2) == 0 ? EditOpKind::kAddModule
                                      : EditOpKind::kRemoveModule;
          op.module_a = static_cast<ModuleId>(
              rng.below(static_cast<std::uint64_t>(n)));
          if (op.kind == EditOpKind::kRemoveModule && n <= 16)
            op.kind = EditOpKind::kAddModule;
          break;
        default: {  // move-pin, from a real pin when the name is live
          op.kind = EditOpKind::kMovePin;
          op.net_name = pick();
          const NetId id = oracle.find(op.net_name);
          op.module_a = static_cast<ModuleId>(
              rng.below(static_cast<std::uint64_t>(n)));
          if (id >= 0 && !want.pins(id).empty()) {
            const auto pins = want.pins(id);
            op.module_a = pins[static_cast<std::size_t>(
                rng.below(static_cast<std::uint64_t>(pins.size())))];
          }
          op.module_b = static_cast<ModuleId>(
              rng.below(static_cast<std::uint64_t>(n)));
          break;
        }
      }
      const bool live_before = oracle.find(op.net_name) >= 0;
      const int want_outcome = outcome_of([&] { oracle.apply(op); });
      const int got_outcome = outcome_of([&] { applier.apply({op}); });
      ASSERT_EQ(got_outcome, want_outcome)
          << "seed " << seed << " step " << step << " name " << op.net_name;
      if (op.kind == EditOpKind::kRemoveNet && want_outcome == 0) {
        ++removals;
        removed.push_back(op.net_name);
      }
      if (op.kind == EditOpKind::kAddNet && want_outcome == 0 &&
          std::find(removed.begin(), removed.end(), op.net_name) !=
              removed.end())
        ++readds;
      if (op.kind == EditOpKind::kAddNet && live_before) {
        EXPECT_EQ(want_outcome, 1);
        ++duplicates;
      }
      expect_netlists_equal(got, want);
      if (::testing::Test::HasFatalFailure()) {
        ADD_FAILURE() << "seed " << seed << " step " << step;
        return;
      }
    }
  }
  // The scripts must reach every path the table has.
  EXPECT_GT(removals, 100);
  EXPECT_GT(readds, 20);
  EXPECT_GT(duplicates, 20);
}

TEST(RepartPropertyTest, EditApiValidation) {
  HypergraphBuilder builder(4);
  builder.add_net({0, 1});
  builder.add_net({1, 2, 3});
  builder.add_net({0, 3});
  const Hypergraph h = builder.build();
  EditableNetlist editor(h);

  EXPECT_THROW(editor.remove_net(3), std::out_of_range);
  EXPECT_THROW(editor.remove_net(-1), std::out_of_range);
  EXPECT_THROW(editor.remove_module(4), std::out_of_range);
  EXPECT_THROW(editor.add_net(std::vector<ModuleId>{0, 7}),
               std::out_of_range);
  EXPECT_THROW(editor.add_net(std::vector<ModuleId>{0, 1}, 0),
               std::invalid_argument);
  EXPECT_THROW(editor.move_pin(0, 2, 3), std::invalid_argument);  // not a pin
  EXPECT_THROW(editor.move_pin(0, 2, 2), std::invalid_argument);  // nor here
  EXPECT_THROW(editor.move_pin(0, 0, 9), std::out_of_range);
  editor.move_pin(1, 2, 2);  // a pin onto itself: accepted, changes nothing
  EXPECT_EQ(editor.pins(1).size(), 3u);
  EXPECT_FALSE(editor.drain_changes().edited);

  // Pin-merge semantics: moving 0 onto 1 in net {0,1} shrinks it.
  editor.move_pin(0, 0, 1);
  EXPECT_EQ(editor.pins(0).size(), 1u);

  // Module removal strips pins and shifts ids.
  editor.remove_module(1);
  EXPECT_EQ(editor.num_modules(), 3);
  // Former net {1,2,3} is now {1,2}.
  ASSERT_EQ(editor.pins(1).size(), 2u);
  EXPECT_EQ(editor.pins(1)[0], 1);
  EXPECT_EQ(editor.pins(1)[1], 2);

  const ChangeSet changes = editor.drain_changes();
  EXPECT_TRUE(changes.edited);
  ASSERT_EQ(changes.module_remap.size(), 4u);
  EXPECT_EQ(changes.module_remap[0], 0);
  EXPECT_EQ(changes.module_remap[1], -1);
  EXPECT_EQ(changes.module_remap[2], 1);
  EXPECT_EQ(changes.module_remap[3], 2);
  EXPECT_FALSE(editor.drain_changes().edited);  // baseline was reset
}

// Batches that leave every net's pins alone still edit the netlist: adding
// or removing an isolated module, and adding or removing a net with no
// pins.  After every batch the answer, hypergraph() and netlist() must
// agree on the module count, and the answer must keep the flat contract.
TEST(RepartPropertyTest, PinPreservingBatchesStillReachTheAnswer) {
  const Hypergraph h = small_circuit(3);
  RepartitionSession session(h);
  ShadowNetlist shadow(h);
  shadow.carried = session.repartition().partition.sides();
  const auto check = [&](const char* batch) {
    const RepartitionResult got = session.repartition();
    EXPECT_EQ(got.partition.num_modules(), shadow.modules) << batch;
    EXPECT_EQ(session.hypergraph().num_modules(), shadow.modules) << batch;
    EXPECT_EQ(session.netlist().num_modules(), shadow.modules) << batch;
    expect_hypergraphs_equal(session.hypergraph(), shadow.build());
    if (!::testing::Test::HasFatalFailure())
      expect_flat_contract(got, session.hypergraph(), IgWeighting::kPaper,
                           shadow.carried);
    if (::testing::Test::HasFatalFailure()) ADD_FAILURE() << batch;
    shadow.carried = got.partition.sides();
  };

  const ModuleId isolated = session.netlist().add_module();
  shadow.add_module();
  check("add an isolated module");
  session.netlist().remove_module(isolated);
  shadow.remove_module(isolated);
  check("remove the isolated module");
  const NetId empty = session.netlist().add_net(std::vector<ModuleId>{});
  shadow.add_net({}, 1);
  check("add an empty net");
  session.netlist().remove_net(empty);
  shadow.remove_net(empty);
  check("remove the empty net");
  const ModuleId pin = session.netlist().pins(0)[0];
  session.netlist().move_pin(0, pin, pin);
  check("a no-op move");
}

TEST(RepartPropertyTest, EditScriptParsesAndApplies) {
  HypergraphBuilder builder(5);
  builder.add_net({0, 1});
  builder.add_net({1, 2});
  builder.add_net({3, 4});
  const Hypergraph h = builder.build();
  EditableNetlist editor(h);
  EditScriptApplier applier(editor);

  std::istringstream in(
      "# a comment\n"
      "add-module\n"
      "add-net fresh 0 5  # new module is id 5\n"
      "remove-net n1\n"
      "commit\n"
      "move-pin n2 4 2\n"  // n2 = {3,4} (names track original ids)
      "commit\n");
  const EditScript script = read_edit_script(in);
  ASSERT_EQ(script.batches.size(), 2u);
  applier.apply(script.batches[0]);
  EXPECT_EQ(editor.num_modules(), 6);
  EXPECT_EQ(editor.num_nets(), 3);  // 3 - 1 removed + 1 added
  applier.apply(script.batches[1]);
  // n2 was {3,4}; after removing n1, it shifted to id 1; 4 -> 2.
  ASSERT_EQ(editor.pins(1).size(), 2u);
  EXPECT_EQ(editor.pins(1)[0], 2);
  EXPECT_EQ(editor.pins(1)[1], 3);

  // Semantic failures: unknown / duplicate names, a pin that is not one.
  std::istringstream self_move("move-pin n0 3 3\n");  // n0 = {0,1}
  EXPECT_THROW(applier.apply(read_edit_script(self_move).batches.at(0)),
               std::invalid_argument);
  EditBatch bad;
  EditOp op;
  op.kind = EditOpKind::kRemoveNet;
  op.net_name = "nope";
  bad.push_back(op);
  EXPECT_THROW(applier.apply(bad), std::invalid_argument);
  bad.clear();
  op.kind = EditOpKind::kAddNet;
  op.net_name = "fresh";  // already registered above
  op.pins = {0, 1};
  bad.push_back(op);
  EXPECT_THROW(applier.apply(bad), std::invalid_argument);
}

TEST(RepartPropertyTest, SessionSurvivesDegenerateNetlists) {
  // Two 2-net clusters joined by a bridge: the natural split {0,1}|{2,3}
  // cuts only the bridge, so a proper completion exists.
  HypergraphBuilder builder(4);
  builder.add_net({0, 1});
  builder.add_net({0, 1});
  builder.add_net({2, 3});
  builder.add_net({2, 3});
  builder.add_net({1, 2});
  const Hypergraph h = builder.build();
  RepartitionSession session(h);
  ASSERT_TRUE(session.repartition().partition.is_proper());

  // Shrink below the 2-net floor: trivial improper result, no crash.
  while (session.netlist().num_nets() > 1) session.netlist().remove_net(0);
  const RepartitionResult r = session.repartition();
  EXPECT_EQ(r.nets_cut, 0);
  EXPECT_FALSE(r.partition.is_proper());
  EXPECT_TRUE(std::isinf(r.ratio));

  // And grow back: the session recovers with a cold run.
  session.netlist().add_net(std::vector<ModuleId>{0, 1});
  session.netlist().add_net(std::vector<ModuleId>{2, 3});
  session.netlist().add_net(std::vector<ModuleId>{1, 2});
  const RepartitionResult back = session.repartition();
  EXPECT_FALSE(back.warm_started);
  EXPECT_TRUE(back.partition.is_proper());
}

}  // namespace
}  // namespace netpart::repart
