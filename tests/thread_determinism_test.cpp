/// Cross-thread-count determinism: the contract of the parallel runtime is
/// that every pipeline — spectral (eig1), intersection-graph (igmatch),
/// combinatorial (FM multi-start), and the recursive multiway decomposition
/// on top of them — produces bit-identical results for any lane count.
/// The largest circuit exceeds the reduction chunk (4096 elements), so the
/// chunked parallel reduction paths are genuinely exercised, not just the
/// single-chunk fallback.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "circuits/generator.hpp"
#include "circuits/rng.hpp"
#include "cluster/multilevel.hpp"
#include "core/multiway.hpp"
#include "core/partitioner.hpp"
#include "fm/fm_partition.hpp"
#include "graph/intersection_graph.hpp"
#include "graph/weighted_graph.hpp"
#include "linalg/fiedler.hpp"
#include "obs/events.hpp"
#include "obs/profiler.hpp"
#include "parallel/thread_pool.hpp"
#include "repart/session.hpp"

namespace netpart {
namespace {

constexpr std::int32_t kLaneCounts[] = {1, 2, 8};

Hypergraph circuit(std::int32_t modules, const char* name) {
  GeneratorConfig config;
  config.name = name;
  config.num_modules = modules;
  config.num_nets = modules + modules / 10;
  return generate_circuit(config).hypergraph;
}

class ThreadDeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override {
    parallel::ThreadPool::instance().configure(1);
  }
};

/// Everything we pin about one partitioning run.
struct RunRecord {
  std::vector<std::int32_t> sides;
  std::int32_t nets_cut = 0;
  double ratio = 0.0;
  double lambda2 = 0.0;
  bool has_lambda2 = false;
};

RunRecord record_run(const Hypergraph& h, Algorithm algorithm) {
  PartitionerConfig config;
  config.algorithm = algorithm;
  const PartitionResult r = run_partitioner(h, config);
  RunRecord rec;
  rec.sides.reserve(static_cast<std::size_t>(h.num_modules()));
  for (ModuleId m = 0; m < h.num_modules(); ++m)
    rec.sides.push_back(r.partition.side(m) == Side::kLeft ? 0 : 1);
  rec.nets_cut = r.nets_cut;
  rec.ratio = r.ratio;
  rec.has_lambda2 = r.lambda2.has_value();
  rec.lambda2 = r.lambda2.value_or(0.0);
  return rec;
}

void expect_identical(const RunRecord& a, const RunRecord& b,
                      const std::string& context) {
  EXPECT_EQ(a.sides, b.sides) << context;
  EXPECT_EQ(a.nets_cut, b.nets_cut) << context;
  EXPECT_EQ(a.ratio, b.ratio) << context;  // bitwise, no tolerance
  EXPECT_EQ(a.has_lambda2, b.has_lambda2) << context;
  EXPECT_EQ(a.lambda2, b.lambda2) << context;
}

TEST_F(ThreadDeterminismTest, PipelinesBitIdenticalAcrossLaneCounts) {
  const Hypergraph circuits[] = {
      circuit(600, "det-small"),
      circuit(1200, "det-medium"),
      // > 4096 nets: dot products and SpMV cross the reduction chunk.
      circuit(5000, "det-large"),
  };
  const Algorithm algorithms[] = {Algorithm::kEig1, Algorithm::kIgMatch,
                                  Algorithm::kRatioCutFm};
  for (const Hypergraph& h : circuits) {
    for (const Algorithm algorithm : algorithms) {
      parallel::ThreadPool::instance().configure(1);
      const RunRecord reference = record_run(h, algorithm);
      for (const std::int32_t lanes : kLaneCounts) {
        if (lanes == 1) continue;
        parallel::ThreadPool::instance().configure(lanes);
        const std::string context = std::string(to_string(algorithm)) +
                                    " modules=" +
                                    std::to_string(h.num_modules()) +
                                    " lanes=" + std::to_string(lanes);
        expect_identical(record_run(h, algorithm), reference, context);
      }
    }
  }
}

TEST_F(ThreadDeterminismTest, FiedlerVectorBitIdenticalUpToNothingAtAll) {
  // The eigenvector itself (not just the derived partition) must match
  // exactly — same seed, same chunked reductions, so not even a sign flip
  // is possible between lane counts.
  const Hypergraph h = circuit(5000, "det-eigvec");
  const WeightedGraph ig = intersection_graph(h);
  parallel::ThreadPool::instance().configure(1);
  const linalg::FiedlerResult reference =
      linalg::fiedler_pair(ig.laplacian());
  for (const std::int32_t lanes : kLaneCounts) {
    if (lanes == 1) continue;
    parallel::ThreadPool::instance().configure(lanes);
    const linalg::FiedlerResult got = linalg::fiedler_pair(ig.laplacian());
    EXPECT_EQ(got.lambda2, reference.lambda2) << "lanes=" << lanes;
    EXPECT_EQ(got.vector, reference.vector) << "lanes=" << lanes;
    EXPECT_EQ(got.lanczos_iterations, reference.lanczos_iterations)
        << "lanes=" << lanes;
  }
}

TEST_F(ThreadDeterminismTest, IntersectionGraphBitIdenticalAcrossLaneCounts) {
  const Hypergraph h = circuit(5000, "det-ig");
  parallel::ThreadPool::instance().configure(1);
  const WeightedGraph reference = intersection_graph(h);
  for (const std::int32_t lanes : kLaneCounts) {
    if (lanes == 1) continue;
    parallel::ThreadPool::instance().configure(lanes);
    const WeightedGraph got = intersection_graph(h);
    ASSERT_EQ(got.num_vertices(), reference.num_vertices());
    for (std::int32_t v = 0; v < reference.num_vertices(); ++v) {
      const auto ref_neighbors = reference.neighbors(v);
      const auto got_neighbors = got.neighbors(v);
      ASSERT_EQ(got_neighbors.size(), ref_neighbors.size())
          << "vertex " << v << " lanes=" << lanes;
      const auto ref_weights = reference.weights(v);
      const auto got_weights = got.weights(v);
      for (std::size_t i = 0; i < ref_neighbors.size(); ++i) {
        EXPECT_EQ(got_neighbors[i], ref_neighbors[i])
            << "vertex " << v << " lanes=" << lanes;
        EXPECT_EQ(got_weights[i], ref_weights[i])
            << "vertex " << v << " lanes=" << lanes;  // bitwise
      }
    }
  }
}

TEST_F(ThreadDeterminismTest, FmThreadOptionSemantics) {
  const Hypergraph h = circuit(400, "det-fm-threads");
  parallel::ThreadPool::instance().configure(8);
  FmOptions reference_options;
  reference_options.num_threads = 1;
  const FmRunResult reference = ratio_cut_fm(h, reference_options);
  // 0 = auto (all pool lanes), negative = serial, large = clamped; all of
  // them must agree with the serial reference bit for bit.
  for (const std::int32_t threads : {0, -3, 2, 64}) {
    FmOptions options;
    options.num_threads = threads;
    const FmRunResult got = ratio_cut_fm(h, options);
    EXPECT_EQ(got.nets_cut, reference.nets_cut) << "threads=" << threads;
    EXPECT_EQ(got.weighted_cut, reference.weighted_cut)
        << "threads=" << threads;
    EXPECT_EQ(got.ratio, reference.ratio) << "threads=" << threads;
    EXPECT_EQ(got.starts_run, reference.starts_run) << "threads=" << threads;
    for (ModuleId m = 0; m < h.num_modules(); ++m)
      ASSERT_EQ(got.partition.side(m), reference.partition.side(m))
          << "module " << m << " threads=" << threads;
  }
}

TEST_F(ThreadDeterminismTest, MultiwayBitIdenticalAcrossLaneCounts) {
  const Hypergraph h = circuit(900, "det-multiway");
  MultiwayOptions options;
  options.max_block_size = 120;
  parallel::ThreadPool::instance().configure(1);
  const MultiwayResult reference = multiway_partition(h, options);
  for (const std::int32_t lanes : kLaneCounts) {
    if (lanes == 1) continue;
    parallel::ThreadPool::instance().configure(lanes);
    const MultiwayResult got = multiway_partition(h, options);
    ASSERT_EQ(got.partition.num_blocks(), reference.partition.num_blocks())
        << "lanes=" << lanes;
    for (ModuleId m = 0; m < h.num_modules(); ++m)
      ASSERT_EQ(got.partition.block_of(m), reference.partition.block_of(m))
          << "module " << m << " lanes=" << lanes;
    EXPECT_EQ(got.splits_performed, reference.splits_performed);
    EXPECT_EQ(got.nets_spanning, reference.nets_spanning);
    EXPECT_EQ(got.connectivity_cost, reference.connectivity_cost);
  }
}

TEST_F(ThreadDeterminismTest, VcycleEngineBitIdenticalAcrossLaneCounts) {
  // The full multilevel path — community detection, heavy-edge clustering,
  // contraction, coarsest IG-Match, per-level FM refinement, and two extra
  // side-constrained V-cycles — must be one deterministic pipeline at any
  // lane count.  Forced hierarchies (pair budget lifted) so every stage
  // genuinely runs; the largest circuit crosses the reduction chunk.
  const Hypergraph circuits[] = {
      circuit(600, "det-vcycle-small"),
      circuit(1200, "det-vcycle-medium"),
      circuit(5000, "det-vcycle-large"),
  };
  MultilevelOptions options;
  options.direct_pair_budget = 0;
  options.coarsen_to = 64;
  options.vcycles = 2;
  for (const Hypergraph& h : circuits) {
    parallel::ThreadPool::instance().configure(1);
    const MultilevelResult reference = multilevel_partition(h, options);
    ASSERT_GT(reference.levels, 0) << h.num_modules();
    for (const std::int32_t lanes : kLaneCounts) {
      if (lanes == 1) continue;
      parallel::ThreadPool::instance().configure(lanes);
      const MultilevelResult got = multilevel_partition(h, options);
      const std::string context = "modules=" +
                                  std::to_string(h.num_modules()) +
                                  " lanes=" + std::to_string(lanes);
      EXPECT_EQ(got.nets_cut, reference.nets_cut) << context;
      EXPECT_EQ(got.ratio, reference.ratio) << context;  // bitwise
      EXPECT_EQ(got.levels, reference.levels) << context;
      EXPECT_EQ(got.coarsest_modules, reference.coarsest_modules) << context;
      EXPECT_EQ(got.vcycles_run, reference.vcycles_run) << context;
      EXPECT_EQ(got.lambda2, reference.lambda2) << context;  // bitwise
      for (ModuleId m = 0; m < h.num_modules(); ++m)
        ASSERT_EQ(got.partition.side(m), reference.partition.side(m))
            << context << " module " << m;
      ASSERT_EQ(got.coarsest_partition.num_modules(),
                reference.coarsest_partition.num_modules())
          << context;
      for (ModuleId m = 0; m < reference.coarsest_partition.num_modules();
           ++m)
        ASSERT_EQ(got.coarsest_partition.side(m),
                  reference.coarsest_partition.side(m))
            << context << " coarse module " << m;
    }
  }
}

TEST_F(ThreadDeterminismTest, SamplerAndEventRingNeverPerturbResults) {
  // The profiler's promise is that observing a run cannot change it: with
  // live SIGPROF ticks landing mid-pipeline and every solver emitting into
  // the armed event ring, all lane counts must still match the quiet serial
  // reference bit for bit.
  const Hypergraph h = circuit(1200, "det-obs");
  const Algorithm algorithms[] = {Algorithm::kEig1, Algorithm::kIgMatch,
                                  Algorithm::kRatioCutFm};
  for (const Algorithm algorithm : algorithms) {
    parallel::ThreadPool::instance().configure(1);
    const RunRecord reference = record_run(h, algorithm);  // unobserved
    ASSERT_TRUE(obs::Profiler::instance().start(1000));
    obs::EventRing::instance().arm();
    for (const std::int32_t lanes : kLaneCounts) {
      parallel::ThreadPool::instance().configure(lanes);
      const std::string context = std::string(to_string(algorithm)) +
                                  " lanes=" + std::to_string(lanes) +
                                  " (sampler armed)";
      expect_identical(record_run(h, algorithm), reference, context);
    }
    obs::EventRing::instance().disarm();
    obs::Profiler::instance().stop();
    // The observation must have been real, not a disarmed no-op.
    EXPECT_GT(obs::EventRing::instance().recorded(), 0)
        << to_string(algorithm);
  }
  // Leave the process-wide profiler table and ring empty for other tests.
  obs::Profiler::instance().start(0);
  obs::Profiler::instance().stop();
  obs::EventRing::instance().arm();
  obs::EventRing::instance().disarm();
}

/// One batch of the fixed repartitioning edit script.  The RNG is re-seeded
/// per trace, so every lane count sees the identical edit sequence.
void apply_deterministic_batch(repart::EditableNetlist& netlist,
                               Xoshiro256& rng) {
  const std::int32_t n = netlist.num_modules();
  // Two pin moves plus, every third batch, one net churn.
  for (std::int32_t op = 0; op < 2; ++op) {
    const auto net = static_cast<NetId>(
        rng.below(static_cast<std::uint64_t>(netlist.num_nets())));
    const auto pins = netlist.pins(net);
    if (pins.size() < 2) continue;
    const ModuleId from = pins[static_cast<std::size_t>(rng.below(pins.size()))];
    const auto to =
        static_cast<ModuleId>(rng.below(static_cast<std::uint64_t>(n)));
    if (to != from) netlist.move_pin(net, from, to);
  }
  if (rng.below(3) == 0) {
    netlist.remove_net(static_cast<NetId>(
        rng.below(static_cast<std::uint64_t>(netlist.num_nets()))));
    std::vector<ModuleId> pins;
    for (std::int32_t i = 0; i < 3; ++i)
      pins.push_back(
          static_cast<ModuleId>(rng.below(static_cast<std::uint64_t>(n))));
    netlist.add_net(pins);
  }
}

/// Everything we pin about one repartitioning batch.
struct RepartRecord {
  std::vector<std::int32_t> sides;
  std::int32_t nets_cut = 0;
  double ratio = 0.0;
  double lambda2 = 0.0;
  std::int32_t lanczos_iterations = 0;
  bool warm_started = false;
};

std::vector<RepartRecord> repart_trace(const Hypergraph& h,
                                       std::int32_t lanes) {
  parallel::ThreadPool::instance().configure(lanes);
  repart::RepartitionSession session(h);
  Xoshiro256 rng = Xoshiro256::from_string("det-repart-edits");
  std::vector<RepartRecord> trace;
  for (std::int32_t batch = 0; batch < 20; ++batch) {
    if (batch > 0) apply_deterministic_batch(session.netlist(), rng);
    const repart::RepartitionResult r = session.repartition();
    RepartRecord rec;
    rec.sides.reserve(static_cast<std::size_t>(r.partition.num_modules()));
    for (ModuleId m = 0; m < r.partition.num_modules(); ++m)
      rec.sides.push_back(r.partition.side(m) == Side::kLeft ? 0 : 1);
    rec.nets_cut = r.nets_cut;
    rec.ratio = r.ratio;
    rec.lambda2 = r.lambda2;
    rec.lanczos_iterations = r.lanczos_iterations;
    rec.warm_started = r.warm_started;
    trace.push_back(std::move(rec));
  }
  return trace;
}

TEST_F(ThreadDeterminismTest, RepartitionPathBitIdenticalAcrossLaneCounts) {
  // > 4096 nets so the chunked parallel reductions run inside every
  // batch's Lanczos solve.
  const Hypergraph h = circuit(4000, "det-repart");
  const std::vector<RepartRecord> reference = repart_trace(h, 1);
  ASSERT_EQ(reference.size(), 20u);
  // The script must actually exercise the warm path.
  std::int32_t warm = 0;
  for (const RepartRecord& rec : reference) warm += rec.warm_started ? 1 : 0;
  EXPECT_GE(warm, 15);
  for (const std::int32_t lanes : kLaneCounts) {
    if (lanes == 1) continue;
    const std::vector<RepartRecord> got = repart_trace(h, lanes);
    ASSERT_EQ(got.size(), reference.size()) << "lanes=" << lanes;
    for (std::size_t b = 0; b < reference.size(); ++b) {
      const std::string context =
          "lanes=" + std::to_string(lanes) + " batch=" + std::to_string(b);
      EXPECT_EQ(got[b].sides, reference[b].sides) << context;
      EXPECT_EQ(got[b].nets_cut, reference[b].nets_cut) << context;
      EXPECT_EQ(got[b].ratio, reference[b].ratio) << context;  // bitwise
      EXPECT_EQ(got[b].lambda2, reference[b].lambda2) << context;
      EXPECT_EQ(got[b].lanczos_iterations, reference[b].lanczos_iterations)
          << context;
      EXPECT_EQ(got[b].warm_started, reference[b].warm_started) << context;
    }
  }
}

}  // namespace
}  // namespace netpart
