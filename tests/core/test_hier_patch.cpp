// Delta-patched division tier and index: bit-equivalence against the
// from-scratch builds (core/hier_patch.cpp contract) across churn
// sequences, thread counts and the fallback edges.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/random.hpp"
#include "core/division.hpp"
#include "core/division_delta.hpp"
#include "core/facemap.hpp"
#include "core/facemap_builder.hpp"
#include "core/hier_facemap.hpp"
#include "core/signature_index.hpp"
#include "net/deployment.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace fttt {
namespace {

const Aabb kField{{0.0, 0.0}, {40.0, 40.0}};
constexpr double kCell = 0.5;
constexpr double kC = 1.3;

/// Bit-equivalence of two coarse tiers: identical shape and identical
/// mask bytes on every level and plane.
void expect_hier_identical(const HierFaceMap& got, const HierFaceMap& want) {
  ASSERT_EQ(got.face_count(), want.face_count());
  ASSERT_EQ(got.dimension(), want.dimension());
  ASSERT_EQ(got.level_count(), want.level_count());
  ASSERT_EQ(got.bytes(), want.bytes());
  for (std::size_t l = 0; l < want.level_count(); ++l) {
    ASSERT_EQ(got.node_count(l), want.node_count(l)) << "level " << l;
    for (std::size_t c = 0; c < want.dimension(); ++c)
      for (std::size_t i = 0; i < want.node_count(l); ++i)
        ASSERT_EQ(got.mask(l, c, i), want.mask(l, c, i))
            << "level " << l << " pair " << c << " node " << i;
  }
}

/// Bit-equivalence of two indexes: identical CSR rows on every level.
void expect_index_identical(const SignatureIndex& got, const SignatureIndex& want) {
  ASSERT_EQ(got.tile_count(), want.tile_count());
  ASSERT_EQ(got.dimension(), want.dimension());
  ASSERT_EQ(got.level_count(), want.level_count());
  ASSERT_EQ(got.mixed_entries(), want.mixed_entries());
  ASSERT_EQ(got.bytes(), want.bytes());
  for (std::size_t t = 0; t < want.tile_count(); ++t) {
    const auto g = got.mixed_planes(t);
    const auto w = want.mixed_planes(t);
    ASSERT_EQ(std::vector<std::uint32_t>(g.begin(), g.end()),
              std::vector<std::uint32_t>(w.begin(), w.end()))
        << "tile " << t;
  }
  // Upper node counts follow the tier recurrence from the tile count.
  std::size_t nodes = want.tile_count();
  for (std::size_t l = 1; l < want.level_count(); ++l) {
    nodes = (nodes + HierFaceMap::kFanout - 1) / HierFaceMap::kFanout;
    for (std::size_t i = 0; i < nodes; ++i) {
      const auto g = got.varying_planes(l, i);
      const auto w = want.varying_planes(l, i);
      ASSERT_EQ(std::vector<std::uint32_t>(g.begin(), g.end()),
                std::vector<std::uint32_t>(w.begin(), w.end()))
          << "level " << l << " node " << i;
    }
  }
}

/// Apply fail -> revive -> fail churn steps to `builder`, and after each
/// step check that patch_hierarchy + SignatureIndex::patched are
/// bit-identical to the from-scratch builds on `pool`.
void run_churn_equivalence(std::size_t sensors, std::uint64_t seed,
                           ThreadPool& pool) {
  RngStream rng(seed);
  const Deployment nodes = random_deployment(kField, sensors, rng);
  FaceMapBuilder builder(nodes, kC, kField, kCell, pool);

  FaceMap prev_map = builder.build();
  HierFaceMap prev_hier = builder.build_hierarchy();
  SignatureIndex prev_index = SignatureIndex::build(prev_hier, pool);

  const NodeId victim = static_cast<NodeId>(sensors / 2);
  const NodeId victim2 = static_cast<NodeId>(sensors / 3);
  const struct {
    NodeId id;
    bool fail;
  } steps[] = {{victim, true}, {victim, false}, {victim2, true}};

  int step_no = 0;
  for (const auto& step : steps) {
    SCOPED_TRACE(testing::Message()
                 << "sensors " << sensors << " seed " << seed << " step "
                 << step_no++ << (step.fail ? " fail " : " revive ") << step.id);
    if (step.fail)
      builder.deactivate(step.id);
    else
      builder.activate(step.id);

    FaceMap next_map = builder.build();
    const DivisionDelta delta = builder.delta_since(prev_map, next_map);
    ASSERT_TRUE(delta.valid);

    const HierFaceMap want_hier = builder.build_hierarchy();
    HierPatchReport report;
    const HierFaceMap got_hier =
        builder.patch_hierarchy(prev_hier, delta, &report);
    expect_hier_identical(got_hier, want_hier);

    // Churn only moves boundaries near the victim: with several tiles
    // most copy. (A single tile can legitimately recompute everywhere —
    // its one new tile draws faces from more than one old tile.)
    if (want_hier.node_count(0) > 1) EXPECT_GT(report.copied_tiles, 0u);
    EXPECT_EQ(report.copied_tiles + report.recomputed_tiles,
              want_hier.dimension() * want_hier.node_count(0));

    const SignatureIndex want_index = SignatureIndex::build(want_hier, pool);
    if (report.structure_matched) {
      const SignatureIndex got_index =
          SignatureIndex::patched(got_hier, prev_index, delta, report, pool);
      expect_index_identical(got_index, want_index);
      prev_index = got_index;
    } else {
      prev_index = want_index;
    }
    prev_map = std::move(next_map);
    prev_hier = got_hier;
  }
}

TEST(HierPatch, FailReviveFailBitIdenticalMultiTile) {
  // 14 sensors on a 80x80-cell field: enough faces for several level-0
  // tiles, so cross-tile copies and the upper levels are all exercised.
  ThreadPool pool(4);
  RngStream probe(21);
  const Deployment nodes = random_deployment(kField, 14, probe);
  FaceMapBuilder b(nodes, kC, kField, kCell, pool);
  b.build();
  const HierFaceMap h = b.build_hierarchy();
  ASSERT_GT(h.face_count(), HierFaceMap::kTileFaces);  // multi-tile fixture
  run_churn_equivalence(14, 21, pool);
}

TEST(HierPatch, SingleTileSmallFixture) {
  // 4 sensors: few faces, a single level, the degenerate shallow shape.
  ThreadPool pool(2);
  run_churn_equivalence(4, 5, pool);
}

TEST(HierPatch, BitIdenticalAcrossThreadCounts) {
  for (const std::size_t threads : {1u, 4u, 8u}) {
    ThreadPool pool(threads);
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    run_churn_equivalence(11, 33, pool);
  }
}

TEST(HierPatch, MoveNodePatchesAddedPlanes) {
  // move_node re-rasterizes the moved node's planes: delta_since must
  // exclude them from the survivor remap (their cell data changed) and
  // the patch must recompute every tile they cover.
  ThreadPool pool(4);
  RngStream rng(9);
  const Deployment nodes = random_deployment(kField, 10, rng);
  FaceMapBuilder builder(nodes, kC, kField, kCell, pool);
  FaceMap prev_map = builder.build();
  HierFaceMap prev_hier = builder.build_hierarchy();
  SignatureIndex prev_index = SignatureIndex::build(prev_hier, pool);

  builder.move_node(3, {11.0, 27.0});
  FaceMap next_map = builder.build();
  const DivisionDelta delta = builder.delta_since(prev_map, next_map);
  ASSERT_TRUE(delta.valid);
  // The moved node's n-1 planes count as added (no old plane to reuse).
  std::size_t added = 0;
  for (const std::uint32_t po : delta.plane_to_old)
    if (po == DivisionDelta::kNone) ++added;
  EXPECT_EQ(added, nodes.size() - 1);

  const HierFaceMap want = builder.build_hierarchy();
  HierPatchReport report;
  const HierFaceMap got = builder.patch_hierarchy(prev_hier, delta, &report);
  expect_hier_identical(got, want);
  if (report.structure_matched) {
    expect_index_identical(
        SignatureIndex::patched(got, prev_index, delta, report, pool),
        SignatureIndex::build(want, pool));
  }
}

TEST(HierPatch, TakeDivisionPatchesAlongTheDelta) {
  // The one division producer: handed its previous tiered product it
  // patches the tier, handed nothing it builds one, and untiered it
  // carries none — the tiers bit-identical to a from-scratch build of
  // the same table either way.
  ThreadPool pool(4);
  RngStream rng(21);
  const Deployment nodes = random_deployment(kField, 14, rng);
  FaceMapBuilder builder(nodes, kC, kField, kCell, pool);
  const Division first = builder.take_division(/*tiered=*/true);
  ASSERT_NE(first.hier, nullptr);
  ASSERT_NE(first.index, nullptr);

  obs::set_enabled(true);
  obs::Histogram& patches = obs::histogram("facemap.coarse.patch");
  const std::uint64_t before = patches.summary().count;
  builder.deactivate(7);
  const Division patched = builder.take_division(true, &first);
  const std::uint64_t after_patch = patches.summary().count;
  builder.activate(7);
  const Division wholesale = builder.take_division(true);
  const std::uint64_t after_wholesale = patches.summary().count;
  obs::set_enabled(false);
  if (obs::kCompiledIn) {
    EXPECT_EQ(after_patch - before, 1u);
    EXPECT_EQ(after_wholesale, after_patch);
  }

  for (const Division* d : {&patched, &wholesale}) {
    ASSERT_EQ(d->table->face_count(), d->map->face_count());
    expect_hier_identical(*d->hier, HierFaceMap::build(*d->table, pool));
    expect_index_identical(*d->index, SignatureIndex::build(*d->hier, pool));
  }

  builder.deactivate(2);
  const Division flat = builder.take_division(false, &wholesale);
  EXPECT_EQ(flat.hier, nullptr);
  EXPECT_EQ(flat.index, nullptr);
  EXPECT_EQ(flat.bytes(), flat.map->bytes() + flat.table->bytes());
}

TEST(HierPatch, DeltaInvalidOnFirstBuildAndAfterReset) {
  ThreadPool pool(2);
  RngStream rng(13);
  const Deployment nodes = random_deployment(kField, 6, rng);
  FaceMapBuilder builder(nodes, kC, kField, kCell, pool);

  // Fewer than two builds: nothing to connect.
  FaceMap first = builder.build();
  EXPECT_FALSE(builder.delta_since(first, first).valid);

  builder.deactivate(1);
  FaceMap second = builder.build();
  EXPECT_TRUE(builder.delta_since(first, second).valid);

  // reset_roster clears the pair bookkeeping: the next delta cannot
  // connect until two fresh builds exist.
  builder.reset_roster(nodes);
  FaceMap third = builder.build();
  EXPECT_FALSE(builder.delta_since(second, third).valid);

  // And an invalid delta is rejected by the patch, not silently used.
  const HierFaceMap hier = builder.build_hierarchy();
  EXPECT_THROW(builder.patch_hierarchy(hier, DivisionDelta{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace fttt
