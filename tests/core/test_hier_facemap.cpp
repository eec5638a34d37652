#include "core/hier_facemap.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.hpp"
#include "core/facemap.hpp"
#include "net/deployment.hpp"
#include "rf/uncertainty.hpp"

namespace fttt {
namespace {

const Aabb kField{{0.0, 0.0}, {60.0, 60.0}};

std::shared_ptr<const FaceMap> make_map(std::size_t sensors, std::uint64_t seed) {
  RngStream rng(seed);
  const Deployment nodes = random_deployment(kField, sensors, rng);
  const double C = uncertainty_constant(1.0, 4.0, 6.0);
  return std::make_shared<const FaceMap>(FaceMap::build(nodes, C, kField, 1.5));
}

/// Brute-force level-0 mask: OR of value bits over the tile's real faces.
std::uint8_t brute_mask(const SignatureTable& table, std::size_t pair,
                        std::size_t tile) {
  const std::size_t f0 = tile * HierFaceMap::kTileFaces;
  const std::size_t f1 =
      std::min(table.face_count(), f0 + HierFaceMap::kTileFaces);
  std::uint8_t mask = 0;
  for (std::size_t f = f0; f < f1; ++f)
    mask |= static_cast<std::uint8_t>(1u << (table.at(pair, f) + 1));
  return mask;
}

SamplingVector noisy_vector(const FaceMap& map, RngStream& rng, bool extended) {
  const Face& f = map.faces()[rng.uniform_index(map.face_count())];
  SamplingVector vd;
  vd.known.assign(map.dimension(), true);
  vd.value.reserve(map.dimension());
  for (SigValue v : f.signature) vd.value.push_back(static_cast<double>(v));
  for (int i = 0; i < 4; ++i) {
    const std::size_t c = rng.uniform_index(vd.value.size());
    vd.value[c] = extended ? rng.uniform(-1.0, 1.0)
                           : static_cast<double>(static_cast<int>(rng.uniform_index(3)) - 1);
  }
  for (std::size_t c = 0; c < vd.known.size(); ++c)
    if (rng.bernoulli(0.1)) vd.known[c] = false;
  return vd;
}

/// The fine kernel's exact squared distance: known pairs in ascending
/// order, one (v - s)^2 add each (matcher.cpp / batch_matcher.cpp order).
double exact_d2(const SignatureTable& table, const SamplingVector& vd, FaceId f) {
  double acc = 0.0;
  for (std::size_t c = 0; c < table.dimension(); ++c) {
    if (!vd.known[c]) continue;
    const double d = vd.value[c] - static_cast<double>(table.at(c, f));
    acc += d * d;
  }
  return acc;
}

TEST(HierFaceMap, TileMasksMatchBruteForceWithNoPadLeak) {
  for (const std::uint64_t seed : {3u, 11u}) {
    const auto map = make_map(8, seed);
    const SignatureTable table(*map);
    const HierFaceMap hier = HierFaceMap::build(table);
    ASSERT_EQ(hier.face_count(), table.face_count());
    ASSERT_EQ(hier.dimension(), table.dimension());
    const std::size_t tiles = hier.node_count(0);
    ASSERT_EQ(tiles, (table.face_count() + HierFaceMap::kTileFaces - 1) /
                         HierFaceMap::kTileFaces);
    for (std::size_t c = 0; c < table.dimension(); ++c)
      for (std::size_t t = 0; t < tiles; ++t)
        ASSERT_EQ(hier.mask(0, c, t), brute_mask(table, c, t))
            << "pair " << c << " tile " << t;
  }
}

TEST(HierFaceMap, HigherLevelsAreChildUnionsAndTopIsSmall) {
  const auto map = make_map(12, 5);
  const SignatureTable table(*map);
  const HierFaceMap hier = HierFaceMap::build(table);
  ASSERT_GE(hier.level_count(), 1u);
  EXPECT_LE(hier.node_count(hier.level_count() - 1), HierFaceMap::kFanout);
  for (std::size_t l = 1; l < hier.level_count(); ++l) {
    ASSERT_EQ(hier.node_count(l),
              (hier.node_count(l - 1) + HierFaceMap::kFanout - 1) /
                  HierFaceMap::kFanout);
    for (std::size_t c = 0; c < hier.dimension(); ++c) {
      for (std::size_t i = 0; i < hier.node_count(l); ++i) {
        std::uint8_t expect = 0;
        const std::size_t c0 = i * HierFaceMap::kFanout;
        const std::size_t c1 =
            std::min(hier.node_count(l - 1), c0 + HierFaceMap::kFanout);
        for (std::size_t child = c0; child < c1; ++child)
          expect |= hier.mask(l - 1, c, child);
        ASSERT_EQ(hier.mask(l, c, i), expect) << "level " << l << " node " << i;
      }
    }
  }
}

TEST(HierFaceMap, BoundNeverExceedsAnyCoveredFacesExactDistance) {
  for (const std::uint64_t seed : {7u, 19u}) {
    const auto map = make_map(9, seed);
    const SignatureTable table(*map);
    const HierFaceMap hier = HierFaceMap::build(table);
    RngStream rng(seed + 100);
    for (int i = 0; i < 24; ++i) {
      const SamplingVector vd = noisy_vector(*map, rng, i % 2 == 0);
      std::vector<double> bounds(hier.node_count(0));
      hier.lower_bounds_into(vd, 0, 0, hier.node_count(0), bounds.data());
      for (FaceId f = 0; f < map->face_count(); ++f) {
        const std::size_t tile = f / HierFaceMap::kTileFaces;
        ASSERT_LE(bounds[tile], exact_d2(table, vd, f))
            << "seed " << seed << " vector " << i << " face " << f;
      }
    }
  }
}

TEST(HierFaceMap, ParentBoundNeverExceedsChildBound) {
  // cell 0.5 yields enough faces for more than kFanout tiles, so the
  // pyramid genuinely has a parent level to compare against.
  RngStream seed_rng(13);
  const Deployment nodes = random_deployment(kField, 24, seed_rng);
  const double C = uncertainty_constant(1.0, 4.0, 6.0);
  const auto map =
      std::make_shared<const FaceMap>(FaceMap::build(nodes, C, kField, 0.5));
  const SignatureTable table(*map);
  const HierFaceMap hier = HierFaceMap::build(table);
  ASSERT_GE(hier.level_count(), 2u);
  RngStream rng(42);
  for (int i = 0; i < 8; ++i) {
    const SamplingVector vd = noisy_vector(*map, rng, i % 2 == 0);
    for (std::size_t l = 1; l < hier.level_count(); ++l) {
      std::vector<double> parent(hier.node_count(l));
      std::vector<double> child(hier.node_count(l - 1));
      hier.lower_bounds_into(vd, l, 0, parent.size(), parent.data());
      hier.lower_bounds_into(vd, l - 1, 0, child.size(), child.data());
      for (std::size_t p = 0; p < parent.size(); ++p) {
        const std::size_t c0 = p * HierFaceMap::kFanout;
        const std::size_t c1 = std::min(child.size(), c0 + HierFaceMap::kFanout);
        for (std::size_t c = c0; c < c1; ++c)
          ASSERT_LE(parent[p], child[c]) << "level " << l << " parent " << p;
      }
    }
  }
}

TEST(HierFaceMap, IntegerBoundsEqualDoubleBoundsOnIntegralVectors) {
  // The descent's integer overload sums the same {0, 1, 4} terms the
  // double overload rounds exactly, on every level.
  RngStream seed_rng(13);
  const Deployment nodes = random_deployment(kField, 24, seed_rng);
  const double C = uncertainty_constant(1.0, 4.0, 6.0);
  const auto map =
      std::make_shared<const FaceMap>(FaceMap::build(nodes, C, kField, 0.5));
  const SignatureTable table(*map);
  const HierFaceMap hier = HierFaceMap::build(table);
  ASSERT_GE(hier.level_count(), 2u);
  RngStream rng(43);
  IntegralView view;
  for (int i = 0; i < 8; ++i) {
    const SamplingVector vd = noisy_vector(*map, rng, false);
    ASSERT_TRUE(view.assign(vd));
    for (std::size_t l = 0; l < hier.level_count(); ++l) {
      std::vector<double> want(hier.node_count(l));
      std::vector<std::uint32_t> got(hier.node_count(l));
      hier.lower_bounds_into(vd, l, 0, want.size(), want.data());
      hier.lower_bounds_into(view, l, 0, got.size(), got.data());
      for (std::size_t n = 0; n < want.size(); ++n)
        ASSERT_EQ(want[n], static_cast<double>(got[n])) << "level " << l << " node " << n;
    }
  }
}

TEST(HierFaceMap, AllStarVectorBoundsAreZero) {
  const auto map = make_map(7, 3);
  const SignatureTable table(*map);
  const HierFaceMap hier = HierFaceMap::build(table);
  SamplingVector vd;
  vd.value.assign(map->dimension(), 0.0);
  vd.known.assign(map->dimension(), false);
  for (std::size_t l = 0; l < hier.level_count(); ++l) {
    std::vector<double> bounds(hier.node_count(l), 1.0);
    hier.lower_bounds_into(vd, l, 0, bounds.size(), bounds.data());
    for (const double b : bounds) ASSERT_EQ(b, 0.0);
  }
}

TEST(HierFaceMap, SingleFaceMapHasOneSingleValueTile) {
  // A 1-cell field is one face no matter the deployment: the degenerate
  // single-face tile every mask holds exactly one value bit for.
  const Aabb tiny{{0.0, 0.0}, {1.0, 1.0}};
  Deployment nodes;
  nodes.push_back(SensorNode{0, {-3.0, 0.5}});
  nodes.push_back(SensorNode{1, {4.0, 0.5}});
  const auto map =
      std::make_shared<const FaceMap>(FaceMap::build(nodes, 1.5, tiny, 1.0));
  ASSERT_EQ(map->face_count(), 1u);
  const SignatureTable table(*map);
  const HierFaceMap hier = HierFaceMap::build(table);
  EXPECT_EQ(hier.level_count(), 1u);
  EXPECT_EQ(hier.node_count(0), 1u);
  for (std::size_t c = 0; c < hier.dimension(); ++c) {
    const std::uint8_t m = hier.mask(0, c, 0);
    EXPECT_EQ(m & (m - 1), 0) << "pair " << c << ": more than one value bit";
    EXPECT_NE(m, 0) << "pair " << c;
  }
}

TEST(HierFaceMap, RangeAndDimensionValidation) {
  const auto map = make_map(6, 2);
  const SignatureTable table(*map);
  const HierFaceMap hier = HierFaceMap::build(table);
  std::vector<double> out(hier.node_count(0));
  SamplingVector wrong;
  wrong.value.assign(map->dimension() + 1, 0.0);
  wrong.known.assign(map->dimension() + 1, true);
  EXPECT_THROW(hier.lower_bounds_into(wrong, 0, 0, 1, out.data()),
               std::invalid_argument);
  SamplingVector ok;
  ok.value.assign(map->dimension(), 0.0);
  ok.known.assign(map->dimension(), true);
  EXPECT_THROW(
      hier.lower_bounds_into(ok, 0, 0, hier.node_count(0) + 1, out.data()),
      std::invalid_argument);
  EXPECT_GT(hier.bytes(), 0u);
}

}  // namespace
}  // namespace fttt
